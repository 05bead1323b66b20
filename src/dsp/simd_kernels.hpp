// Internal SIMD kernels for the float feature path (EDR resampling and the
// Welch window/accumulate inner loops).
//
// Same dispatch-and-exactness story as the lane engine: each kernel
// replicates its scalar loop's exact elementwise operation order (IEEE
// add/mul/sub/div, no FMA, no reassociation), so the vector paths are
// bit-identical to the scalar reference at every tier. The tier is chosen
// per call from common::simd_effective_tier() (the runtime tier clamped to
// what this build compiled) —
// one binary, runtime cpuid, SVT_LANE_ISA-forcible for CI.
#pragma once

#include <cstddef>

#include "common/simd_dispatch.hpp"

namespace svt::dsp::detail {

/// Uniform-grid linear interpolation over one source segment:
/// out[j] = v_lo*(1-frac) + v_hi*frac for grid index i = i0+j, j in
/// [0, count), with t = start + double(i)/fs and frac = (t - t_lo)/span.
/// Bit-identical to the per-point scalar loop in resample_linear_into.
void lerp_grid_span(double start, double fs, double t_lo, double span, double v_lo, double v_hi,
                    std::size_t i0, std::size_t count, double* out);

/// Complex taper fill: interleaved[2i] = x[i]*w[i], interleaved[2i+1] = 0
/// for i in [0, n) — the Welch segment windowing into the FFT buffer.
void taper_into_complex(const double* x, const double* w, std::size_t n, double* interleaved);

/// Interior one-sided PSD bins k in [k_begin, k_end): p = (re*re + im*im)
/// / norm, doubled (the caller passes interior bins only), then power[k]
/// += p (accumulate) or = p. `interleaved` is the FFT buffer as (re, im)
/// pairs.
void psd_interior_bins(const double* interleaved, std::size_t k_begin, std::size_t k_end,
                       double norm, bool accumulate, double* power);

// AVX2 variants (compiled in simd_kernels_avx2.cpp when the toolchain
// supports -mavx2; called only when common::simd_effective_tier() == kAvx2).
void lerp_grid_span_avx2(double start, double fs, double t_lo, double span, double v_lo,
                         double v_hi, std::size_t i0, std::size_t count, double* out);
void taper_into_complex_avx2(const double* x, const double* w, std::size_t n,
                             double* interleaved);
void psd_interior_bins_avx2(const double* interleaved, std::size_t k_begin, std::size_t k_end,
                            double norm, bool accumulate, double* power);

}  // namespace svt::dsp::detail

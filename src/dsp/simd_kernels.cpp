#include "dsp/simd_kernels.hpp"

#if defined(__SSE2__) || defined(_M_X64)
#include <emmintrin.h>
#endif

namespace svt::dsp::detail {

namespace {

void lerp_grid_span_scalar(double start, double fs, double t_lo, double span, double v_lo,
                           double v_hi, std::size_t i0, std::size_t count, double* out) {
  for (std::size_t j = 0; j < count; ++j) {
    const double t = start + static_cast<double>(i0 + j) / fs;
    const double frac = (t - t_lo) / span;
    out[j] = v_lo * (1.0 - frac) + v_hi * frac;
  }
}

void taper_scalar(const double* x, const double* w, std::size_t n, double* interleaved) {
  for (std::size_t i = 0; i < n; ++i) {
    interleaved[2 * i] = x[i] * w[i];
    interleaved[2 * i + 1] = 0.0;
  }
}

void psd_bins_scalar(const double* interleaved, std::size_t k_begin, std::size_t k_end,
                     double norm, bool accumulate, double* power) {
  for (std::size_t k = k_begin; k < k_end; ++k) {
    const double re = interleaved[2 * k];
    const double im = interleaved[2 * k + 1];
    double p = (re * re + im * im) / norm;
    p *= 2.0;  // One-sided estimate folds the negative axis (interior bins).
    if (accumulate) {
      power[k] += p;
    } else {
      power[k] = p;
    }
  }
}

#if defined(__SSE2__) || defined(_M_X64)

void lerp_grid_span_sse2(double start, double fs, double t_lo, double span, double v_lo,
                         double v_hi, std::size_t i0, std::size_t count, double* out) {
  const __m128d start_v = _mm_set1_pd(start), fs_v = _mm_set1_pd(fs);
  const __m128d t_lo_v = _mm_set1_pd(t_lo), span_v = _mm_set1_pd(span);
  const __m128d v_lo_v = _mm_set1_pd(v_lo), v_hi_v = _mm_set1_pd(v_hi);
  const __m128d one = _mm_set1_pd(1.0);
  std::size_t j = 0;
  for (; j + 2 <= count; j += 2) {
    const __m128d iv = _mm_set_pd(static_cast<double>(i0 + j + 1), static_cast<double>(i0 + j));
    const __m128d t = _mm_add_pd(start_v, _mm_div_pd(iv, fs_v));
    const __m128d frac = _mm_div_pd(_mm_sub_pd(t, t_lo_v), span_v);
    const __m128d r = _mm_add_pd(_mm_mul_pd(v_lo_v, _mm_sub_pd(one, frac)),
                                 _mm_mul_pd(v_hi_v, frac));
    _mm_storeu_pd(out + j, r);
  }
  lerp_grid_span_scalar(start, fs, t_lo, span, v_lo, v_hi, i0 + j, count - j, out + j);
}

void taper_sse2(const double* x, const double* w, std::size_t n, double* interleaved) {
  const __m128d zero = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d m = _mm_mul_pd(_mm_loadu_pd(x + i), _mm_loadu_pd(w + i));
    _mm_storeu_pd(interleaved + 2 * i, _mm_unpacklo_pd(m, zero));
    _mm_storeu_pd(interleaved + 2 * i + 2, _mm_unpackhi_pd(m, zero));
  }
  taper_scalar(x + i, w + i, n - i, interleaved + 2 * i);
}

void psd_bins_sse2(const double* interleaved, std::size_t k_begin, std::size_t k_end,
                   double norm, bool accumulate, double* power) {
  const __m128d norm_v = _mm_set1_pd(norm);
  const __m128d two = _mm_set1_pd(2.0);
  std::size_t k = k_begin;
  for (; k + 2 <= k_end; k += 2) {
    const __m128d c0 = _mm_loadu_pd(interleaved + 2 * k);      // re_k, im_k
    const __m128d c1 = _mm_loadu_pd(interleaved + 2 * k + 2);  // re_k+1, im_k+1
    const __m128d m0 = _mm_mul_pd(c0, c0);
    const __m128d m1 = _mm_mul_pd(c1, c1);
    // [re^2, re^2] + [im^2, im^2]: the same re*re + im*im operand order as
    // the scalar loop, two bins at a time.
    const __m128d sum = _mm_add_pd(_mm_unpacklo_pd(m0, m1), _mm_unpackhi_pd(m0, m1));
    __m128d p = _mm_div_pd(sum, norm_v);
    p = _mm_mul_pd(p, two);
    if (accumulate) p = _mm_add_pd(_mm_loadu_pd(power + k), p);
    _mm_storeu_pd(power + k, p);
  }
  psd_bins_scalar(interleaved, k, k_end, norm, accumulate, power);
}

#endif  // __SSE2__

}  // namespace

void lerp_grid_span(double start, double fs, double t_lo, double span, double v_lo, double v_hi,
                    std::size_t i0, std::size_t count, double* out) {
  switch (common::simd_effective_tier()) {
    case common::SimdTier::kAvx2:
      lerp_grid_span_avx2(start, fs, t_lo, span, v_lo, v_hi, i0, count, out);
      return;
#if defined(__SSE2__) || defined(_M_X64)
    case common::SimdTier::kSse2:
      lerp_grid_span_sse2(start, fs, t_lo, span, v_lo, v_hi, i0, count, out);
      return;
#endif
    default: lerp_grid_span_scalar(start, fs, t_lo, span, v_lo, v_hi, i0, count, out); return;
  }
}

void taper_into_complex(const double* x, const double* w, std::size_t n, double* interleaved) {
  switch (common::simd_effective_tier()) {
    case common::SimdTier::kAvx2: taper_into_complex_avx2(x, w, n, interleaved); return;
#if defined(__SSE2__) || defined(_M_X64)
    case common::SimdTier::kSse2: taper_sse2(x, w, n, interleaved); return;
#endif
    default: taper_scalar(x, w, n, interleaved); return;
  }
}

void psd_interior_bins(const double* interleaved, std::size_t k_begin, std::size_t k_end,
                       double norm, bool accumulate, double* power) {
  switch (common::simd_effective_tier()) {
    case common::SimdTier::kAvx2:
      psd_interior_bins_avx2(interleaved, k_begin, k_end, norm, accumulate, power);
      return;
#if defined(__SSE2__) || defined(_M_X64)
    case common::SimdTier::kSse2:
      psd_bins_sse2(interleaved, k_begin, k_end, norm, accumulate, power);
      return;
#endif
    default: psd_bins_scalar(interleaved, k_begin, k_end, norm, accumulate, power); return;
  }
}

}  // namespace svt::dsp::detail

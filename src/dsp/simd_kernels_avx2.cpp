// AVX2 variants of the float feature-path kernels; compiled with
// -mavx2 -ffp-contract=off when the toolchain supports it (see
// CMakeLists.txt) and only called when runtime dispatch confirms AVX2.
// Every operation is elementwise IEEE in the scalar loop's order, so the
// results are bit-identical to the scalar reference.

#include "dsp/simd_kernels.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "common/assert.hpp"

namespace svt::dsp::detail {

#if defined(__AVX2__)

namespace {

void lerp_tail_scalar(double start, double fs, double t_lo, double span, double v_lo,
                      double v_hi, std::size_t i0, std::size_t count, double* out) {
  for (std::size_t j = 0; j < count; ++j) {
    const double t = start + static_cast<double>(i0 + j) / fs;
    const double frac = (t - t_lo) / span;
    out[j] = v_lo * (1.0 - frac) + v_hi * frac;
  }
}

}  // namespace

void lerp_grid_span_avx2(double start, double fs, double t_lo, double span, double v_lo,
                         double v_hi, std::size_t i0, std::size_t count, double* out) {
  const __m256d start_v = _mm256_set1_pd(start), fs_v = _mm256_set1_pd(fs);
  const __m256d t_lo_v = _mm256_set1_pd(t_lo), span_v = _mm256_set1_pd(span);
  const __m256d v_lo_v = _mm256_set1_pd(v_lo), v_hi_v = _mm256_set1_pd(v_hi);
  const __m256d one = _mm256_set1_pd(1.0);
  std::size_t j = 0;
  for (; j + 4 <= count; j += 4) {
    const __m256d iv = _mm256_set_pd(
        static_cast<double>(i0 + j + 3), static_cast<double>(i0 + j + 2),
        static_cast<double>(i0 + j + 1), static_cast<double>(i0 + j));
    const __m256d t = _mm256_add_pd(start_v, _mm256_div_pd(iv, fs_v));
    const __m256d frac = _mm256_div_pd(_mm256_sub_pd(t, t_lo_v), span_v);
    const __m256d r = _mm256_add_pd(_mm256_mul_pd(v_lo_v, _mm256_sub_pd(one, frac)),
                                    _mm256_mul_pd(v_hi_v, frac));
    _mm256_storeu_pd(out + j, r);
  }
  lerp_tail_scalar(start, fs, t_lo, span, v_lo, v_hi, i0 + j, count - j, out + j);
}

void taper_into_complex_avx2(const double* x, const double* w, std::size_t n,
                             double* interleaved) {
  const __m256d zero = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d m = _mm256_mul_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(w + i));
    // Interleave (m, 0) pairs: unpack gives [m0,0|m2,0] and [m1,0|m3,0] per
    // 128-bit half; the cross-half permutes restore index order.
    const __m256d a = _mm256_unpacklo_pd(m, zero);
    const __m256d b = _mm256_unpackhi_pd(m, zero);
    _mm256_storeu_pd(interleaved + 2 * i, _mm256_permute2f128_pd(a, b, 0x20));
    _mm256_storeu_pd(interleaved + 2 * i + 4, _mm256_permute2f128_pd(a, b, 0x31));
  }
  for (; i < n; ++i) {
    interleaved[2 * i] = x[i] * w[i];
    interleaved[2 * i + 1] = 0.0;
  }
}

void psd_interior_bins_avx2(const double* interleaved, std::size_t k_begin, std::size_t k_end,
                            double norm, bool accumulate, double* power) {
  const __m256d norm_v = _mm256_set1_pd(norm);
  const __m256d two = _mm256_set1_pd(2.0);
  std::size_t k = k_begin;
  for (; k + 4 <= k_end; k += 4) {
    const __m256d c0 = _mm256_loadu_pd(interleaved + 2 * k);      // re,im for k, k+1
    const __m256d c1 = _mm256_loadu_pd(interleaved + 2 * k + 4);  // re,im for k+2, k+3
    const __m256d m0 = _mm256_mul_pd(c0, c0);
    const __m256d m1 = _mm256_mul_pd(c1, c1);
    // hadd adds re^2 + im^2 per pair (scalar operand order), yielding
    // [p_k, p_k+2, p_k+1, p_k+3]; the permute restores bin order.
    const __m256d h = _mm256_hadd_pd(m0, m1);
    const __m256d sum = _mm256_permute4x64_pd(h, _MM_SHUFFLE(3, 1, 2, 0));
    __m256d p = _mm256_div_pd(sum, norm_v);
    p = _mm256_mul_pd(p, two);
    if (accumulate) p = _mm256_add_pd(_mm256_loadu_pd(power + k), p);
    _mm256_storeu_pd(power + k, p);
  }
  for (; k < k_end; ++k) {
    const double re = interleaved[2 * k];
    const double im = interleaved[2 * k + 1];
    double p = (re * re + im * im) / norm;
    p *= 2.0;
    if (accumulate) {
      power[k] += p;
    } else {
      power[k] = p;
    }
  }
}

#else  // !__AVX2__: dispatch clamps to SSE2, so these are never reached.

void lerp_grid_span_avx2(double, double, double, double, double, double, std::size_t,
                         std::size_t, double*) {
  SVT_ASSERT(false && "lerp_grid_span_avx2 called without AVX2 code compiled in");
}

void taper_into_complex_avx2(const double*, const double*, std::size_t, double*) {
  SVT_ASSERT(false && "taper_into_complex_avx2 called without AVX2 code compiled in");
}

void psd_interior_bins_avx2(const double*, std::size_t, std::size_t, double, bool, double*) {
  SVT_ASSERT(false && "psd_interior_bins_avx2 called without AVX2 code compiled in");
}

#endif

}  // namespace svt::dsp::detail

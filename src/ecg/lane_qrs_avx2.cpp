// AVX2 kernels for the lane engine: the lockstep chain step (4 patients per
// instruction) and the R-peak candidate mask (4 samples per compare).
//
// This translation unit is compiled with -mavx2 -ffp-contract=off whenever
// the toolchain accepts those flags (see CMakeLists.txt); the kernel is only
// *called* when runtime dispatch has confirmed the CPU supports AVX2. Note
// -mavx2 does not enable FMA, and contraction is off besides, so every
// add/mul/sub/div below is a distinct elementwise IEEE operation — the
// per-lane rounding sequence is exactly StreamingQrsDetector::ingest's.

#include "ecg/lane_qrs_kernel.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "common/assert.hpp"

namespace svt::ecg::detail {

#if defined(__AVX2__)

void lane_step_block_avx2(const LaneCoeffs& c, LaneFilterState& s, std::size_t base,
                          LaneRun* runs, std::size_t steps) {
  SVT_ASSERT(base % 4 == 0 && base + 4 <= kMaxLanes && steps <= kStepBlock);
  const __m256d hp_b0 = _mm256_set1_pd(c.hp_b0), hp_b1 = _mm256_set1_pd(c.hp_b1);
  const __m256d hp_b2 = _mm256_set1_pd(c.hp_b2), hp_a1 = _mm256_set1_pd(c.hp_a1);
  const __m256d hp_a2 = _mm256_set1_pd(c.hp_a2);
  const __m256d lp_b0 = _mm256_set1_pd(c.lp_b0), lp_b1 = _mm256_set1_pd(c.lp_b1);
  const __m256d lp_b2 = _mm256_set1_pd(c.lp_b2), lp_a1 = _mm256_set1_pd(c.lp_a1);
  const __m256d lp_a2 = _mm256_set1_pd(c.lp_a2);
  const __m256d fs = _mm256_set1_pd(c.fs);
  const __m256d two = _mm256_set1_pd(2.0);
  // 1/8 is exact in binary64, so x * 0.125 == x / 8.0 bit-for-bit — one fewer
  // divide on the per-sample critical path (vdivpd is the throughput bottleneck).
  const __m256d eighth = _mm256_set1_pd(0.125);

  __m256d hx1 = _mm256_load_pd(&s.hp_x1[base]), hx2 = _mm256_load_pd(&s.hp_x2[base]);
  __m256d hy1 = _mm256_load_pd(&s.hp_y1[base]), hy2 = _mm256_load_pd(&s.hp_y2[base]);
  __m256d lx1 = _mm256_load_pd(&s.lp_x1[base]), lx2 = _mm256_load_pd(&s.lp_x2[base]);
  __m256d ly1 = _mm256_load_pd(&s.lp_y1[base]), ly2 = _mm256_load_pd(&s.lp_y2[base]);
  __m256d f1 = _mm256_load_pd(&s.f1[base]), f2 = _mm256_load_pd(&s.f2[base]);
  __m256d f3 = _mm256_load_pd(&s.f3[base]), f4 = _mm256_load_pd(&s.f4[base]);
  __m256d acc = _mm256_load_pd(&s.integ_acc[base]);

  std::int64_t n[4];
  for (int w = 0; w < 4; ++w) n[w] = runs[w].n;

  // Steady state (every engaged lane past integrator warmup) runs the
  // branch-free fast path: disengaged lanes are redirected into a small
  // dummy ring so there are no per-lane branches in the hot loop, and the
  // window-leaving subtrahend is loaded straight from the squared rings
  // (written `win` iterations earlier — no store-forward stall on the
  // accumulator chain, unlike bouncing per-lane scalars through a staging
  // array into a 32-byte vector load).
  bool steady = true;
  for (int w = 0; w < 4; ++w)
    if (runs[w].engaged && runs[w].n < c.win) steady = false;

  alignas(32) double tmp[4], tmp2[4];
  if (steady) {
    alignas(32) double dummy[8] = {};
    const double* in[4];
    double* raw[4];
    double* squared[4];
    double* integrated[4];
    std::size_t raw_m[4], sq_m[4], integ_m[4];
    for (int w = 0; w < 4; ++w) {
      const LaneRun& r = runs[w];
      in[w] = r.input;
      if (r.engaged) {
        raw[w] = r.raw;
        squared[w] = r.squared;
        integrated[w] = r.integrated;
        raw_m[w] = r.raw_mask;
        sq_m[w] = r.squared_mask;
        integ_m[w] = r.integrated_mask;
      } else {
        raw[w] = squared[w] = integrated[w] = dummy;
        raw_m[w] = sq_m[w] = integ_m[w] = 7;
      }
    }
    const __m256d nrm = _mm256_set1_pd(static_cast<double>(c.win));
    for (std::size_t k = 0; k < steps; ++k) {
      const __m256d x = _mm256_set_pd(in[3][k], in[2][k], in[1][k], in[0][k]);
      // High-pass biquad: (((b0*x + b1*x1) + b2*x2) - a1*y1) - a2*y2.
      __m256d hy = _mm256_mul_pd(hp_b0, x);
      hy = _mm256_add_pd(hy, _mm256_mul_pd(hp_b1, hx1));
      hy = _mm256_add_pd(hy, _mm256_mul_pd(hp_b2, hx2));
      hy = _mm256_sub_pd(hy, _mm256_mul_pd(hp_a1, hy1));
      hy = _mm256_sub_pd(hy, _mm256_mul_pd(hp_a2, hy2));
      hx2 = hx1;
      hx1 = x;
      hy2 = hy1;
      hy1 = hy;
      // Low-pass biquad on the high-passed sample.
      __m256d f = _mm256_mul_pd(lp_b0, hy);
      f = _mm256_add_pd(f, _mm256_mul_pd(lp_b1, lx1));
      f = _mm256_add_pd(f, _mm256_mul_pd(lp_b2, lx2));
      f = _mm256_sub_pd(f, _mm256_mul_pd(lp_a1, ly1));
      f = _mm256_sub_pd(f, _mm256_mul_pd(lp_a2, ly2));
      lx2 = lx1;
      lx1 = hy;
      ly2 = ly1;
      ly1 = f;
      // Five-point derivative: fs * (((2f + f1) - f3) - 2*f4) / 8.
      __m256d d = _mm256_mul_pd(two, f);
      d = _mm256_add_pd(d, f1);
      d = _mm256_sub_pd(d, f3);
      d = _mm256_sub_pd(d, _mm256_mul_pd(two, f4));
      d = _mm256_mul_pd(_mm256_mul_pd(fs, d), eighth);
      f4 = f3;
      f3 = f2;
      f2 = f1;
      f1 = f;
      const __m256d sq = _mm256_mul_pd(d, d);
      // Trailing integrator; n >= win for every live lane, so the leaving
      // sample always exists and the normaliser is the full window.
      acc = _mm256_add_pd(acc, sq);
      const __m256d sub = _mm256_set_pd(
          squared[3][static_cast<std::size_t>(n[3] - c.win) & sq_m[3]],
          squared[2][static_cast<std::size_t>(n[2] - c.win) & sq_m[2]],
          squared[1][static_cast<std::size_t>(n[1] - c.win) & sq_m[1]],
          squared[0][static_cast<std::size_t>(n[0] - c.win) & sq_m[0]]);
      acc = _mm256_sub_pd(acc, sub);
      const __m256d integ = _mm256_div_pd(acc, nrm);
      _mm256_store_pd(tmp, sq);
      _mm256_store_pd(tmp2, integ);
      for (int w = 0; w < 4; ++w) {
        const auto nw = static_cast<std::size_t>(n[w]);
        raw[w][nw & raw_m[w]] = in[w][k];
        squared[w][nw & sq_m[w]] = tmp[w];
        integrated[w][nw & integ_m[w]] = tmp2[w];
        ++n[w];
      }
    }
  } else {
    // Warmup path (at most the first `win` samples after a lane joins):
    // per-lane branches are fine here, but the subtrahend/normaliser vectors
    // are still built from registers, not bounced through memory.
    alignas(32) double sub[4], nrm[4];
    for (std::size_t k = 0; k < steps; ++k) {
      const __m256d x = _mm256_set_pd(runs[3].input[k], runs[2].input[k], runs[1].input[k],
                                      runs[0].input[k]);
      for (int w = 0; w < 4; ++w) {
        LaneRun& r = runs[w];
        if (r.engaged) r.raw[static_cast<std::size_t>(n[w]) & r.raw_mask] = r.input[k];
      }
      // High-pass biquad: (((b0*x + b1*x1) + b2*x2) - a1*y1) - a2*y2.
      __m256d hy = _mm256_mul_pd(hp_b0, x);
      hy = _mm256_add_pd(hy, _mm256_mul_pd(hp_b1, hx1));
      hy = _mm256_add_pd(hy, _mm256_mul_pd(hp_b2, hx2));
      hy = _mm256_sub_pd(hy, _mm256_mul_pd(hp_a1, hy1));
      hy = _mm256_sub_pd(hy, _mm256_mul_pd(hp_a2, hy2));
      hx2 = hx1;
      hx1 = x;
      hy2 = hy1;
      hy1 = hy;
      // Low-pass biquad on the high-passed sample.
      __m256d f = _mm256_mul_pd(lp_b0, hy);
      f = _mm256_add_pd(f, _mm256_mul_pd(lp_b1, lx1));
      f = _mm256_add_pd(f, _mm256_mul_pd(lp_b2, lx2));
      f = _mm256_sub_pd(f, _mm256_mul_pd(lp_a1, ly1));
      f = _mm256_sub_pd(f, _mm256_mul_pd(lp_a2, ly2));
      lx2 = lx1;
      lx1 = hy;
      ly2 = ly1;
      ly1 = f;
      // Five-point derivative: fs * (((2f + f1) - f3) - 2*f4) / 8.
      __m256d d = _mm256_mul_pd(two, f);
      d = _mm256_add_pd(d, f1);
      d = _mm256_sub_pd(d, f3);
      d = _mm256_sub_pd(d, _mm256_mul_pd(two, f4));
      d = _mm256_mul_pd(_mm256_mul_pd(fs, d), eighth);
      f4 = f3;
      f3 = f2;
      f2 = f1;
      f1 = f;
      const __m256d sq = _mm256_mul_pd(d, d);
      // Trailing integrator: add, then subtract the sample leaving the window
      // (0 during warmup and for disengaged lanes — exact no-ops).
      acc = _mm256_add_pd(acc, sq);
      _mm256_store_pd(tmp, sq);
      for (int w = 0; w < 4; ++w) {
        LaneRun& r = runs[w];
        if (r.engaged) {
          r.squared[static_cast<std::size_t>(n[w]) & r.squared_mask] = tmp[w];
          sub[w] = n[w] >= c.win
                       ? r.squared[static_cast<std::size_t>(n[w] - c.win) & r.squared_mask]
                       : 0.0;
          nrm[w] = static_cast<double>(n[w] + 1 < c.win ? n[w] + 1 : c.win);
        } else {
          sub[w] = 0.0;
          nrm[w] = 1.0;
        }
      }
      acc = _mm256_sub_pd(acc, _mm256_set_pd(sub[3], sub[2], sub[1], sub[0]));
      const __m256d integ = _mm256_div_pd(acc, _mm256_set_pd(nrm[3], nrm[2], nrm[1], nrm[0]));
      _mm256_store_pd(tmp, integ);
      for (int w = 0; w < 4; ++w) {
        LaneRun& r = runs[w];
        if (r.engaged) {
          r.integrated[static_cast<std::size_t>(n[w]) & r.integrated_mask] = tmp[w];
          ++n[w];
        }
      }
    }
  }

  _mm256_store_pd(&s.hp_x1[base], hx1);
  _mm256_store_pd(&s.hp_x2[base], hx2);
  _mm256_store_pd(&s.hp_y1[base], hy1);
  _mm256_store_pd(&s.hp_y2[base], hy2);
  _mm256_store_pd(&s.lp_x1[base], lx1);
  _mm256_store_pd(&s.lp_x2[base], lx2);
  _mm256_store_pd(&s.lp_y1[base], ly1);
  _mm256_store_pd(&s.lp_y2[base], ly2);
  _mm256_store_pd(&s.f1[base], f1);
  _mm256_store_pd(&s.f2[base], f2);
  _mm256_store_pd(&s.f3[base], f3);
  _mm256_store_pd(&s.f4[base], f4);
  _mm256_store_pd(&s.integ_acc[base], acc);
  // Disengaged lanes advance a local count in the steady path (into the
  // dummy ring); their real cursors must not move.
  for (int w = 0; w < 4; ++w)
    if (runs[w].engaged) runs[w].n = n[w];
}

std::uint64_t local_max_mask_avx2(const double* p, std::size_t count) {
  SVT_ASSERT(count <= kMaskSpan);
  std::uint64_t bits = 0;
  std::size_t k = 0;
  for (; k + 4 <= count; k += 4) {
    const __m256d cur = _mm256_loadu_pd(p + k);
    const __m256d ge = _mm256_cmp_pd(cur, _mm256_loadu_pd(p + k - 1), _CMP_GE_OQ);
    const __m256d gt = _mm256_cmp_pd(cur, _mm256_loadu_pd(p + k + 1), _CMP_GT_OQ);
    bits |= static_cast<std::uint64_t>(_mm256_movemask_pd(_mm256_and_pd(ge, gt))) << k;
  }
  if (k < count) bits |= local_max_mask_scalar(p + k, count - k) << k;
  return bits;
}

#else  // !__AVX2__: the engine clamps to SSE2, so this is never reached.

void lane_step_block_avx2(const LaneCoeffs&, LaneFilterState&, std::size_t, LaneRun*,
                          std::size_t) {
  SVT_ASSERT(false && "lane_step_block_avx2 called without AVX2 code compiled in");
}

std::uint64_t local_max_mask_avx2(const double*, std::size_t) {
  SVT_ASSERT(false && "local_max_mask_avx2 called without AVX2 code compiled in");
  return 0;
}

#endif

}  // namespace svt::ecg::detail

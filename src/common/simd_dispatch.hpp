// Runtime CPU dispatch for the cross-patient lane kernels.
//
// Unlike the SVT_SIMD fixed-point kernel (which selects its ISA at compile
// time and therefore needs a dedicated CI build per ISA), the lane engine
// ships every tier in one binary and picks the widest one the *running* CPU
// supports: AVX2 (4 doubles/op) -> SSE2 (2 doubles/op, baseline on x86-64)
// -> scalar. The choice is queried once and cached; tests and CI can force a
// narrower tier through the SVT_LANE_ISA environment variable ("scalar",
// "sse2" or "avx2") or programmatically with set_simd_tier_override, so the
// fallback paths are continuously exercised on wide hardware.
//
// simd_tier() reports what the *CPU and the user* allow;
// simd_effective_tier() additionally clamps to what this build compiled
// (SSE2 when the toolchain could not build the -mavx2 kernel TUs) and is
// the tier every runtime-dispatched kernel runs at.
#pragma once

namespace svt::common {

/// Vector tiers in increasing width order (comparable with <).
enum class SimdTier { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

/// Widest tier the running CPU supports, clamped by the SVT_LANE_ISA
/// environment variable (read once) and by set_simd_tier_override. Never
/// reports a tier above the CPU's capability, whatever the override asks.
SimdTier simd_tier();

/// Widest tier the running CPU supports, ignoring overrides.
SimdTier simd_tier_detected();

/// Force a tier at runtime (tests/bench). Clamped to the detected tier;
/// pass detected to restore. Not thread-safe against concurrent
/// simd_tier() callers — set it before spawning workers.
void set_simd_tier_override(SimdTier tier);

/// simd_tier() clamped to the ISAs this build compiled kernels for: AVX2
/// only when the -mavx2 kernel translation units were built (CMake defines
/// SVT_HAVE_AVX2_KERNELS for this file under the same condition), SSE2 only
/// on SSE2 targets.
SimdTier simd_effective_tier();

/// "scalar", "sse2" or "avx2".
const char* simd_tier_name(SimdTier tier);

}  // namespace svt::common

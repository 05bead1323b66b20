#include "common/simd_dispatch.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace svt::common {

namespace {

SimdTier detect_cpu_tier() {
#if defined(__x86_64__) || defined(_M_X64)
#if defined(__GNUC__) || defined(__clang__)
  if (__builtin_cpu_supports("avx2")) return SimdTier::kAvx2;
#endif
  return SimdTier::kSse2;  // SSE2 is architectural baseline on x86-64.
#else
  return SimdTier::kScalar;
#endif
}

SimdTier parse_tier(const char* name, SimdTier fallback) {
  if (name == nullptr) return fallback;
  if (std::strcmp(name, "scalar") == 0) return SimdTier::kScalar;
  if (std::strcmp(name, "sse2") == 0) return SimdTier::kSse2;
  if (std::strcmp(name, "avx2") == 0) return SimdTier::kAvx2;
  return fallback;  // Unknown value: ignore rather than abort a serving host.
}

SimdTier initial_tier() {
  const SimdTier cpu = detect_cpu_tier();
  const SimdTier wanted = parse_tier(std::getenv("SVT_LANE_ISA"), cpu);
  return wanted < cpu ? wanted : cpu;
}

std::atomic<SimdTier>& tier_state() {
  static std::atomic<SimdTier> tier{initial_tier()};
  return tier;
}

}  // namespace

SimdTier simd_tier() { return tier_state().load(std::memory_order_relaxed); }

SimdTier simd_tier_detected() { return detect_cpu_tier(); }

void set_simd_tier_override(SimdTier tier) {
  const SimdTier cpu = detect_cpu_tier();
  tier_state().store(tier < cpu ? tier : cpu, std::memory_order_relaxed);
}

SimdTier simd_effective_tier() {
  SimdTier tier = simd_tier();
#if !defined(SVT_HAVE_AVX2_KERNELS)
  if (tier == SimdTier::kAvx2) tier = SimdTier::kSse2;
#endif
#if !(defined(__SSE2__) || defined(_M_X64))
  if (tier == SimdTier::kSse2) tier = SimdTier::kScalar;
#endif
  return tier;
}

const char* simd_tier_name(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar: return "scalar";
    case SimdTier::kSse2: return "sse2";
    case SimdTier::kAvx2: return "avx2";
  }
  return "scalar";
}

}  // namespace svt::common

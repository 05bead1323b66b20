// Cross-patient SIMD lane engine for streaming Pan-Tompkins QRS detection.
//
// StreamingQrsDetector's serial IIR chain (~13 ns/sample) cannot be
// vectorised *within* one patient without changing FP rounding order — but a
// ward runs many patients through the *same* chain, so it vectorises
// *across* them: LaneQrsDetector holds up to kMaxLanes (8) patient streams
// as structure-of-arrays filter state and steps 4 (AVX2) or 2 (SSE2) lanes
// per instruction, one patient per SIMD lane.
//
// Bit-exactness contract: each lane executes the exact per-sample operation
// sequence of StreamingQrsDetector — same expression order, elementwise IEEE
// vector arithmetic, no FMA — so every lane's beat stream is bit-identical
// to a dedicated scalar detector fed the same samples, for every dispatch
// tier (asserted by tests/test_lane_qrs.cpp). Divergent control flow
// (threshold learning, peak confirmation, refractory, dedup) runs per lane:
// samples are ingested in lockstep blocks of <= kStepBlock, then each lane
// replays its decision catch-up as a candidate-mask scan — a vector compare
// marks the local maxima of the integrated signal (under 5% of samples on
// ECG) in a 64-bit mask per span, and the threshold logic runs on the set
// bits only, in ascending order. Deferring decisions by a bounded
// block is exact because decisions never feed back into the filter chain and
// the raw-search clamp min(raw_end, i + win/4) is unaffected by a later
// raw_end (the decision lag is exactly win/4); the history rings carry
// kStepBlock extra capacity to cover the deferral.
//
// Lane lifecycle: lanes occupy fixed slots (no state moves on churn), so
// patients join (add_lane) and leave (remove_lane) without perturbing other
// lanes' results; a freed slot keeps its ring allocations pooled for the
// next occupant, bounding resident memory by the pack width, not by patient
// churn. Ragged input (lanes with different chunk lengths, idle lanes,
// fresh lanes) falls back to the scalar per-lane step; stats() exposes how
// much of the traffic ran in lockstep and how full the lockstep groups were.
//
// Dispatch: the tier is chosen at construction from runtime cpuid (AVX2 ->
// SSE2 -> scalar; see common/simd_dispatch.hpp), clamped to what this build
// compiled; one binary runs everywhere, and SVT_LANE_ISA=scalar|sse2 forces
// the narrower paths for CI parity coverage.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/simd_dispatch.hpp"
#include "ecg/lane_qrs_kernel.hpp"
#include "ecg/streaming_qrs.hpp"

namespace svt::ecg {

/// Name of the tier the lane engine runs at,
/// simd_tier_name(common::simd_effective_tier()): "scalar", "sse2" or "avx2".
const char* lane_isa_name();

/// Lane-engine traffic, summed over lanes. Lane-samples split into those
/// stepped in SIMD lockstep and those stepped by the scalar fallback;
/// vector_slots counts the lane slots the lockstep steps offered (steps x
/// group width), so vector_samples / vector_slots is how full the vector
/// groups ran.
struct LaneStats {
  std::uint64_t vector_samples = 0;
  std::uint64_t scalar_samples = 0;
  std::uint64_t vector_slots = 0;

  /// Engaged share of the offered lockstep slots (0 with no lockstep step).
  double occupancy() const {
    return vector_slots == 0 ? 0.0
                             : static_cast<double>(vector_samples) /
                                   static_cast<double>(vector_slots);
  }
  LaneStats& operator+=(const LaneStats& other) {
    vector_samples += other.vector_samples;
    scalar_samples += other.scalar_samples;
    vector_slots += other.vector_slots;
    return *this;
  }
};

/// A pack of up to kMaxLanes same-rate patient streams stepped in SIMD
/// lockstep, each lane bit-identical to a StreamingQrsDetector.
class LaneQrsDetector {
 public:
  static constexpr std::size_t kMaxLanes = detail::kMaxLanes;

  /// One lane's input for a push() round.
  struct LaneChunk {
    std::size_t lane = 0;
    std::span<const double> samples;
  };

  /// Same validation rules as StreamingQrsDetector. Construction allocates
  /// nothing per lane; ring storage appears on add_lane.
  explicit LaneQrsDetector(double fs_hz, const PanTompkinsParams& params = {});

  /// Claim a free lane slot for a new stream (fresh detector state; pooled
  /// ring storage from a previous occupant is reused). Requires
  /// free_lanes() > 0.
  std::size_t add_lane();

  /// Release a lane slot. Other lanes' streams and results are untouched;
  /// the slot's ring storage stays pooled for the next occupant.
  void remove_lane(std::size_t lane);

  bool lane_active(std::size_t lane) const { return lanes_[check(lane)].active; }
  std::size_t active_lanes() const { return active_count_; }
  std::size_t free_lanes() const { return kMaxLanes - active_count_; }

  /// Advance several lanes together — the lane-parallel hot path. Chunks
  /// may differ in length (ragged tails run scalar); at most one chunk per
  /// lane per call. Confirmed beats land in each lane's beats() ring.
  void push(std::span<const LaneChunk> chunks);

  /// Single-lane convenience (exactly push() of one chunk).
  void push_one(std::size_t lane, std::span<const double> samples_mv);

  /// End-of-record flush for one lane; StreamingQrsDetector::finish
  /// semantics. Other lanes are unaffected.
  void finish(std::size_t lane);

  const BeatRing& beats(std::size_t lane) const { return lanes_[check(lane)].beats; }
  void drop_beats_before(std::size_t lane, std::int64_t sample_index) {
    lanes_[check(lane)].beats.drop_before(sample_index);
  }
  std::int64_t samples_seen(std::size_t lane) const { return lanes_[check(lane)].n; }
  std::int64_t final_through(std::size_t lane) const;
  std::int64_t finality_lag() const {
    return static_cast<std::int64_t>(win_ + decision_lag_);
  }
  double fs_hz() const { return coeffs_.fs; }

  /// Tier this pack dispatches to (fixed at construction).
  common::SimdTier tier() const { return tier_; }

  /// Samples stepped in vector lockstep / by the scalar fallback, summed
  /// over all lanes. scalar/(scalar+vector) is the scalar-tail fraction.
  std::uint64_t vector_samples() const { return stats_.vector_samples; }
  std::uint64_t scalar_samples() const { return stats_.scalar_samples; }
  /// Both of the above plus the lockstep slots offered (see LaneStats).
  const LaneStats& stats() const { return stats_; }

  /// Ring + beat storage currently resident across all lane slots
  /// (including pooled storage of freed slots) — bounded by kMaxLanes times
  /// the per-stream ring footprint, independent of patient churn.
  std::size_t resident_bytes() const;

 private:
  /// Power-of-two, absolute-indexed history ring (same scheme as
  /// StreamingQrsDetector::HistoryRing).
  struct Ring {
    void init(std::size_t min_capacity);
    double& at(std::int64_t index) { return buf[static_cast<std::size_t>(index) & mask]; }
    double at(std::int64_t index) const { return buf[static_cast<std::size_t>(index) & mask]; }
    std::vector<double> buf;
    std::size_t mask = 0;
  };

  struct LaneState {
    Ring squared, integrated, raw;
    BeatRing beats;
    std::int64_t n = 0;
    std::int64_t cursor = 1;
    bool active = false;
    bool finished = false;
    bool thresholds_ready = false;
    double spki = 0.0;
    double npki = 0.0;
    std::int64_t last_peak_idx = 0;
    bool have_peak = false;
    double last_kept_time = 0.0;
    bool have_kept = false;
  };

  static std::size_t check(std::size_t lane) {
    SVT_ASSERT(lane < kMaxLanes);
    return lane;
  }

  void reset_lane(std::size_t lane);
  void step_scalar(std::size_t lane, const double* x, std::size_t count);
  void after_block(std::size_t lane);
  void learn_thresholds(std::size_t lane, std::int64_t learning);
  /// Local-maximum bits for ring indices [i0, i0 + count), count <= 64.
  std::uint64_t candidate_mask(const Ring& ring, std::int64_t i0, std::size_t count) const;
  void replay_decisions(std::size_t lane, std::int64_t limit, std::int64_t raw_end);
  void take_peak(std::size_t lane, std::int64_t i, std::int64_t raw_end, double peak);
  void run_group(std::size_t base, std::size_t width, std::array<const double*, kMaxLanes>& cur,
                 std::array<std::size_t, kMaxLanes>& rem);

  detail::LaneCoeffs coeffs_;
  detail::LaneFilterState filt_;
  PanTompkinsParams params_;
  std::size_t win_ = 0;
  std::size_t refractory_ = 0;
  std::int64_t learning_n_ = 0;
  std::size_t decision_lag_ = 0;
  common::SimdTier tier_ = common::SimdTier::kScalar;

  std::array<LaneState, kMaxLanes> lanes_;
  std::size_t active_count_ = 0;
  LaneStats stats_;
};

}  // namespace svt::ecg

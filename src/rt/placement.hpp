// Pluggable patient placement for the sharded serving engine.
//
// A PlacementPolicy answers one question — which shard should own a patient
// — and is consulted once per stream, when the engine first sees the id or
// the first push after its stream ended; the patient stays on that shard
// while the stream lives. The
// engine passes a snapshot of per-shard load so policies can be load-aware;
// the default FibonacciPlacement ignores it and hashes the id, which keeps
// placement a pure function of (id, shard count) — the historical
// behaviour, and the right choice when producers push from many threads and
// a deterministic assignment matters more than balance. LeastLoadedPlacement
// picks the shard with the fewest queued tasks (ties: fewest patients, then
// lowest index), which spreads a ward whose ids happen to collide under the
// hash.
//
// Contract: place() is called under the engine's routing lock — it must be
// fast, must not call back into the engine, and must return a value
// < shards.size(). Policies are shared between engines via shared_ptr and
// must be stateless or internally synchronised.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace svt::rt {

/// One shard's load snapshot at placement time.
struct ShardLoad {
  std::size_t queued = 0;    ///< Tasks waiting in the shard's queue.
  std::size_t patients = 0;  ///< Live streams on the shard (not yet ended/evicted).
};

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;
  /// Shard for a new patient; must return < shards.size().
  virtual std::size_t place(int patient_id, std::span<const ShardLoad> shards) = 0;
};

/// The engine's historical static assignment: a Fibonacci hash of the id,
/// spreading consecutive patient ids evenly across shards. Depends only on
/// (id, shard count).
inline std::size_t fibonacci_shard(int patient_id, std::size_t num_shards) {
  const auto h = static_cast<std::uint64_t>(static_cast<std::uint32_t>(patient_id)) *
                 UINT64_C(0x9E3779B97F4A7C15);
  return static_cast<std::size_t>(h >> 32) % num_shards;
}

class FibonacciPlacement final : public PlacementPolicy {
 public:
  std::size_t place(int patient_id, std::span<const ShardLoad> shards) override {
    return fibonacci_shard(patient_id, shards.size());
  }
};

/// Load-aware placement: the shard with the fewest queued tasks (ties broken
/// by fewest patients, then lowest index). Admission order now matters to
/// the assignment, but per-patient results stay bit-exact regardless — only
/// *where* a patient runs changes.
class LeastLoadedPlacement final : public PlacementPolicy {
 public:
  std::size_t place(int, std::span<const ShardLoad> shards) override {
    std::size_t best = 0;
    for (std::size_t s = 1; s < shards.size(); ++s) {
      if (shards[s].queued < shards[best].queued ||
          (shards[s].queued == shards[best].queued &&
           shards[s].patients < shards[best].patients))
        best = s;
    }
    return best;
  }
};

}  // namespace svt::rt

// Sharded-engine routing and control surface: placement policies (consulted
// once per stream, never for ids that only get control calls), the live
// patient count ended streams leave, the set_result_sink quiescence guard
// (including its accounting of drop-oldest evictions), lockstep round
// formation (how full the SIMD lane groups run), and the rt::Engine
// interface both engines share.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <random>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/simd_dispatch.hpp"
#include "core/tailoring.hpp"
#include "ecg/dataset.hpp"
#include "ecg/ecg_synth.hpp"
#include "ecg/rr_model.hpp"
#include "features/extractor.hpp"
#include "rt/sharded_classifier.hpp"
#include "rt/stream_classifier.hpp"
#include "rt/work_queue.hpp"

namespace svt {
namespace {

const core::TailoredDetector& detector() {
  static const core::TailoredDetector d = [] {
    ecg::DatasetParams params;
    params.windows_per_session = 10;
    const auto ds = ecg::generate_dataset(params);
    const auto matrix = features::extract_feature_matrix(ds);
    core::TailoringConfig config;
    config.num_features = 30;
    config.sv_budget = 60;
    return core::tailor_detector(matrix.samples, matrix.labels, config);
  }();
  return d;
}

ecg::EcgWaveform synth_ecg(double duration_s, std::uint64_t seed) {
  ecg::PatientProfile patient;
  ecg::SessionEvents events;
  ecg::SessionSignalParams sp;
  sp.duration_s = duration_s;
  std::mt19937_64 rng(seed);
  const auto rr = ecg::generate_rr_series(patient, events, sp, rng);
  const auto resp = ecg::generate_respiration(patient, events, sp, rng);
  return ecg::synthesize_ecg(rr, resp, ecg::EcgSynthParams{}, rng);
}

rt::StreamConfig short_window_config() {
  rt::StreamConfig config;
  config.fs_hz = 250.0;
  config.window_s = 20.0;
  config.stride_s = 10.0;
  return config;
}

// --- Placement policies ------------------------------------------------------

TEST(Placement, FibonacciIsPureAndInRange) {
  for (int pid = -10; pid < 100; ++pid) {
    for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{5}}) {
      const std::size_t s = rt::fibonacci_shard(pid, shards);
      EXPECT_LT(s, shards);
      EXPECT_EQ(s, rt::fibonacci_shard(pid, shards));  // Pure in (id, count).
    }
  }
}

TEST(Placement, LeastLoadedPrefersQueueThenPatientsThenIndex) {
  rt::LeastLoadedPlacement policy;
  {
    const std::vector<rt::ShardLoad> loads = {{5, 1}, {2, 9}, {3, 0}};
    EXPECT_EQ(policy.place(42, loads), 1u);  // Fewest queued wins outright.
  }
  {
    const std::vector<rt::ShardLoad> loads = {{2, 3}, {2, 1}, {2, 2}};
    EXPECT_EQ(policy.place(42, loads), 1u);  // Queue tie: fewest patients.
  }
  {
    const std::vector<rt::ShardLoad> loads = {{2, 1}, {2, 1}, {2, 1}};
    EXPECT_EQ(policy.place(42, loads), 0u);  // Full tie: lowest index.
  }
}

TEST(Placement, EngineConsultsCustomPolicyOncePerPatient) {
  /// Counts placement consultations and pins every patient to shard 1.
  struct PinnedPolicy final : rt::PlacementPolicy {
    std::atomic<int> calls{0};
    std::size_t place(int, std::span<const rt::ShardLoad> shards) override {
      ++calls;
      return shards.size() > 1 ? 1 : 0;
    }
  };
  const auto policy = std::make_shared<PinnedPolicy>();
  rt::EngineOptions options;
  options.num_workers = 2;
  options.placement = policy;
  rt::ShardedStreamClassifier engine(detector(), short_window_config(), std::move(options));
  const std::vector<double> chunk(100, 0.0);
  for (int push = 0; push < 5; ++push) engine.push_samples(17, chunk);
  engine.flush();
  EXPECT_EQ(policy->calls.load(), 1) << "placement must be consulted once per patient";
  EXPECT_EQ(engine.shard_of(17), 1u);
}

TEST(Placement, ControlCallsForUnseenPatientsDoNotRoute) {
  /// Counts placement consultations, records the patient load it was shown,
  /// and pins every patient to the last shard.
  struct CountingPolicy final : rt::PlacementPolicy {
    std::atomic<int> calls{0};
    std::size_t patients_seen = 0;
    std::size_t place(int, std::span<const rt::ShardLoad> shards) override {
      ++calls;
      patients_seen = 0;
      for (const auto& load : shards) patients_seen += load.patients;
      return shards.size() - 1;
    }
  };
  const auto policy = std::make_shared<CountingPolicy>();
  rt::EngineOptions options;
  options.num_workers = 3;
  options.placement = policy;
  rt::ShardedStreamClassifier engine(detector(), short_window_config(), std::move(options));

  engine.evict_patient(42);
  EXPECT_FALSE(engine.end_stream(43));  // Never streamed: nothing to end.
  engine.flush();
  EXPECT_EQ(policy->calls.load(), 0) << "control calls must not place unseen patients";

  const std::vector<double> chunk(100, 0.0);
  engine.push_samples(7, chunk);
  engine.flush();
  EXPECT_EQ(policy->calls.load(), 1);
  EXPECT_EQ(policy->patients_seen, 0u) << "no phantom patients in the load snapshot";
  EXPECT_EQ(engine.shard_of(7), 2u);
  EXPECT_TRUE(engine.end_stream(7));
  engine.flush();
  EXPECT_NO_THROW(engine.set_result_sink({}));
}

/// Counts placement consultations, records the live-patient load it was
/// shown, and spreads patients round-robin over the shards by call count
/// (so a patient placed twice would move).
struct RotatingPolicy final : rt::PlacementPolicy {
  std::atomic<int> calls{0};
  std::size_t patients_seen = 0;
  std::size_t place(int, std::span<const rt::ShardLoad> shards) override {
    patients_seen = 0;
    for (const auto& load : shards) patients_seen += load.patients;
    return static_cast<std::size_t>(calls++) % shards.size();
  }
};

// end_stream retires a patient from the live count the placement policy
// sees, and a repeated end_stream reports there is nothing left to end.
TEST(Placement, EndedStreamsLeaveTheLiveCount) {
  const auto policy = std::make_shared<RotatingPolicy>();
  rt::EngineOptions options;
  options.num_workers = 2;
  options.placement = policy;
  rt::ShardedStreamClassifier engine(detector(), short_window_config(), std::move(options));

  const std::vector<double> chunk(100, 0.0);
  for (int pid = 0; pid < 100; ++pid) {
    engine.push_samples(pid, chunk);
    EXPECT_TRUE(engine.end_stream(pid));
    EXPECT_FALSE(engine.end_stream(pid)) << "patient " << pid << " has no live stream";
  }
  engine.flush();
  engine.push_samples(1000, chunk);
  EXPECT_EQ(policy->calls.load(), 101);
  EXPECT_EQ(policy->patients_seen, 0u) << "ended streams must not count as live patients";

  // Eviction retires the same way, and is a no-op once the stream is gone.
  engine.evict_patient(1000);
  engine.evict_patient(1000);
  EXPECT_FALSE(engine.end_stream(1000));
  engine.flush();
  engine.push_samples(1001, chunk);
  EXPECT_EQ(policy->patients_seen, 0u);
  engine.flush();
  EXPECT_NO_THROW(engine.set_result_sink({}));
}

// A push that arrives while the patient's end_stream is still queued keeps
// the route: it lands on the same shard, behind the end, and opens a fresh
// stream — the same decisions the single-threaded oracle makes.
TEST(Placement, RepushBeforeEndIsProcessedStaysOnItsShard) {
  const auto first = synth_ecg(45.0, 4100);
  const auto second = synth_ecg(45.0, 4101);
  rt::StreamClassifier oracle(detector(), short_window_config());
  oracle.push_samples(3, first.samples_mv);
  oracle.end_stream(3);
  oracle.push_samples(3, second.samples_mv);
  oracle.end_stream(3);
  const auto want = oracle.flush();
  ASSERT_GT(want.size(), 4u);  // Both streams emit windows.

  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<bool> delivering{false};
  std::mutex got_mutex;
  std::vector<rt::WindowResult> got;
  const auto policy = std::make_shared<RotatingPolicy>();
  rt::EngineOptions options;
  options.num_workers = 2;
  options.placement = policy;
  options.sink = [&](std::span<const rt::WindowResult> batch) {
    delivering = true;
    {
      std::unique_lock<std::mutex> lock(gate_mutex);
      gate_cv.wait(lock, [&] { return gate_open; });
    }
    const std::lock_guard<std::mutex> lock(got_mutex);
    got.insert(got.end(), batch.begin(), batch.end());
  };
  rt::ShardedStreamClassifier engine(detector(), short_window_config(), std::move(options));

  engine.push_samples(3, first.samples_mv);
  while (!delivering) std::this_thread::yield();  // The worker is parked in the sink.
  const std::size_t home = engine.shard_of(3);
  EXPECT_TRUE(engine.end_stream(3));
  engine.push_samples(3, second.samples_mv);  // Before the worker reaches the end.
  EXPECT_EQ(engine.shard_of(3), home);
  EXPECT_EQ(policy->calls.load(), 1) << "a queued end must not re-place the patient";
  {
    const std::lock_guard<std::mutex> lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  EXPECT_TRUE(engine.end_stream(3));
  engine.flush();

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].start_s, want[i].start_s) << i;
    EXPECT_EQ(got[i].decision_value, want[i].decision_value) << i;
  }
}

// --- Lockstep round formation --------------------------------------------------

/// A sink that parks every delivery until release(): holding the workers
/// inside their first delivery lets a test queue a whole backlog, so round
/// formation — not the producer's timing — decides the rounds.
struct DeliveryLatch {
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;
  std::atomic<int> parked{0};

  rt::ResultSink sink() {
    return [this](std::span<const rt::WindowResult>) {
      std::unique_lock<std::mutex> lock(mutex);
      ++parked;
      cv.wait(lock, [&] { return open; });
    };
  }
  void wait_parked(int workers) {
    while (parked.load() < workers) std::this_thread::yield();
  }
  void release() {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      open = true;
    }
    cv.notify_all();
  }
};

/// Drives `patients` streams into an engine whose first `heads` patients
/// (one per worker, placed pid % workers) first push a window-emitting head
/// chunk that parks each worker in the latched sink. Then `cycles` rounds of
/// 4 s chunks are queued round-robin starting at patient `phase`, the latch
/// opens, and the fenced lane counters are returned.
ecg::LaneStats backlogged_lane_stats(std::size_t workers, int patients, int phase,
                                     std::size_t cycles) {
  struct ModuloPolicy final : rt::PlacementPolicy {
    std::size_t place(int pid, std::span<const rt::ShardLoad> shards) override {
      return static_cast<std::size_t>(pid) % shards.size();
    }
  };
  DeliveryLatch latch;
  rt::EngineOptions options;
  options.num_workers = workers;
  options.queue_capacity = 4096;  // The whole backlog fits while the workers are parked.
  options.placement = std::make_shared<ModuloPolicy>();
  options.sink = latch.sink();
  rt::ShardedStreamClassifier engine(detector(), short_window_config(), std::move(options));

  const std::size_t chunk = 1000;  // 4 s at 250 Hz.
  const std::size_t head = 25 * 250;  // Past one 20 s window plus the emission lag.
  std::vector<ecg::EcgWaveform> records;
  std::vector<std::size_t> offset(static_cast<std::size_t>(patients), 0);
  for (int p = 0; p < patients; ++p)
    records.push_back(synth_ecg(45.0, 5000 + static_cast<std::uint64_t>(p)));
  for (std::size_t w = 0; w < workers; ++w) {
    engine.push_samples(static_cast<int>(w),
                        std::span<const double>(records[w].samples_mv).first(head));
    offset[w] = head;
  }
  latch.wait_parked(static_cast<int>(workers));
  for (std::size_t c = 0; c < cycles; ++c) {
    for (int k = 0; k < patients; ++k) {
      const auto p = static_cast<std::size_t>((k + phase) % patients);
      engine.push_samples(static_cast<int>(p),
                          std::span<const double>(records[p].samples_mv).subspan(offset[p], chunk));
      offset[p] += chunk;
    }
  }
  latch.release();
  engine.flush();
  return engine.lane_stats();
}

// One worker, ten patients fed round-robin: a pack of 8 plus a pack of 2,
// so an AVX2 shard offers groups of 4, 4 and 2. Rounds of at most 8 chunks
// straddle the packs whatever the start phase (about 40 of 56 slots used);
// a whole-shard round steps every patient once (10 of 12).
TEST(LaneRounds, WholeShardRoundsFillTheVectorGroups) {
  if (common::simd_effective_tier() == common::SimdTier::kScalar)
    GTEST_SKIP() << "scalar tier: the lane engine forms no vector groups";
  const auto lanes = backlogged_lane_stats(1, 10, 0, 4);
  EXPECT_GT(lanes.vector_samples, 0u);
  EXPECT_GE(lanes.occupancy(), 0.8) << lanes.vector_samples << " of " << lanes.vector_slots;
}

// The ward benchmark's shape — 2 workers, 32 patients, 4 s chunks,
// round-robin — with the round-robin starting mid-pack, as it does once
// start-up shifts the phase: every group of every pack runs full.
TEST(LaneRounds, WardShapedRoundsRunFullGroups) {
  if (common::simd_effective_tier() == common::SimdTier::kScalar)
    GTEST_SKIP() << "scalar tier: the lane engine forms no vector groups";
  const auto lanes = backlogged_lane_stats(2, 32, 3, 4);
  EXPECT_GE(lanes.occupancy(), 0.95) << lanes.vector_samples << " of " << lanes.vector_slots;
}

// --- set_result_sink quiescence fence ----------------------------------------

TEST(WardScheduler, SetResultSinkThrowsWhileWorkInFlight) {
  // A sink that blocks delivery until released: with the worker stuck
  // inside it, the pushed chunk is issued but not settled.
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<bool> delivering{false};

  rt::EngineOptions options;
  options.num_workers = 1;
  options.sink = [&](std::span<const rt::WindowResult>) {
    delivering = true;
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return gate_open; });
  };
  rt::ShardedStreamClassifier engine(detector(), short_window_config(), std::move(options));

  const auto wf = synth_ecg(45.0, 777);  // Long enough to emit windows.
  engine.push_samples(5, wf.samples_mv);
  while (!delivering) std::this_thread::yield();  // Worker is now mid-delivery.
  EXPECT_THROW(engine.set_result_sink({}), std::logic_error);

  {
    const std::lock_guard<std::mutex> lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  engine.end_stream(5);
  engine.flush();
  // Quiescent after the fence: the swap is legal now.
  EXPECT_NO_THROW(engine.set_result_sink({}));
}

// Drop-oldest evictions settle the tasks they discard: once a flush has
// fenced the engine, a chunk that was dropped must not count as in flight,
// or the guard would refuse every later sink swap.
TEST(WardScheduler, SetResultSinkAcceptsAfterDropOldestEvictions) {
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<bool> delivering{false};

  rt::EngineOptions options;
  options.num_workers = 1;
  options.queue_capacity = 2;
  options.backpressure = rt::BackpressurePolicy::kDropOldest;
  options.sink = [&](std::span<const rt::WindowResult>) {
    delivering = true;
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return gate_open; });
  };
  rt::ShardedStreamClassifier engine(detector(), short_window_config(), std::move(options));

  // The first chunk emits windows, parking the worker in the slow sink; the
  // chunks pushed behind it overflow the 2-slot queue.
  const auto wf = synth_ecg(90.0, 779);
  const std::span<const double> samples(wf.samples_mv);
  const std::size_t head = static_cast<std::size_t>(45.0 * 250.0);
  engine.push_samples(5, samples.first(head));
  while (!delivering) std::this_thread::yield();
  const std::size_t chunk = 500;
  for (std::size_t off = head; off + chunk <= samples.size(); off += chunk)
    engine.push_samples(5, samples.subspan(off, chunk));
  EXPECT_GT(engine.dropped_chunks(), 0u);

  {
    const std::lock_guard<std::mutex> lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  engine.flush();
  EXPECT_NO_THROW(engine.set_result_sink({}));
}

// --- Unified engine interface ------------------------------------------------

// Both engines behind rt::Engine: the same driver code streams against
// either, and the uniform stats agree on what was delivered.
TEST(EngineInterface, OracleAndShardedServeTheSameSurface) {
  const auto wf = synth_ecg(45.0, 888);
  std::vector<std::unique_ptr<rt::Engine>> engines;
  engines.push_back(
      std::make_unique<rt::StreamClassifier>(detector(), short_window_config()));
  rt::EngineOptions options;
  options.num_workers = 2;
  engines.push_back(std::make_unique<rt::ShardedStreamClassifier>(
      detector(), short_window_config(), std::move(options)));

  std::vector<double> decisions[2];
  for (std::size_t e = 0; e < engines.size(); ++e) {
    rt::Engine& engine = *engines[e];
    engine.push_samples(9, wf.samples_mv);
    EXPECT_TRUE(engine.end_stream(9));
    auto results = engine.flush();
    for (const auto& r : results) decisions[e].push_back(r.decision_value);
    const auto stats = engine.stats();
    EXPECT_EQ(stats.delivered_windows, results.size());
    EXPECT_EQ(stats.dropped_chunks, 0u);
  }
  ASSERT_FALSE(decisions[0].empty());
  EXPECT_EQ(decisions[0], decisions[1]);  // Bit-identical across engines.
}

}  // namespace
}  // namespace svt

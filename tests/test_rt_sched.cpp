// Sharded-engine routing and control surface: placement policies (consulted
// once per streaming patient, never for ids that only get control calls),
// the set_result_sink quiescence guard (including its accounting of
// drop-oldest evictions), and the rt::Engine interface both engines share.
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

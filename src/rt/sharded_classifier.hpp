// Continuous sharded multi-patient serving engine.
//
// Patients are sharded across N worker threads; each worker owns a private
// WindowExtractor AND classifies its own patients' windows, delivering
// results continuously — there is no global barrier anywhere in the
// steady-state path:
//
//   push_samples(p, chunk)
//        │ route table (placement policy on first sight)
//        ▼                       ┌────────────────────────────────────────┐
//   ┌─────────────┐ coalesced    │ WindowExtractor (lane packs: queued    │
//   │ bounded     │ round: ≤1    │  patients' chunks step SIMD lockstep)  │
//   │ shard queue │ chunk per    │  -> registry snapshot (per batch)      │
//   │ (x N)       │ patient      │  -> prepare + packed batch kernel      │
//   └─────────────┘  block/drop  │  -> ResultSink(batch)   ──────────────────> results
//                                └────────────────────────────────────────┘
//
// Placement: a patient's home shard is decided by the pluggable
// rt::PlacementPolicy once per stream, when the engine first pushes samples
// for the id; the decision is cached in the route table and holds while the
// stream lives. end_stream / evict_patient retire the patient from its
// shard's live count at once, and drop the route when the worker has
// processed the control task — a push that arrives before then stays on
// the same shard, behind the control task; a later one is placed afresh.
// The default FibonacciPlacement reproduces the engine's historical static
// hash; LeastLoadedPlacement spreads wards whose ids collide under it.
//
// Rounds: after popping one chunk, a worker drains every other patient's
// chunk already queued and extracts the round through
// WindowExtractor::push_batch, so a backlogged shard steps its patients'
// identical filter chains per instruction. A round ends at the first
// control task or at a second chunk for a patient already in it (which
// starts the next round), so it never reorders and holds at most one chunk
// per live patient of the shard: a shard fed round-robin runs whole-shard
// rounds, and every vector group of every lane pack steps full.
// lane_stats() reports how full they ran.
//
// Continuous delivery: every chunk that completes windows is classified
// immediately on the shard's worker (per-patient batch affinity) and handed
// to the ResultSink right away. Delivery guarantees:
//
//  * each sink invocation is ONE patient's windows, in time order;
//  * invocations for a given patient arrive in stream order (the patient's
//    chunks are processed serially by the one worker that owns it);
//  * different patients' batches may be delivered concurrently from
//    different workers — the sink must be thread-safe across patients.
//
// Backpressure: each shard queue is bounded (EngineOptions::queue_capacity)
// with a configurable policy — kBlock throttles producers to pipeline
// throughput (lossless), kDropOldest evicts the stalest queued chunk and
// counts it in dropped_chunks() (freshest-data-wins for live monitoring).
// Fences, evictions and end-of-stream markers bypass capacity, so flush()
// works even against saturated queues.
//
// flush() is retained as a drain-and-fence compatibility wrapper: it fences
// every shard (waits until everything pushed before the call has been
// extracted, classified, and delivered) and, when no sink is installed,
// returns the windows collected since the last flush sorted by (patient,
// start time). With a sink installed, flush() is a pure fence and returns
// an empty vector.
//
// Hot-swap fencing: workers snapshot a patient's model from the registry
// once per classified batch, so an install() takes effect at the patient's
// next batch boundary — never mid-batch.
//
// Determinism: a patient's chunks are processed serially by one worker, in
// push order, through per-window arithmetic identical to the
// single-threaded StreamClassifier. Per-patient results are therefore
// bit-identical for ANY worker count, placement, chunk interleaving, or
// delivery mode (asserted by tests/test_rt_shard.cpp,
// test_rt_continuous.cpp, and test_rt_sched.cpp).
//
// Thread-safety contract: push_samples may be called from many threads
// concurrently (and may block under the kBlock policy); flush() must not
// run concurrently with another flush(). Registry installs are safe at any
// time from any thread.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "rt/engine.hpp"
#include "rt/model_registry.hpp"
#include "rt/stream_classifier.hpp"
#include "rt/window_extractor.hpp"
#include "rt/work_queue.hpp"

namespace svt::rt {

class ShardedStreamClassifier final : public Engine {
 public:
  /// Unified constructor: everything beyond the registry and stream config
  /// comes through rt::EngineOptions (worker count, queue sizing, placement,
  /// sink). Throws std::invalid_argument on a null registry or a bad stream
  /// config (same rules as WindowExtractor).
  ShardedStreamClassifier(std::shared_ptr<ModelRegistry> registry, StreamConfig config = {},
                          EngineOptions options = {});

  /// Unified constructor over one cohort-wide detector (the registry holds
  /// it as the workload-0 default; per-patient and per-workload models can
  /// still be installed later).
  ShardedStreamClassifier(const core::TailoredDetector& detector, StreamConfig config,
                          EngineOptions options = {});

  ~ShardedStreamClassifier() override;
  ShardedStreamClassifier(const ShardedStreamClassifier&) = delete;
  ShardedStreamClassifier& operator=(const ShardedStreamClassifier&) = delete;

  /// Install (or clear, with an empty function) the continuous delivery
  /// sink. Prefer EngineOptions::sink at construction; this mutator exists
  /// for drivers that re-point delivery between runs. The engine must be
  /// QUIESCENT — every pushed task processed or dropped by backpressure,
  /// e.g. right after construction or a flush() — because a batch
  /// classified concurrently with the swap could be delivered to either
  /// sink. Throws std::logic_error when work is in flight.
  void set_result_sink(ResultSink sink);

  /// Route a chunk of raw ECG samples (mV) to the patient's shard. Under
  /// kBlock backpressure this may block until the shard drains a chunk; under
  /// kDropOldest it returns immediately (possibly evicting the shard's
  /// stalest queued chunk). Safe to call from multiple threads.
  void push_samples(int patient_id, std::span<const double> samples_mv) override;

  /// Drain-and-fence: wait until every chunk pushed before this call has
  /// been extracted, classified, and delivered. Without a sink, returns the
  /// results collected since the last flush, sorted by (patient, start
  /// time); with a sink, returns empty. Rethrows the first classification
  /// error a worker hit since the last flush (e.g. a patient resolving to
  /// no model). A throwing flush loses nothing: windows other patients
  /// classified successfully stay collected and are returned by the next
  /// flush(). Error-to-fence attribution is best-effort — an error from a
  /// chunk pushed concurrently with this flush may be reported by it or by
  /// the next one.
  std::vector<WindowResult> flush() override;

  /// End a finite patient stream: the owning worker flushes the detector
  /// tail, classifies and delivers the trailing windows the live path holds
  /// back (see WindowExtractor::end_patient), and drops the patient's
  /// stream state. Asynchronous like push_samples: fence with flush() to
  /// wait for the tail delivery. Returns false, and does nothing, for a
  /// patient with no live stream — never pushed samples, or not pushed
  /// since its last end_stream / evict_patient — like StreamClassifier.
  /// Must not race a push_samples for the same patient on another thread:
  /// a push that returned before this call is ended by it, one that starts
  /// after it opens a new stream.
  bool end_stream(int patient_id) override;

  /// Drop a patient's extraction state (detector, beat ring, window phase)
  /// on their shard. Asynchronous: takes effect after chunks already queued
  /// for the shard; fence with flush() for a synchronous guarantee. Frees
  /// memory for patients that left the ward; the registry entry is
  /// untouched, and the route goes like end_stream's. A no-op for a patient
  /// with no live stream (same rule and threading contract as end_stream).
  void evict_patient(int patient_id);

  /// Which shard (worker) serves a patient. For a routed patient (a live
  /// stream, or one whose end is still queued) this reads the route table.
  /// Otherwise it asks the placement policy prospectively — exact for
  /// stateless policies (the default Fibonacci hash), a load-dependent guess
  /// otherwise.
  std::size_t shard_of(int patient_id) const;

  std::size_t num_workers() const { return shards_.size(); }

  /// Windows rejected for having fewer than min_beats R peaks (exact after
  /// a flush; may lag mid-stream while workers are extracting).
  std::size_t rejected_windows() const { return rejected_.load(); }

  /// Sample chunks evicted by the kDropOldest policy across all shards.
  std::size_t dropped_chunks() const;

  /// Windows delivered (to the sink or the collection buffer) so far.
  std::size_t delivered_windows() const { return delivered_.load(); }

  /// Aggregate segment-cache counters (hits / misses / evictions of the
  /// incremental feature pipeline) summed over every shard's extractor.
  /// Quiescent read: fence with flush() first — the extractors are
  /// worker-owned, and the fence is what orders their counters with this
  /// call.
  features::SegmentCacheStats cache_stats() const;

  /// Aggregate lane-engine traffic summed over every shard's extractor:
  /// LaneStats::occupancy() is the share of offered SIMD lockstep slots
  /// that carried a patient sample. Quiescent read like cache_stats():
  /// fence with flush() first.
  ecg::LaneStats lane_stats() const;

  /// Aggregate quality-gate counters summed over every shard's extractor.
  /// All zeros when the gate is off. Quiescent read like cache_stats():
  /// fence with flush() first.
  ecg::QualityStats quality_stats() const;

  /// Uniform counters (rt::Engine). windows_annotated/windows_suppressed
  /// are maintained by worker-side watermarks (like rejected_windows), so
  /// they are safe to read mid-stream and exact after a flush.
  EngineStats stats() const override;

  /// Per-batch delivery latencies in seconds: for every delivered batch,
  /// the time from its chunk's push_samples() submission to the sink (or
  /// collection buffer) receiving the classified windows — under kBlock
  /// backpressure this deliberately includes the producer's wait for queue
  /// space, since that is part of the latency a submitter observes. Bounded:
  /// each shard keeps a fixed-size reservoir of the most recent batches
  /// (kLatencyReservoir), so long-running engines report a recent-window
  /// percentile view at constant memory. Drives the continuous path's
  /// p50/p99 tracking in bench/rt_throughput.
  /// Snapshot is consistent mid-stream (per-shard mutex); for an exact
  /// account of everything pushed, fence with flush() first.
  std::vector<double> delivery_latencies_s() const;

  ModelRegistry& registry() { return *registry_; }
  const ModelRegistry& registry() const { return *registry_; }
  const StreamConfig& config() const { return config_; }
  const EngineOptions& options() const { return options_; }

  /// The resolved workload list (every shard serves the same list; see
  /// StreamConfig::workloads).
  const std::vector<std::shared_ptr<const Workload>>& workloads() const {
    return shards_.front()->extractor.workloads();
  }
  std::size_t num_workloads() const { return workloads().size(); }

 private:
  struct Task {
    int patient_id = 0;
    std::vector<double> samples;
    bool fence = false;
    bool evict = false;
    bool end_stream = false;
    std::chrono::steady_clock::time_point enqueued;  ///< For delivery latency.
  };

  /// Per-worker classification staging, reused across batches so the serve
  /// hot loop is allocation-free once warm (one per shard, worker-only).
  struct ClassifyScratch {
    std::vector<std::vector<double>> rows;  ///< Prepared (selected+scaled) rows.
    std::vector<double> values;
    std::vector<WindowResult> batch;
    std::vector<std::size_t> index;  ///< Batch positions of one workload's windows.
    KernelScratch kernel;
  };

  struct Shard {
    explicit Shard(const StreamConfig& config, const EngineOptions& options)
        : tasks(options.queue_capacity, options.backpressure), extractor(config) {}
    WorkQueue<Task> tasks;
    WindowExtractor extractor;          ///< Touched only by the worker thread.
    ClassifyScratch scratch;            ///< Touched only by the worker thread.
    std::size_t rejected_reported = 0;  ///< Worker-local watermark.
    std::size_t annotated_reported = 0;   ///< Quality watermarks (worker-local,
    std::size_t suppressed_reported = 0;  ///< against the extractor's counters).
    mutable std::mutex latency_mutex;   ///< Guards the latency reservoir.
    std::vector<double> latencies_s;    ///< Most recent delivered batches.
    std::size_t latency_next = 0;       ///< Overwrite cursor once full.
    /// Recycled Task sample buffers: the worker returns each drained chunk's
    /// vector here and push_samples reuses it for the next chunk, so the
    /// steady-state ingest path stops allocating (and, more importantly,
    /// keeps re-copying into the same cache-warm pages instead of marching
    /// through fresh cold memory — a measured ~20x per-chunk cost swing when
    /// the queue is shallow). Leaf lock: never held with another lock.
    std::mutex pool_mutex;
    std::vector<std::vector<double>> sample_pool;
    std::thread worker;
  };
  /// Buffers kept per shard; beyond this they are freed (bounds pool memory
  /// to kSamplePoolCap x chunk size per shard). Sized to cover a bounded
  /// queue's refill burst — a blocked producer wakes when the queue drains
  /// to half of a typical capacity (<= 512), and every push in that burst
  /// should find a recycled buffer rather than a cold allocation.
  static constexpr std::size_t kSamplePoolCap = 64;

  /// Per-shard bound on the delivery-latency reservoir: once full, the
  /// oldest samples are overwritten, so a long-running engine keeps a
  /// recent-window percentile view at fixed memory.
  static constexpr std::size_t kLatencyReservoir = 4096;

  void worker_loop(Shard& shard);
  void classify_batch(int patient_id, std::span<const ExtractedWindow> windows, Shard& shard);
  void record_latency(Shard& shard, std::chrono::steady_clock::time_point enqueued);
  void deliver(std::span<const WindowResult> batch);

  /// Producer side: the patient's shard, consulting the placement policy
  /// and recording the route when the patient has none; counts the patient
  /// live.
  std::size_t route_for_push(int patient_id);

  /// Producer side of end_stream / evict_patient: retire a live patient
  /// from its shard's count and note one more queued control task. Returns
  /// the shard to send it to, or nullopt when the patient is not live.
  std::optional<std::size_t> end_route(int patient_id);

  /// Worker side, after processing an end/evict task: drop the route once
  /// no control task is queued and no push revived the patient.
  void settle_route(int patient_id);

  /// Per-shard load snapshot for the placement policy (route_mutex_ held).
  std::vector<ShardLoad> shard_loads_locked() const;

  std::shared_ptr<ModelRegistry> registry_;
  StreamConfig config_;
  EngineOptions options_;
  std::shared_ptr<PlacementPolicy> placement_;
  std::vector<std::unique_ptr<Shard>> shards_;

  struct Route {
    std::size_t shard = 0;
    bool live = false;  ///< Pushed since its last end/evict; counted per shard.
    std::size_t pending_controls = 0;  ///< End/evict tasks not yet processed.
  };

  // Routing (route_mutex_ is the outer lock: queue mutexes may be taken
  // under it — via size() for the placement snapshot — never the reverse).
  mutable std::mutex route_mutex_;
  std::unordered_map<int, Route> routes_;    ///< Live or ending patients.
  std::vector<std::size_t> shard_patients_;  ///< Live patients per shard.

  // In-flight accounting for set_result_sink's misuse guard: producers count
  // every per-patient task (data, end_stream, evict) before queueing it,
  // workers count it after its results are delivered. Work is in flight
  // unless issued == settled + the queues' dropped() total.
  std::atomic<std::size_t> issued_{0};
  std::atomic<std::size_t> settled_{0};

  // Continuous delivery (sink snapshotted per batch under sink_mutex_).
  std::mutex sink_mutex_;
  std::shared_ptr<const ResultSink> sink_;

  // Compatibility collection buffer (used only when no sink is installed).
  std::mutex collected_mutex_;
  std::vector<WindowResult> collected_;

  // Fence protocol (guarded by fence_mutex_).
  std::mutex fence_mutex_;
  std::condition_variable fence_cv_;
  std::size_t fences_reached_ = 0;  ///< Shards done with the current fence.

  // First classification error since the last flush (guarded by error_mutex_).
  std::mutex error_mutex_;
  std::exception_ptr error_;

  std::atomic<std::size_t> rejected_{0};
  std::atomic<std::size_t> delivered_{0};
  std::atomic<std::size_t> annotated_{0};
  std::atomic<std::size_t> suppressed_{0};
};

}  // namespace svt::rt

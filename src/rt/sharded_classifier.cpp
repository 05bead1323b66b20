#include "rt/sharded_classifier.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>

#include "common/assert.hpp"

namespace svt::rt {

ShardedStreamClassifier::ShardedStreamClassifier(std::shared_ptr<ModelRegistry> registry,
                                                 StreamConfig config, EngineOptions options)
    : registry_(std::move(registry)), config_(config), options_(std::move(options)) {
  if (!registry_)
    throw std::invalid_argument("ShardedStreamClassifier: null model registry");
  if (options_.sink) sink_ = std::make_shared<const ResultSink>(std::move(options_.sink));
  placement_ =
      options_.placement ? options_.placement : std::make_shared<FibonacciPlacement>();
  const std::size_t n = std::max<std::size_t>(options_.num_workers, 1);
  shard_patients_.assign(n, 0);
  shards_.reserve(n);
  for (std::size_t s = 0; s < n; ++s)
    shards_.push_back(std::make_unique<Shard>(config, options_));  // Validates config per shard.
  for (auto& shard : shards_)
    shard->worker = std::thread([this, &owned = *shard] { worker_loop(owned); });
}

ShardedStreamClassifier::ShardedStreamClassifier(const core::TailoredDetector& detector,
                                                 StreamConfig config, EngineOptions options)
    : ShardedStreamClassifier(
          std::make_shared<ModelRegistry>(ServableModel::from_detector(detector)), config,
          std::move(options)) {}

ShardedStreamClassifier::~ShardedStreamClassifier() {
  for (auto& shard : shards_) shard->tasks.close();
  for (auto& shard : shards_)
    if (shard->worker.joinable()) shard->worker.join();
}

void ShardedStreamClassifier::set_result_sink(ResultSink sink) {
  // Read the settle side first: a task is always issued before it is
  // settled or dropped, so a quiescent engine reads equal and a busy one can
  // only read issued ahead.
  const std::size_t done = settled_.load() + dropped_chunks();
  if (issued_.load() != done)
    throw std::logic_error(
        "ShardedStreamClassifier::set_result_sink: work in flight — fence with flush() first");
  const std::lock_guard<std::mutex> lock(sink_mutex_);
  sink_ = sink ? std::make_shared<const ResultSink>(std::move(sink)) : nullptr;
}

std::vector<ShardLoad> ShardedStreamClassifier::shard_loads_locked() const {
  std::vector<ShardLoad> loads(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s)
    loads[s] = ShardLoad{shards_[s]->tasks.size(), shard_patients_[s]};
  return loads;
}

std::size_t ShardedStreamClassifier::shard_of(int patient_id) const {
  const std::lock_guard<std::mutex> lock(route_mutex_);
  const auto it = routes_.find(patient_id);
  if (it != routes_.end()) return it->second.shard;
  // Unrouted patient: ask the policy prospectively without creating a route
  // (exact for stateless policies; a load-dependent guess otherwise).
  return placement_->place(patient_id, shard_loads_locked()) % shards_.size();
}

std::size_t ShardedStreamClassifier::route_for_push(int patient_id) {
  const std::lock_guard<std::mutex> lock(route_mutex_);
  auto it = routes_.find(patient_id);
  if (it == routes_.end()) {
    const std::size_t shard =
        placement_->place(patient_id, shard_loads_locked()) % shards_.size();
    it = routes_.emplace(patient_id, Route{shard}).first;
  }
  Route& route = it->second;
  if (!route.live) {
    route.live = true;
    ++shard_patients_[route.shard];
  }
  return route.shard;
}

std::optional<std::size_t> ShardedStreamClassifier::end_route(int patient_id) {
  const std::lock_guard<std::mutex> lock(route_mutex_);
  const auto it = routes_.find(patient_id);
  if (it == routes_.end() || !it->second.live) return std::nullopt;
  Route& route = it->second;
  route.live = false;
  --shard_patients_[route.shard];
  ++route.pending_controls;
  return route.shard;
}

void ShardedStreamClassifier::settle_route(int patient_id) {
  const std::lock_guard<std::mutex> lock(route_mutex_);
  const auto it = routes_.find(patient_id);
  SVT_ASSERT(it != routes_.end() && it->second.pending_controls > 0);
  // A push since the control task revived the route; otherwise the worker
  // has dropped the patient's state and the next push places it afresh.
  if (--it->second.pending_controls == 0 && !it->second.live) routes_.erase(it);
}

void ShardedStreamClassifier::push_samples(int patient_id,
                                           std::span<const double> samples_mv) {
  const std::size_t shard = route_for_push(patient_id);
  Task task;
  task.patient_id = patient_id;
  {
    // Reuse a drained chunk's buffer (worker returns them after each round):
    // the steady-state ingest path re-copies into the same cache-warm pages
    // instead of allocating fresh cold ones.
    Shard& home = *shards_[shard];
    const std::lock_guard<std::mutex> lock(home.pool_mutex);
    if (!home.sample_pool.empty()) {
      task.samples = std::move(home.sample_pool.back());
      home.sample_pool.pop_back();
    }
  }
  task.samples.assign(samples_mv.begin(), samples_mv.end());
  task.enqueued = std::chrono::steady_clock::now();
  ++issued_;
  shards_[shard]->tasks.push(std::move(task));
}

void ShardedStreamClassifier::evict_patient(int patient_id) {
  // A patient with no live stream has no state left to drop (or its
  // end/evict is already queued); routing it would consult the placement
  // policy and pin a route for a patient that may never stream.
  const auto shard = end_route(patient_id);
  if (!shard) return;
  Task task;
  task.patient_id = patient_id;
  task.evict = true;
  // Control push: an eviction must reach the worker even when producers have
  // the queue saturated, and must never be displaced by drop-oldest.
  ++issued_;
  shards_[*shard]->tasks.push_control(std::move(task));
}

bool ShardedStreamClassifier::end_stream(int patient_id) {
  const auto shard = end_route(patient_id);
  if (!shard) return false;  // No live stream: nothing to end (see evict_patient).
  Task task;
  task.patient_id = patient_id;
  task.end_stream = true;
  task.enqueued = std::chrono::steady_clock::now();
  // Control push, like evictions: the end of a stream must not be dropped.
  ++issued_;
  shards_[*shard]->tasks.push_control(std::move(task));
  return true;
}

std::size_t ShardedStreamClassifier::dropped_chunks() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->tasks.dropped();
  return total;
}

features::SegmentCacheStats ShardedStreamClassifier::cache_stats() const {
  features::SegmentCacheStats total;
  for (const auto& shard : shards_) total += shard->extractor.cache_stats();
  return total;
}

ecg::LaneStats ShardedStreamClassifier::lane_stats() const {
  ecg::LaneStats total;
  for (const auto& shard : shards_) total += shard->extractor.lane_stats();
  return total;
}

ecg::QualityStats ShardedStreamClassifier::quality_stats() const {
  ecg::QualityStats total;
  for (const auto& shard : shards_) total += shard->extractor.quality_stats();
  return total;
}

EngineStats ShardedStreamClassifier::stats() const {
  EngineStats s;
  s.delivered_windows = delivered_.load();
  s.rejected_windows = rejected_.load();
  s.dropped_chunks = dropped_chunks();
  s.windows_annotated = annotated_.load();
  s.windows_suppressed = suppressed_.load();
  return s;
}

void ShardedStreamClassifier::record_latency(Shard& shard,
                                             std::chrono::steady_clock::time_point enqueued) {
  const double latency =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - enqueued).count();
  const std::lock_guard<std::mutex> lock(shard.latency_mutex);
  if (shard.latencies_s.size() < kLatencyReservoir) {
    shard.latencies_s.push_back(latency);
  } else {
    // Reservoir full: overwrite the oldest entry (recent-window view).
    shard.latencies_s[shard.latency_next] = latency;
    shard.latency_next = (shard.latency_next + 1) % kLatencyReservoir;
  }
}

void ShardedStreamClassifier::worker_loop(Shard& shard) {
  std::vector<ExtractedWindow> windows;
  std::vector<Task> round;
  std::unordered_set<int> round_ids;  ///< Patients in the current round.
  std::vector<WindowExtractor::PatientChunk> chunks;
  std::optional<Task> pending;  ///< Popped while coalescing, deferred.
  const auto collect = [&windows](ExtractedWindow&& window) {
    windows.push_back(std::move(window));
  };
  const auto note_rejected = [&] {
    const std::size_t rejected_now = shard.extractor.rejected_windows();
    if (rejected_now != shard.rejected_reported) {
      rejected_ += rejected_now - shard.rejected_reported;
      shard.rejected_reported = rejected_now;
    }
    // Same watermark pattern for the quality-gate counters (the extractor's
    // own monotone event counts, so the delta is never negative).
    if (config_.quality.enable) {
      const std::size_t annotated_now = shard.extractor.annotated_windows();
      if (annotated_now != shard.annotated_reported) {
        annotated_ += annotated_now - shard.annotated_reported;
        shard.annotated_reported = annotated_now;
      }
      const std::size_t suppressed_now = shard.extractor.suppressed_windows();
      if (suppressed_now != shard.suppressed_reported) {
        suppressed_ += suppressed_now - shard.suppressed_reported;
        shard.suppressed_reported = suppressed_now;
      }
    }
  };
  const auto note_error = [&] {
    // Record the first error for the next flush() and keep serving: one
    // patient without a model must not take down the whole shard.
    const std::lock_guard<std::mutex> lock(error_mutex_);
    if (!error_) error_ = std::current_exception();
  };
  for (;;) {
    std::optional<Task> task =
        pending ? std::exchange(pending, std::nullopt) : shard.tasks.wait_pop();
    if (!task) break;  // Closed and drained.
    if (task->fence) {
      {
        const std::lock_guard<std::mutex> lock(fence_mutex_);
        ++fences_reached_;
      }
      fence_cv_.notify_all();
      continue;
    }
    if (task->evict) {
      shard.extractor.erase_patient(task->patient_id);
      settle_route(task->patient_id);
      ++settled_;
      continue;
    }
    if (task->end_stream) {
      windows.clear();
      shard.extractor.end_patient(task->patient_id, collect);
      note_rejected();
      if (!windows.empty()) {
        try {
          classify_batch(task->patient_id, windows, shard);
          record_latency(shard, task->enqueued);
        } catch (...) {
          note_error();
        }
      }
      settle_route(task->patient_id);
      ++settled_;
      continue;
    }

    // Sample chunk: coalesce every other patient's chunk already queued so
    // the extractor steps the round in SIMD lockstep. A control task — or a
    // second chunk for a patient already in the round — ends the round and
    // carries into the next iteration, preserving per-patient stream order
    // and fence ordering. There is no width cap: a backlogged shard fed
    // round-robin hands over one chunk per live patient, which fills every
    // vector group of every pack.
    round.clear();
    round_ids.clear();
    round_ids.insert(task->patient_id);
    round.push_back(std::move(*task));
    while (auto next = shard.tasks.try_pop()) {
      const bool control = next->fence || next->evict || next->end_stream;
      if (control || !round_ids.insert(next->patient_id).second) {
        pending = std::move(next);
        break;
      }
      round.push_back(std::move(*next));
    }

    windows.clear();
    chunks.clear();
    for (const Task& t : round) chunks.push_back({t.patient_id, t.samples});
    shard.extractor.push_batch(chunks, collect);
    note_rejected();

    // Windows land contiguously per patient in round order; each patient's
    // segment is classified and delivered on its own, with the latency clock
    // of that patient's chunk.
    std::size_t begin = 0;
    for (const Task& t : round) {
      std::size_t end = begin;
      while (end < windows.size() && windows[end].patient_id == t.patient_id) ++end;
      if (end > begin) {
        try {
          classify_batch(t.patient_id,
                         std::span<const ExtractedWindow>(windows.data() + begin, end - begin),
                         shard);
          record_latency(shard, t.enqueued);
        } catch (...) {
          note_error();
        }
      }
      begin = end;
    }
    settled_ += round.size();
    {
      // Hand the drained buffers back to the producers (see Shard::sample_pool).
      const std::lock_guard<std::mutex> lock(shard.pool_mutex);
      for (Task& t : round) {
        if (shard.sample_pool.size() >= kSamplePoolCap) break;
        if (t.samples.capacity() > 0) shard.sample_pool.push_back(std::move(t.samples));
      }
    }
  }
}

void ShardedStreamClassifier::classify_batch(int patient_id,
                                             std::span<const ExtractedWindow> windows,
                                             Shard& shard) {
  // All staging lives in the shard's scratch: rows, values and the kernel's
  // transpose/quantise buffers keep their capacity between batches, so the
  // steady-state serve loop performs no heap allocation.
  const std::size_t n = windows.size();
  ClassifyScratch& scratch = shard.scratch;
  auto& batch = scratch.batch;
  batch.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    batch[k].patient_id = patient_id;
    batch[k].start_s = windows[k].start_s;
    batch[k].num_beats = windows[k].num_beats;
    batch[k].workload = windows[k].workload;
    batch[k].quality = windows[k].quality;
  }

  // One batched kernel call per workload: gather that workload's windows in
  // emission order, classify, scatter the values back. A single-workload
  // stream takes exactly one call over the whole batch in emission order —
  // the historical behaviour, bit for bit.
  const std::size_t num_workloads = shard.extractor.num_workloads();
  for (std::uint32_t w = 0; w < num_workloads; ++w) {
    auto& index = scratch.index;
    index.clear();
    for (std::size_t k = 0; k < n; ++k)
      if (windows[k].workload == w) index.push_back(k);
    if (index.empty()) continue;

    // Snapshot the (workload, patient) model once per batch: this is the
    // hot-swap fence. The batch runs to completion on the snapshot even if
    // install() replaces the registry entry mid-batch; the next batch sees
    // the new model.
    const auto model = registry_->resolve(w, patient_id);
    if (!model)
      throw std::runtime_error("ShardedStreamClassifier: no model for workload " +
                               std::to_string(w) + ", patient " +
                               std::to_string(patient_id));

    const std::size_t m = index.size();
    if (scratch.rows.size() < m) scratch.rows.resize(m);
    for (std::size_t k = 0; k < m; ++k)
      model->prepare_row(windows[index[k]].features_view(), scratch.rows[k]);
    const std::span<const std::vector<double>> rows(scratch.rows.data(), m);

    auto& values = scratch.values;
    if (model->quantized()) {
      model->quantized()->dequantized_decisions(rows, scratch.kernel, values);
    } else if (model->packed()) {
      values.resize(m);
      model->packed()->decision_values(rows, values, scratch.kernel);
    } else {
      values.resize(m);
      model->model().decision_values(rows, values);
    }
    for (std::size_t k = 0; k < m; ++k) {
      batch[index[k]].decision_value = values[k];
      batch[index[k]].label = values[k] >= 0.0 ? +1 : -1;
    }
  }
  deliver(batch);
}

std::vector<double> ShardedStreamClassifier::delivery_latencies_s() const {
  std::vector<double> all;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->latency_mutex);
    all.insert(all.end(), shard->latencies_s.begin(), shard->latencies_s.end());
  }
  return all;
}

void ShardedStreamClassifier::deliver(std::span<const WindowResult> batch) {
  std::shared_ptr<const ResultSink> sink;
  {
    const std::lock_guard<std::mutex> lock(sink_mutex_);
    sink = sink_;
  }
  if (sink) {
    (*sink)(batch);
  } else {
    const std::lock_guard<std::mutex> lock(collected_mutex_);
    collected_.insert(collected_.end(), batch.begin(), batch.end());
  }
  delivered_ += batch.size();
}

std::vector<WindowResult> ShardedStreamClassifier::flush() {
  {
    const std::lock_guard<std::mutex> lock(fence_mutex_);
    fences_reached_ = 0;
  }
  Task fence;
  fence.fence = true;
  // Control push: fences bypass queue capacity, so a flush cannot deadlock
  // against a saturated shard queue, and drop-oldest can never evict one.
  for (auto& shard : shards_) shard->tasks.push_control(fence);
  {
    std::unique_lock<std::mutex> lock(fence_mutex_);
    fence_cv_.wait(lock, [this] { return fences_reached_ == shards_.size(); });
  }
  // A worker delivers a chunk's results before popping the next task, so
  // once every fence is visible everything pushed before this flush has been
  // delivered (to the sink, or collected below).
  {
    const std::lock_guard<std::mutex> lock(error_mutex_);
    if (error_) {
      auto error = std::exchange(error_, nullptr);  // The engine stays usable.
      std::rethrow_exception(error);
    }
  }

  std::vector<WindowResult> results;
  {
    const std::lock_guard<std::mutex> lock(collected_mutex_);
    results.swap(collected_);
  }
  std::sort(results.begin(), results.end(), [](const WindowResult& a, const WindowResult& b) {
    if (a.patient_id != b.patient_id) return a.patient_id < b.patient_id;
    if (a.start_s != b.start_s) return a.start_s < b.start_s;
    return a.workload < b.workload;
  });
  return results;
}

}  // namespace svt::rt

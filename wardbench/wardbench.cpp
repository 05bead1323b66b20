// Ward benchmark: drives the serving engine from outside, on three named
// workloads, and checks every decision against the single-threaded oracle.
//
//   wardbench --workload ward-paper|gateway-mixed|cohort-replay
//             --seed N --seconds S --trace 0|1
//
// See README.md in this directory for the workloads, the metrics and the
// layer-to-end-to-end mapping. The last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}; everything above it
// is a human-readable report of every metric with its unit.
//
// Exit codes: 0 = measured, and every decision matched the oracle and the
// ground truth; 1 = some decision failed (the JSON line is still printed,
// with "correct": false); 2 = bad arguments; 3 = the run is invalid (the
// open-loop generator fell behind its schedule, or too few latency
// samples); 4 = an unexpected error.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/tailoring.hpp"
#include "dsp/resample.hpp"
#include "ecg/dataset.hpp"
#include "ecg/ecg_synth.hpp"
#include "ecg/lane_qrs.hpp"
#include "ecg/patient.hpp"
#include "ecg/qrs_detect.hpp"
#include "ecg/quality.hpp"
#include "ecg/rr_model.hpp"
#include "features/ar_features.hpp"
#include "features/extractor.hpp"
#include "features/feature_scratch.hpp"
#include "features/feature_types.hpp"
#include "features/hrv_features.hpp"
#include "features/lorentz_features.hpp"
#include "features/psd_features.hpp"
#include "hw/accelerator_model.hpp"
#include "io/cohort_fixture.hpp"
#include "io/wfdb.hpp"
#include "net/frame.hpp"
#include "net/gateway.hpp"
#include "net/socket.hpp"
#include "rt/cohort_replayer.hpp"
#include "rt/model_registry.hpp"
#include "rt/sharded_classifier.hpp"
#include "rt/stream_classifier.hpp"
#include "rt/window_extractor.hpp"
#include "rt/workload.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

using namespace svt;
using wardbench::Accounting;
using wardbench::DecisionKey;
using wardbench::Tracer;
using Clock = std::chrono::steady_clock;

constexpr double kFs = 250.0;
constexpr std::size_t kWorkers = 2;
/// Shard queue bound (chunks) for every engine: bounded and blocking, so a
/// saturating generator is throttled to pipeline speed.
constexpr std::size_t kQueueCapacity = 256;
/// Timed set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 5;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double resident_mb() {
  std::ifstream statm("/proc/self/statm");
  std::size_t size_pages = 0;
  std::size_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return static_cast<double>(resident_pages) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

/// Samples the resident set every few milliseconds and keeps the peak.
class RssSampler {
 public:
  RssSampler() : baseline_mb_(resident_mb()), peak_mb_(baseline_mb_) {
    thread_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(mutex_);
      while (!stop_) {
        const double mb = resident_mb();
        peak_mb_ = std::max(peak_mb_, mb);
        cv_.wait_for(lock, std::chrono::milliseconds(5));
      }
    });
  }
  ~RssSampler() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  double growth_mb() {
    const std::lock_guard<std::mutex> lock(mutex_);
    peak_mb_ = std::max(peak_mb_, resident_mb());
    return peak_mb_ - baseline_mb_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  double baseline_mb_ = 0.0;
  double peak_mb_ = 0.0;
  std::thread thread_;
};

// --- Arguments and workloads -------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

enum class Kind { kInProcess, kGateway, kReplay };

/// One named workload. Why each exists is recorded in README.md.
struct Spec {
  const char* name;
  Kind kind;
  std::size_t signals;   ///< Distinct synthesized signals (or records).
  std::size_t patients;  ///< Patient streams (signals reused, rotated).
  double signal_s;       ///< Length of each signal.
  double window_s;
  double stride_s;
  double chunk_s;        ///< Telemetry chunk length.
  bool af;               ///< Serve the AF workload next to the seizure one.
  bool gate;             ///< Quality gate on (annotate policy).
  bool quantized;        ///< 9/15-bit fixed-point model (else float packed).
  bool artifacts;        ///< RR-level artifact episodes on every other signal.
  std::size_t paced_rotations;  ///< Paced phase: streams per signal.
  double paced_speed;    ///< Paced phase: x real time per patient.
};

const Spec kSpecs[] = {
    {"ward-paper", Kind::kInProcess, 16, 32, 3600.0, 180.0, 30.0, 4.0, false, false, true, false,
     8, 200.0},
    {"gateway-mixed", Kind::kGateway, 16, 32, 1800.0, 60.0, 5.0, 0.5, true, true, true, true, 2,
     100.0},
    {"cohort-replay", Kind::kReplay, 32, 32, 1800.0, 180.0, 40.0, 4.0, false, false, false,
     false, 8, 100.0},
};

const Spec* find_spec(const std::string& name) {
  for (const auto& s : kSpecs)
    if (name == s.name) return &s;
  return nullptr;
}

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && find_spec(args.workload) != nullptr;
}

// --- Inputs and ground truth -------------------------------------------------

/// One synthesized signal with the synthesizer's ground truth.
struct Signal {
  std::vector<double> mv;
  std::vector<double> beats_s;  ///< True beat times.
  std::vector<ecg::SeizureEvent> seizures;
};

/// A patient stream: signal `signal` started at sample `offset` (wrapping
/// around its end), `length` samples long. Streams that share a signal start
/// at different offsets, so lanes stepped together see different data.
struct Stream {
  int id = 0;
  const Signal* signal = nullptr;
  std::size_t offset = 0;
  std::size_t length = 0;

  /// Samples [begin, begin + count) of the stream; copies into `scratch`
  /// only when the range wraps.
  std::span<const double> chunk(std::size_t begin, std::size_t count,
                                std::vector<double>& scratch) const {
    const std::size_t n = signal->mv.size();
    const std::size_t start = (offset + begin) % n;
    if (start + count <= n) return {signal->mv.data() + start, count};
    scratch.resize(count);
    for (std::size_t i = 0; i < count; ++i) scratch[i] = signal->mv[(start + i) % n];
    return scratch;
  }
};

/// Ground truth in a stream's own time frame.
struct Truth {
  std::vector<double> beats_s;                       ///< Sorted.
  std::vector<std::pair<double, double>> seizures_s;  ///< [onset, end).

  std::size_t beats_in(double a, double b) const {
    return static_cast<std::size_t>(std::lower_bound(beats_s.begin(), beats_s.end(), b) -
                                    std::lower_bound(beats_s.begin(), beats_s.end(), a));
  }
  bool ictal(double a, double b) const {
    for (const auto& [on, off] : seizures_s)
      if (on < b && a < off) return true;
    return false;
  }
};

Truth truth_of(const Stream& s) {
  Truth t;
  const double dur = static_cast<double>(s.signal->mv.size()) / kFs;
  const double shift = static_cast<double>(s.offset) / kFs;
  for (const double b : s.signal->beats_s) {
    if (b >= dur) continue;
    t.beats_s.push_back(b >= shift ? b - shift : b + dur - shift);
  }
  std::sort(t.beats_s.begin(), t.beats_s.end());
  for (const auto& e : s.signal->seizures) {
    const double on = e.onset_s >= shift ? e.onset_s - shift : e.onset_s + dur - shift;
    t.seizures_s.emplace_back(on, on + e.duration_s);
    if (on + e.duration_s > dur) t.seizures_s.emplace_back(on - dur, on + e.duration_s - dur);
  }
  return t;
}

struct Geometry {
  std::size_t window = 0;  ///< Samples.
  std::size_t stride = 0;
  std::size_t chunk = 0;
  std::size_t lag = 0;     ///< Detection lookahead (emission lag), samples.
  std::size_t min_beats = 4;
  std::uint32_t workloads = 1;
};

/// Expected decisions of one stream ended after `pushed` samples: every
/// full window position whose true beat count reaches min_beats, times the
/// workloads.
std::vector<DecisionKey> expected_keys(const Stream& s, const Truth& truth, const Geometry& g,
                                       std::size_t pushed) {
  std::vector<DecisionKey> keys;
  for (std::size_t start = 0; start + g.window <= pushed; start += g.stride) {
    const double a = static_cast<double>(start) / kFs;
    const double b = static_cast<double>(start + g.window) / kFs;
    if (truth.beats_in(a, b) < g.min_beats) continue;
    for (std::uint32_t w = 0; w < g.workloads; ++w)
      keys.push_back({s.id, w, static_cast<std::int64_t>(start)});
  }
  return keys;
}

/// Synthesize one ward signal: baseline physiology with seizures and
/// arousals at seeded times and, for dirty wards, RR-level artifact episodes
/// (dispersed and dropped beats) that the quality gate's RR screening flags.
Signal synth_signal(std::size_t index, const Spec& spec, std::uint64_t seed) {
  std::mt19937_64 rng(seed * 1000003ULL + index);
  const auto cohort = ecg::make_default_cohort();
  const ecg::PatientProfile profile = cohort[index % cohort.size()];
  ecg::SessionEvents events;
  std::uniform_real_distribution<double> jitter(0.0, 1.0);
  // One seizure and one arousal per half hour, placed in alternate quarter
  // hours so they never overlap.
  const double slot = 900.0;
  for (double base = 0.0; base + slot <= spec.signal_s; base += 2.0 * slot) {
    events.seizures.push_back({base + 200.0 + 400.0 * jitter(rng), 90.0 + 60.0 * jitter(rng),
                               0.9 + 0.3 * jitter(rng)});
    events.arousals.push_back({base + slot + 200.0 + 400.0 * jitter(rng), 60.0, 0.8});
  }
  if (spec.artifacts && index % 2 == 1)
    for (double at = 60.0; at + 60.0 < spec.signal_s; at += 300.0)
      events.artifacts.push_back({at + 120.0 * jitter(rng), 30.0, 0.6 + 0.4 * jitter(rng)});
  ecg::SessionSignalParams session;
  session.duration_s = spec.signal_s;
  ecg::EcgSynthParams synth;
  synth.fs_hz = kFs;
  const auto rr = ecg::generate_rr_series(profile, events, session, rng);
  const auto resp = ecg::generate_respiration(profile, events, session, rng);
  const auto wf = ecg::synthesize_ecg(rr, resp, synth, rng);
  Signal s;
  const auto n = std::min(wf.samples_mv.size(), static_cast<std::size_t>(spec.signal_s * kFs));
  s.mv.assign(wf.samples_mv.begin(), wf.samples_mv.begin() + static_cast<std::ptrdiff_t>(n));
  s.beats_s = rr.beat_times_s;
  s.seizures = events.seizures;
  return s;
}

/// The cohort fixture's own truth: io::write_synthetic_cohort draws record
/// i (patient i + 1) from this profile, event list and rng seed.
Signal fixture_truth(std::size_t i, const io::CohortFixtureParams& params) {
  const int patient_id = static_cast<int>(i) + 1;
  ecg::PatientProfile profile;
  profile.id = patient_id;
  profile.baseline_hr_bpm = 66.0 + 4.0 * static_cast<double>(i % 5);
  ecg::SessionEvents events;
  if (params.with_seizures && i % 2 == 1)
    events.seizures.push_back({0.4 * params.duration_s, 0.3 * params.duration_s, 1.2});
  ecg::SessionSignalParams session;
  session.duration_s = params.duration_s;
  std::mt19937_64 rng(params.seed + static_cast<std::uint64_t>(patient_id));
  Signal s;
  s.beats_s = ecg::generate_rr_series(profile, events, session, rng).beat_times_s;
  s.seizures = events.seizures;
  return s;
}

// --- Models ------------------------------------------------------------------

/// The paper's detector, tailored on the synthetic training cohort through
/// the RR-level path (as examples/seizure_monitor.cpp does): HRV + Lorentz
/// features, which the QRS front end rebuilds faithfully. The training
/// cohort is the library's fixed default: the deployed model is part of the
/// system under test, and only the ward it serves varies with --seed.
core::TailoredDetector tailor(const ecg::Dataset& dataset, bool quantized) {
  const auto matrix = features::extract_feature_matrix(dataset);
  core::TailoringConfig config;
  for (std::size_t j = 0; j < features::kNumHrvFeatures + features::kNumLorentzFeatures; ++j)
    config.explicit_features.push_back(j);
  config.sv_budget = 100;
  if (!quantized) config.quant.reset();
  return core::tailor_detector(matrix.samples, matrix.labels, config);
}

ecg::Dataset training_cohort() {
  ecg::DatasetParams params;
  params.windows_per_session = 12;
  return ecg::generate_dataset(params);
}

rt::StreamConfig stream_config(const Spec& spec) {
  rt::StreamConfig config;
  config.fs_hz = kFs;
  config.window_s = spec.window_s;
  config.stride_s = spec.stride_s;
  if (spec.af) config.workloads = {rt::apnea_workload(), rt::af_workload()};
  config.quality.enable = spec.gate;
  config.quality.policy = ecg::QualityPolicy::kAnnotate;
  return config;
}

std::vector<rt::ServableModel> served_models(const Spec& spec,
                                             const core::TailoredDetector& detector) {
  std::vector<rt::ServableModel> models{rt::ServableModel::from_detector(detector)};
  if (spec.af) models.push_back(rt::synthetic_af_model());
  return models;
}

std::shared_ptr<rt::ModelRegistry> make_registry(std::vector<rt::ServableModel> models) {
  auto registry = std::make_shared<rt::ModelRegistry>();
  for (std::uint32_t w = 0; w < models.size(); ++w) registry->set_default(w, std::move(models[w]));
  return registry;
}

// --- Oracle ------------------------------------------------------------------

/// The single-threaded StreamClassifier fed each stream's chunks; every
/// stream is ended so all full windows classify.
std::vector<rt::WindowResult> run_oracle(const std::vector<rt::ServableModel>& models,
                                         const rt::StreamConfig& config,
                                         const std::vector<Stream>& streams, std::size_t chunk) {
  rt::StreamClassifier oracle(models, config);
  std::vector<double> buf;
  std::vector<rt::WindowResult> out;
  for (const auto& s : streams) {
    for (std::size_t at = 0; at < s.length; at += chunk) {
      oracle.push_samples(s.id, s.chunk(at, std::min(chunk, s.length - at), buf));
    }
    oracle.end_stream(s.id);
    auto part = oracle.flush();
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

// --- Decision collection -----------------------------------------------------

/// A delivered decision and when it reached the benchmark.
struct Arrival {
  rt::WindowResult result;
  Clock::time_point at;
};

/// Thread-safe sink target for the in-process engine.
class Collector {
 public:
  void add(std::span<const rt::WindowResult> batch) {
    const auto now = Clock::now();
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& r : batch) arrivals_.push_back({r, now});
    batch_sizes_.push_back(batch.size());
  }
  std::vector<Arrival> take() {
    const std::lock_guard<std::mutex> lock(mutex_);
    batch_sizes_.clear();
    return std::exchange(arrivals_, {});
  }
  std::vector<std::size_t> batch_sizes() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return batch_sizes_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Arrival> arrivals_;
  std::vector<std::size_t> batch_sizes_;
};

std::vector<rt::WindowResult> results_of(const std::vector<Arrival>& arrivals) {
  std::vector<rt::WindowResult> out;
  out.reserve(arrivals.size());
  for (const auto& a : arrivals) out.push_back(a.result);
  return out;
}

/// One gateway connection from the benchmark: the caller's thread sends,
/// a receiver thread decodes frames and stamps each decision's arrival.
class WireClient {
 public:
  explicit WireClient(const net::Endpoint& endpoint) : socket_(net::connect_to(endpoint)) {
    net::append_hello(sendbuf_, net::HelloFrame{});
    flush();
    receiver_ = std::thread([this] { receive_loop(); });
  }
  ~WireClient() {
    socket_.shutdown_both();
    receiver_.join();
  }
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  bool wait_ack() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return acked_ || closed_; });
    return acked_;
  }
  void open(int pid) { net::append_stream_open(sendbuf_, {pid, kFs}); }
  void send(int pid, std::span<const double> samples) {
    net::append_sample_chunk(sendbuf_, pid, samples);
    if (sendbuf_.size() >= 64 * 1024) flush();
  }
  void end(int pid) { net::append_end_stream(sendbuf_, {pid}); }
  bool flush() {
    if (sendbuf_.empty()) return true;
    const bool ok = socket_.send_all(sendbuf_);
    sendbuf_.clear();
    if (!ok) send_failed_ = true;
    return ok;
  }
  /// kBye, then wait for the fenced stats answer: every decision owed has
  /// arrived. Returns false on a refusal, a malformed frame, a failed send
  /// or a lost connection.
  bool finish() {
    net::append_bye(sendbuf_);
    flush();
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return have_stats_ || closed_; });
    return have_stats_ && !error_ && !send_failed_;
  }
  std::vector<Arrival> take() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(arrivals_, {});
  }

 private:
  void receive_loop() {
    net::FrameDecoder decoder;
    std::vector<std::uint8_t> buf(64 * 1024);
    bool done = false;
    while (!done) {
      const std::ptrdiff_t n = socket_.recv_some(buf);
      if (n <= 0) break;
      const auto now = Clock::now();
      decoder.feed(std::span<const std::uint8_t>(buf.data(), static_cast<std::size_t>(n)));
      net::FrameDecoder::Frame frame;
      for (;;) {
        const auto status = decoder.next(frame);
        if (status == net::FrameDecoder::Status::kNeedMore) break;
        if (status == net::FrameDecoder::Status::kError) {
          const std::lock_guard<std::mutex> lock(mutex_);
          error_ = true;
          done = true;
          break;
        }
        const std::lock_guard<std::mutex> lock(mutex_);
        if (frame.type == net::FrameType::kHelloAck) {
          acked_ = true;
        } else if (frame.type == net::FrameType::kDecision) {
          net::DecisionBatchView batch;
          if (!net::parse_decisions(frame.payload, batch)) {
            error_ = true;
            continue;
          }
          for (std::size_t i = 0; i < batch.num_decisions; ++i) {
            const auto rec = batch.record(i);
            rt::WindowResult r;
            r.patient_id = batch.patient_id;
            r.start_s = rec.start_s;
            r.decision_value = rec.decision_value;
            r.label = rec.label;
            r.num_beats = rec.num_beats;
            r.workload = rec.workload;
            r.quality = rec.quality;
            arrivals_.push_back({r, now});
          }
        } else if (frame.type == net::FrameType::kStats) {
          have_stats_ = true;
        } else if (frame.type == net::FrameType::kError) {
          error_ = true;
          done = true;
        }
        cv_.notify_all();
        if (done) break;
      }
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    cv_.notify_all();
  }

  net::Socket socket_;
  std::vector<std::uint8_t> sendbuf_;
  bool send_failed_ = false;  ///< Sender thread only, read after finish().
  std::thread receiver_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool acked_ = false;
  bool have_stats_ = false;
  bool error_ = false;
  bool closed_ = false;
  std::vector<Arrival> arrivals_;
};

// --- The served system -------------------------------------------------------

/// Everything set-up builds: the engine, gateway or replayer ready for its
/// first sample, and the served detector's shape and modelled cost.
struct Served {
  Collector collector;
  std::unique_ptr<rt::ShardedStreamClassifier> engine;
  std::unique_ptr<net::ServeGateway> gateway;
  net::Endpoint endpoint;
  std::unique_ptr<rt::CohortReplayer> replayer;
  std::size_t support_vectors = 0;
  hw::CostReport cost;

  /// The sharded engine doing the work, whichever entry point owns it.
  rt::ShardedStreamClassifier& engine_ref() {
    if (gateway) return gateway->engine();
    if (replayer) return replayer->engine();
    return *engine;
  }
};

struct SetupTimes {
  double total_s = 0.0;
  double tailor_s = 0.0;
  double pack_s = 0.0;
  double start_s = 0.0;
};

std::string socket_path() {
  return ".bench_build/wardbench-" + std::to_string(getpid()) + ".sock";
}

/// Build the served system from the training cohort: tailor, pack, build the
/// registry, construct and start the engine (or gateway, or replayer).
std::unique_ptr<Served> set_up(const Spec& spec, const ecg::Dataset& training,
                               SetupTimes& times, Tracer& tracer) {
  auto served = std::make_unique<Served>();
  const auto t0 = Clock::now();
  std::optional<core::TailoredDetector> detector;
  {
    Tracer::Scope span(tracer, "core.tailor");
    detector = tailor(training, spec.quantized);
  }
  const auto t1 = Clock::now();
  std::shared_ptr<rt::ModelRegistry> registry;
  {
    Tracer::Scope span(tracer, "rt.model_pack");
    registry = make_registry(served_models(spec, *detector));
  }
  const auto t2 = Clock::now();
  {
    Tracer::Scope span(tracer, "rt.engine_start");
    rt::EngineOptions options;
    options.num_workers = kWorkers;
    options.queue_capacity = kQueueCapacity;
    options.backpressure = rt::BackpressurePolicy::kBlock;
    const auto config = stream_config(spec);
    if (spec.kind == Kind::kInProcess) {
      Collector* collector = &served->collector;
      options.sink = [collector](std::span<const rt::WindowResult> batch) {
        collector->add(batch);
      };
      served->engine = std::make_unique<rt::ShardedStreamClassifier>(registry, config, options);
    } else if (spec.kind == Kind::kGateway) {
      net::GatewayOptions gw;
      gw.engine = options;
      gw.num_workers = kWorkers;
      served->gateway = std::make_unique<net::ServeGateway>(registry, config, gw);
      served->endpoint = served->gateway->add_listener(net::Endpoint::unix_path(socket_path()));
      served->gateway->start();
      // Ready when a client's handshake completes.
      WireClient probe(served->endpoint);
      if (!probe.wait_ack()) throw std::runtime_error("gateway refused the handshake");
      probe.finish();
    } else {
      Collector* collector = &served->collector;
      options.sink = [collector](std::span<const rt::WindowResult> batch) {
        collector->add(batch);
      };
      served->replayer = std::make_unique<rt::CohortReplayer>(registry, config, options);
    }
  }
  const auto t3 = Clock::now();
  served->support_vectors = detector->model().num_support_vectors();
  served->cost = detector->hardware_cost();
  times.tailor_s = seconds_between(t0, t1);
  times.pack_s = seconds_between(t1, t2);
  times.start_s = seconds_between(t2, t3);
  times.total_s = seconds_between(t0, t3);
  return served;
}

// --- Phases ------------------------------------------------------------------

struct PassResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t samples = 0;
  double push_s = 0.0;  ///< Generator time inside push/send calls.
  std::vector<Arrival> arrivals;
  std::vector<std::size_t> batch_sizes;
  std::size_t protocol_errors = 0;
};

/// Saturating pass, closed loop: push every stream's chunks round-robin as
/// fast as the bounded queue accepts, end every stream, and wait until every
/// decision has been delivered.
PassResult saturating_pass(Served& served, const Spec& spec, const std::vector<Stream>& streams,
                           const Geometry& g, const std::string& cohort_dir) {
  PassResult pass;
  std::vector<double> buf;
  std::size_t max_len = 0;
  for (const auto& s : streams) max_len = std::max(max_len, s.length);
  if (spec.kind == Kind::kReplay) {
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    served.replayer->replay_directory(cohort_dir);
    const auto t1 = Clock::now();
    pass.cpu_s = process_cpu_s() - cpu0;
    pass.wall_s = seconds_between(t0, t1);
    for (const auto& s : streams) pass.samples += s.length;
    pass.batch_sizes = served.collector.batch_sizes();
    pass.arrivals = served.collector.take();
    return pass;
  }
  std::vector<std::unique_ptr<WireClient>> clients;
  if (spec.kind == Kind::kGateway) {
    for (int c = 0; c < 2; ++c) {
      clients.push_back(std::make_unique<WireClient>(served.endpoint));
      if (!clients.back()->wait_ack()) throw std::runtime_error("gateway refused the handshake");
    }
    for (std::size_t i = 0; i < streams.size(); ++i) clients[i % 2]->open(streams[i].id);
    for (auto& c : clients) c->flush();
  }
  auto& engine = served.engine_ref();
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  for (std::size_t at = 0; at < max_len; at += g.chunk) {
    for (std::size_t i = 0; i < streams.size(); ++i) {
      const auto& s = streams[i];
      if (at >= s.length) continue;
      const auto samples = s.chunk(at, std::min(g.chunk, s.length - at), buf);
      const auto p0 = Clock::now();
      if (spec.kind == Kind::kGateway)
        clients[i % 2]->send(s.id, samples);
      else
        engine.push_samples(s.id, samples);
      pass.push_s += seconds_between(p0, Clock::now());
      pass.samples += samples.size();
    }
  }
  if (spec.kind == Kind::kGateway) {
    for (std::size_t i = 0; i < streams.size(); ++i) clients[i % 2]->end(streams[i].id);
    for (auto& c : clients)
      if (!c->finish()) ++pass.protocol_errors;
  } else {
    for (const auto& s : streams) engine.end_stream(s.id);
    engine.flush();
  }
  const auto t1 = Clock::now();
  pass.cpu_s = process_cpu_s() - cpu0;
  pass.wall_s = seconds_between(t0, t1);
  if (spec.kind == Kind::kGateway) {
    for (auto& c : clients) {
      auto part = c->take();
      pass.arrivals.insert(pass.arrivals.end(), part.begin(), part.end());
    }
  } else {
    pass.batch_sizes = served.collector.batch_sizes();
    pass.arrivals = served.collector.take();
  }
  return pass;
}

struct PacedResult {
  std::vector<double> latencies_ms;
  std::vector<double> engine_latencies_s;  ///< The engine's delivery ring.
  std::vector<double> lags_ms;
  std::size_t samples = 0;
  double wall_s = 0.0;
  std::vector<Arrival> arrivals;
  std::size_t protocol_errors = 0;
  std::size_t pushed = 0;  ///< Samples per stream.
};

/// Paced phase, open loop: stream s's chunk c is due at
///   t0 + (c + 1) * period + s * period / streams
/// (period = chunk length / speed), whatever the engine does. Each chunk is
/// sent at its due time; lateness is recorded per chunk. A decision's
/// latency runs from the due time of the chunk that completes its window's
/// detection lookahead until it reaches the benchmark.
PacedResult paced_phase(Served& served, const Spec& spec, std::vector<Stream> streams,
                        const Geometry& g, double wall_budget_s) {
  PacedResult out;
  const double period_s = static_cast<double>(g.chunk) / kFs / spec.paced_speed;
  std::size_t chunks = static_cast<std::size_t>(wall_budget_s / period_s);
  chunks = std::min(chunks, streams.front().length / g.chunk);
  out.pushed = chunks * g.chunk;
  for (auto& s : streams) s.length = out.pushed;

  std::vector<std::unique_ptr<WireClient>> clients;
  if (spec.kind == Kind::kGateway) {
    for (int c = 0; c < 2; ++c) {
      clients.push_back(std::make_unique<WireClient>(served.endpoint));
      if (!clients.back()->wait_ack()) throw std::runtime_error("gateway refused the handshake");
    }
    for (std::size_t i = 0; i < streams.size(); ++i) clients[i % 2]->open(streams[i].id);
    for (auto& c : clients) c->flush();
  }
  const auto period = std::chrono::duration<double>(period_s);
  const auto due_of = [&](Clock::time_point t0, std::size_t c, std::size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    period * (static_cast<double>(c + 1) +
                              static_cast<double>(i) / static_cast<double>(streams.size())));
  };
  std::vector<double> buf;
  const auto t0 = Clock::now();
  for (std::size_t c = 0; c < chunks; ++c) {
    for (std::size_t i = 0; i < streams.size(); ++i) {
      const auto due = due_of(t0, c, i);
      auto now = Clock::now();
      if (now < due) {
        // Flush what is queued before sleeping so nothing waits in a buffer.
        for (auto& cl : clients) cl->flush();
        std::this_thread::sleep_until(due);
        now = Clock::now();
      }
      out.lags_ms.push_back(1e3 * seconds_between(due, now));
      const auto samples = streams[i].chunk(c * g.chunk, g.chunk, buf);
      if (spec.kind == Kind::kGateway)
        clients[i % 2]->send(streams[i].id, samples);
      else
        served.engine_ref().push_samples(streams[i].id, samples);
      out.samples += samples.size();
    }
  }
  for (auto& cl : clients) cl->flush();
  out.wall_s = seconds_between(t0, Clock::now());
  // The engine's own ring, before ending the streams queues their tails.
  out.engine_latencies_s = served.engine_ref().delivery_latencies_s();
  // The session ends every stream (its trailing windows classify) and
  // waits for every decision.
  if (spec.kind == Kind::kGateway) {
    for (std::size_t i = 0; i < streams.size(); ++i) clients[i % 2]->end(streams[i].id);
    for (auto& cl : clients)
      if (!cl->finish()) ++out.protocol_errors;
    for (auto& cl : clients) {
      auto part = cl->take();
      out.arrivals.insert(out.arrivals.end(), part.begin(), part.end());
    }
  } else {
    auto& engine = served.engine_ref();
    for (const auto& s : streams) engine.end_stream(s.id);
    engine.flush();
    out.arrivals = served.collector.take();
  }
  std::map<int, std::size_t> index_of;
  for (std::size_t i = 0; i < streams.size(); ++i) index_of[streams[i].id] = i;
  for (const auto& a : out.arrivals) {
    // Latency counts live decisions only: those whose worst-case lookahead
    // a pushed chunk completed (the rest came from ending the stream). The
    // completing chunk is that one, or an earlier one (never before the
    // chunk holding the window's last sample) when the detector's frontier
    // ran ahead and the decision arrived before it was due.
    const auto start = static_cast<std::size_t>(std::llround(a.result.start_s * kFs));
    if (start + g.window + g.lag > out.pushed) continue;
    const std::size_t last = (start + g.window - 1) / g.chunk;
    const std::size_t i = index_of.at(a.result.patient_id);
    std::size_t c = (start + g.window + g.lag + g.chunk - 1) / g.chunk - 1;
    while (c > last && due_of(t0, c, i) > a.at) --c;
    out.latencies_ms.push_back(1e3 * seconds_between(due_of(t0, c, i), a.at));
  }
  return out;
}

// --- Quality -----------------------------------------------------------------

/// Seizure-workload decisions against annotated seizures: a window is
/// positive when it overlaps one.
svm::ConfusionMatrix score(const std::vector<rt::WindowResult>& results,
                           const std::map<int, Truth>& truth, const Geometry& g) {
  svm::ConfusionMatrix cm;
  for (const auto& r : results) {
    if (r.workload != 0) continue;
    const auto& t = truth.at(r.patient_id);
    const bool ictal = t.ictal(r.start_s, r.start_s + static_cast<double>(g.window) / kFs);
    if (ictal)
      (r.label > 0 ? cm.tp : cm.fn)++;
    else
      (r.label > 0 ? cm.fp : cm.tn)++;
  }
  return cm;
}

// --- Output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const auto& m : metrics)
    if (!std::isfinite(m.value)) throw std::runtime_error("metric " + m.name + " is not finite");
  for (const auto& m : metrics)
    std::printf("  %-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

// --- Inputs ------------------------------------------------------------------

/// A set of patient streams and their ground truth by patient id.
struct Ward {
  std::vector<Stream> streams;
  std::map<int, Truth> truth;
  std::size_t samples = 0;
};

/// `rotations` streams per signal, each starting at a different offset.
Ward rotated_ward(const std::vector<Signal>& signals, std::size_t rotations) {
  Ward w;
  for (std::size_t i = 0; i < signals.size() * rotations; ++i) {
    const Signal& sig = signals[i % signals.size()];
    const std::size_t offset = (i / signals.size()) * (sig.mv.size() / rotations);
    w.streams.push_back({static_cast<int>(i) + 1, &sig, offset, sig.mv.size()});
  }
  for (const auto& s : w.streams) {
    w.truth[s.id] = truth_of(s);
    w.samples += s.length;
  }
  return w;
}

struct Inputs {
  std::vector<Signal> signals;
  Ward saturating;         ///< Streams of the saturating phase.
  Ward paced;              ///< Streams of the paced phase.
  std::string cohort_dir;  ///< WFDB cohort (cohort-replay only).
};

/// Generate the workload's inputs from the seed. Everything the engine sees
/// comes from here; the truth comes from the synthesizer, not the engine.
Inputs make_inputs(const Spec& spec, std::uint64_t seed) {
  Inputs in;
  if (spec.kind == Kind::kReplay) {
    in.cohort_dir = ".bench_build/wardbench-cohort-" + std::to_string(getpid());
    std::filesystem::remove_all(in.cohort_dir);
    io::CohortFixtureParams params;
    params.num_patients = spec.signals;
    params.duration_s = spec.signal_s;
    params.fs_hz = kFs;
    params.seed = seed * 7919ULL + 11ULL;
    const auto records = io::write_synthetic_cohort(in.cohort_dir, params);
    for (std::size_t i = 0; i < records.size(); ++i) {
      Signal s = fixture_truth(i, params);
      s.mv = io::read_record(in.cohort_dir, records[i].name).signal_mv(records[i].ecg_channel);
      in.signals.push_back(std::move(s));
      if (records[i].patient_id != static_cast<int>(i) + 1)
        throw std::runtime_error("cohort fixture numbering changed");
    }
  } else {
    for (std::size_t i = 0; i < spec.signals; ++i)
      in.signals.push_back(synth_signal(i, spec, seed));
  }
  in.saturating = rotated_ward(in.signals, spec.patients / spec.signals);
  in.paced = rotated_ward(in.signals, spec.paced_rotations);
  return in;
}

Geometry geometry_of(const Spec& spec) {
  Geometry g;
  const rt::WindowExtractor probe(stream_config(spec));
  g.window = probe.window_samples();
  g.stride = probe.stride_samples();
  g.lag = probe.emission_lag_samples();
  g.min_beats = probe.config().min_beats;
  g.workloads = static_cast<std::uint32_t>(probe.num_workloads());
  g.chunk = static_cast<std::size_t>(spec.chunk_s * kFs);
  return g;
}

/// Expected decisions of a ward whose streams all end after `pushed`
/// samples.
std::vector<DecisionKey> expected_all(const Ward& ward, const Geometry& g, std::size_t pushed) {
  std::vector<DecisionKey> keys;
  for (const auto& s : ward.streams) {
    auto part = expected_keys(s, ward.truth.at(s.id), g, std::min(pushed, s.length));
    keys.insert(keys.end(), part.begin(), part.end());
  }
  return keys;
}

struct Report {
  std::vector<Metric> metrics;
  Accounting acct;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Remove the run's files from the checkout whatever happens.
struct Cleanup {
  std::string dir;
  std::string socket;
  ~Cleanup() {
    std::error_code ec;
    if (!dir.empty()) std::filesystem::remove_all(dir, ec);
    if (!socket.empty()) std::filesystem::remove(socket, ec);
  }
};

double msamples_per_s(std::size_t samples, double seconds) {
  return seconds > 0.0 ? 1e-6 * static_cast<double>(samples) / seconds : 0.0;
}

// --- Layer replay (traced run) -----------------------------------------------

struct LayerReplay {
  double extract_s = 0.0;
  double classify_s = 0.0;
  double wall_s = 0.0;
  std::size_t windows = 0;    ///< Extracted windows (all workloads).
  std::size_t positions = 0;  ///< Window positions.
  features::SegmentCacheStats cache;
  std::vector<rt::WindowResult> results;
  std::vector<std::pair<int, std::size_t>> batch_spans;  ///< (patient, size) per batch.
};

/// The oracle's work, layer by layer, through the modules' public API:
/// rt::WindowExtractor::push_batch on each telemetry round (QRS lanes, gate,
/// features), then each patient's new windows classified as one batch per
/// workload (ServableModel::prepare_row + the packed or fixed-point kernel),
/// the batch the engine's sink would see.
LayerReplay layer_replay(const std::vector<rt::ServableModel>& models,
                         const rt::StreamConfig& config, const std::vector<Stream>& streams,
                         std::size_t chunk, Tracer& tracer) {
  LayerReplay out;
  rt::WindowExtractor extractor(config);
  std::vector<rt::ExtractedWindow> emitted;
  const rt::WindowSink sink = [&emitted](rt::ExtractedWindow&& w) {
    emitted.push_back(std::move(w));
  };
  std::vector<std::vector<double>> bufs(streams.size());
  std::vector<rt::WindowExtractor::PatientChunk> round;
  std::vector<std::vector<double>> rows;
  std::vector<double> values;
  rt::KernelScratch kernel;

  const auto classify = [&] {
    Tracer::Scope span(tracer, "rt.classify");
    const auto t0 = Clock::now();
    std::size_t begin = 0;
    while (begin < emitted.size()) {
      std::size_t end = begin;
      while (end < emitted.size() && emitted[end].patient_id == emitted[begin].patient_id) ++end;
      for (std::uint32_t w = 0; w < models.size(); ++w) {
        const auto& model = models[w];
        std::vector<std::size_t> index;
        for (std::size_t k = begin; k < end; ++k)
          if (emitted[k].workload == w) index.push_back(k);
        if (index.empty()) continue;
        if (rows.size() < index.size()) rows.resize(index.size());
        for (std::size_t k = 0; k < index.size(); ++k)
          model.prepare_row(emitted[index[k]].features_view(), rows[k]);
        const std::span<const std::vector<double>> batch(rows.data(), index.size());
        if (model.quantized()) {
          model.quantized()->dequantized_decisions(batch, kernel, values);
        } else {
          values.resize(index.size());
          model.packed()->decision_values(batch, values, kernel);
        }
        for (std::size_t k = 0; k < index.size(); ++k) {
          const auto& e = emitted[index[k]];
          rt::WindowResult r;
          r.patient_id = e.patient_id;
          r.start_s = e.start_s;
          r.decision_value = values[k];
          r.label = values[k] >= 0.0 ? +1 : -1;
          r.num_beats = e.num_beats;
          r.workload = e.workload;
          r.quality = e.quality;
          out.results.push_back(r);
        }
      }
      out.batch_spans.emplace_back(emitted[begin].patient_id, end - begin);
      begin = end;
    }
    out.windows += emitted.size();
    emitted.clear();
    out.classify_s += seconds_between(t0, Clock::now());
  };

  Tracer::Scope root(tracer, "replay");
  const auto t0 = Clock::now();
  std::size_t max_len = 0;
  for (const auto& s : streams) max_len = std::max(max_len, s.length);
  for (std::size_t at = 0; at < max_len; at += chunk) {
    round.clear();
    for (std::size_t i = 0; i < streams.size(); ++i)
      if (at < streams[i].length)
        round.push_back({streams[i].id,
                         streams[i].chunk(at, std::min(chunk, streams[i].length - at), bufs[i])});
    {
      Tracer::Scope span(tracer, "rt.extract");
      const auto e0 = Clock::now();
      extractor.push_batch(round, sink);
      out.extract_s += seconds_between(e0, Clock::now());
    }
    if (!emitted.empty()) classify();
  }
  for (const auto& s : streams) {
    {
      Tracer::Scope span(tracer, "rt.extract");
      const auto e0 = Clock::now();
      extractor.end_patient(s.id, sink);
      out.extract_s += seconds_between(e0, Clock::now());
    }
    if (!emitted.empty()) classify();
  }
  out.wall_s = seconds_between(t0, Clock::now());
  out.positions = out.windows / models.size();
  out.cache = extractor.cache_stats();
  return out;
}

/// Write the first `count` streams as WFDB records (alternating formats 212
/// and 16, as the cohort fixture does) so io decode is timed on the
/// workload's own signals. Returns the record names.
std::vector<std::string> write_records(const std::string& dir, const std::vector<Stream>& streams,
                                       std::size_t count) {
  std::filesystem::create_directories(dir);
  std::vector<std::string> names;
  std::vector<double> buf;
  for (std::size_t i = 0; i < std::min(count, streams.size()); ++i) {
    const auto& s = streams[i];
    std::string name = "w";
    name += std::to_string(s.id);
    io::SignalSpec spec;
    spec.format = i % 2 == 0 ? 212 : 16;
    spec.file_name = name + ".dat";
    spec.adc_gain = 200.0;
    spec.adc_resolution = spec.format == 212 ? 12 : 16;
    io::RecordHeader header;
    header.record_name = name;
    header.fs_hz = kFs;
    header.signals.push_back(spec);
    const auto mv = s.chunk(0, s.length, buf);
    io::write_record(dir, header, {io::quantize_signal_mv(mv, spec)});
    names.push_back(name);
  }
  return names;
}

/// Per-window feature entry points, timed on windows of the workload's own
/// streams (batch QRS detection of each window's samples, as the seed
/// pipeline did): the from-scratch work a segment-cache miss pays.
void trace_features(const std::vector<Stream>& streams, const Geometry& g,
                    const rt::StreamConfig& config, Tracer& tracer, Report& report) {
  struct Window {
    ecg::QrsDetection qrs;
    ecg::RrSeries rr;
    ecg::RespirationSeries edr;
  };
  std::vector<Window> windows;
  std::vector<double> buf;
  for (std::size_t i = 0; i < std::min<std::size_t>(4, streams.size()); ++i) {
    for (std::size_t k = 0; k < 8; ++k) {
      const std::size_t start = k * g.window;
      if (start + g.window > streams[i].length) break;
      ecg::EcgWaveform wf;
      wf.fs_hz = kFs;
      const auto mv = streams[i].chunk(start, g.window, buf);
      wf.samples_mv.assign(mv.begin(), mv.end());
      Window w;
      w.qrs = ecg::detect_qrs(wf);
      if (w.qrs.size() < g.min_beats) continue;
      w.rr = w.qrs.to_rr_series();
      w.edr = w.qrs.to_edr(config.edr_fs_hz);
      windows.push_back(std::move(w));
    }
  }
  if (windows.empty()) throw std::runtime_error("no windows to time feature layers on");
  features::FeatureScratch scratch;
  std::array<double, features::kNumHrvFeatures + features::kNumLorentzFeatures> rr_out{};
  std::array<double, features::kNumPsdFeatures> psd_out{};
  std::array<double, features::kNumArFeatures> ar_out{};
  std::vector<double> edr_buf;
  double edr_start = 0.0;
  double sink = 0.0;
  constexpr int kReps = 20;
  const auto time_layer = [&](const char* name, const auto& body) {
    Tracer::Scope span(tracer, name);
    const auto t0 = Clock::now();
    for (int rep = 0; rep < kReps; ++rep)
      for (const auto& w : windows) body(w);
    return 1e6 * seconds_between(t0, Clock::now()) /
           static_cast<double>(kReps * windows.size());
  };
  report.add("features.rr_us", time_layer("features.rr", [&](const Window& w) {
               features::compute_hrv_features(
                   w.rr.rr_s, scratch, std::span(rr_out).first(features::kNumHrvFeatures));
               features::compute_lorentz_features(
                   w.rr.rr_s, scratch, std::span(rr_out).subspan(features::kNumHrvFeatures));
               sink += rr_out[0];
             }),
             "us");
  report.add("features.edr_us", time_layer("features.edr", [&](const Window& w) {
               dsp::resample_linear_into(w.qrs.r_peak_times_s, w.qrs.r_amplitudes_mv,
                                         config.edr_fs_hz, edr_start, edr_buf);
               sink += edr_buf.empty() ? 0.0 : edr_buf[0];
             }),
             "us");
  report.add("features.welch_us", time_layer("features.welch", [&](const Window& w) {
               features::compute_psd_features(w.edr.values, config.edr_fs_hz, scratch, psd_out);
               sink += psd_out[0];
             }),
             "us");
  report.add("features.burg_us", time_layer("features.burg", [&](const Window& w) {
               features::compute_ar_features(w.edr.values, scratch, ar_out);
               sink += ar_out[0];
             }),
             "us");
  if (std::isnan(sink)) std::printf("  (feature checksum is NaN)\n");
}

/// The traced run's per-layer metrics: bench-side counts from the
/// end-to-end phases just run, plus spans around calls into each module's
/// public API replayed on a subset of the workload's own streams.
void trace_layers(const Spec& spec, const Args& args, const Inputs& in, const Geometry& g,
                  const rt::StreamConfig& config, const std::vector<rt::ServableModel>& models,
                  Served& served, const SetupTimes& times, double oracle_s,
                  std::size_t total_samples, double push_s, double pass_wall_s,
                  const std::vector<std::size_t>& sink_batches,
                  const PacedResult& paced,
                  const svm::ConfusionMatrix& cm, std::size_t protocol_errors, Tracer& tracer,
                  Report& report) {
  constexpr std::size_t kSubset = 8;
  const auto& streams = in.saturating.streams;
  const auto subset_end =
      streams.begin() + static_cast<std::ptrdiff_t>(std::min(kSubset, streams.size()));
  const std::vector<Stream> subset(streams.begin(), subset_end);
  std::size_t subset_samples = 0;
  for (const auto& s : subset) subset_samples += s.length;
  std::vector<double> buf;

  // ecg: the lane QRS detector on telemetry rounds, packs of kMaxLanes.
  {
    double qrs_s = 0.0;
    std::uint64_t vec = 0, scal = 0;
    const std::size_t lanes = ecg::LaneQrsDetector::kMaxLanes;
    for (std::size_t base = 0; base < subset.size(); base += lanes) {
      ecg::LaneQrsDetector detector(kFs);
      std::vector<const Stream*> members;
      std::vector<std::size_t> lane_of;
      for (std::size_t i = base; i < std::min(base + lanes, subset.size()); ++i) {
        members.push_back(&subset[i]);
        lane_of.push_back(detector.add_lane());
      }
      std::vector<std::vector<double>> bufs(members.size());
      std::vector<ecg::LaneQrsDetector::LaneChunk> chunks;
      for (std::size_t at = 0; at < members.front()->length; at += g.chunk) {
        chunks.clear();
        for (std::size_t m = 0; m < members.size(); ++m)
          if (at < members[m]->length)
            chunks.push_back({lane_of[m], members[m]->chunk(
                                              at, std::min(g.chunk, members[m]->length - at),
                                              bufs[m])});
        Tracer::Scope span(tracer, "ecg.qrs");
        const auto t0 = Clock::now();
        detector.push(chunks);
        qrs_s += seconds_between(t0, Clock::now());
      }
      vec += detector.vector_samples();
      scal += detector.scalar_samples();
    }
    report.add("ecg.qrs_ns_per_sample", 1e9 * qrs_s / static_cast<double>(subset_samples), "ns");
    report.add("ecg.lane_vector_fraction",
               vec + scal == 0 ? 0.0 : static_cast<double>(vec) / static_cast<double>(vec + scal),
               "ratio");
  }

  // ecg: the quality gate's scan over the same chunks.
  {
    ecg::QualityConfig qc = config.quality;
    qc.enable = true;
    double gate_s = 0.0;
    for (const auto& s : subset) {
      ecg::SignalQualityGate gate(qc, kFs);
      for (std::size_t at = 0; at < s.length; at += g.chunk) {
        const auto samples = s.chunk(at, std::min(g.chunk, s.length - at), buf);
        Tracer::Scope span(tracer, "ecg.gate");
        const auto t0 = Clock::now();
        gate.scan(samples, static_cast<std::int64_t>(at));
        gate_s += seconds_between(t0, Clock::now());
      }
    }
    report.add("ecg.gate_ns_per_sample", 1e9 * gate_s / static_cast<double>(subset_samples), "ns");
  }

  // rt: extraction and classification, untraced / traced / untraced, then
  // the single-threaded oracle on the same subset: the ledger.
  Tracer off(spec.name, false);
  const auto replay_off1 = layer_replay(models, config, subset, g.chunk, off);
  const auto replay = layer_replay(models, config, subset, g.chunk, tracer);
  const auto replay_off2 = layer_replay(models, config, subset, g.chunk, off);
  {
    // The replay is the oracle's work by another route: same decisions.
    Tracer::Scope span(tracer, "rt.oracle_subset");
    const auto ref = run_oracle(models, config, subset, g.chunk);
    const Accounting a = wardbench::account({}, replay.results, ref, kFs);
    if (a.mismatched + a.duplicates > 0 || replay.results.size() != ref.size())
      throw std::runtime_error("layer replay disagrees with the oracle");
  }
  const double windows = static_cast<double>(std::max<std::size_t>(1, replay.windows));
  report.add("rt.extract_us_per_window", 1e6 * replay_off1.extract_s / windows, "us");
  report.add("rt.classify_us_per_window", 1e6 * replay_off1.classify_s / windows, "us");
  report.add("features.cache_hit_rate", replay.cache.hit_rate(), "ratio");
  {
    std::vector<double> sizes;
    if (!sink_batches.empty())
      for (const auto b : sink_batches) sizes.push_back(static_cast<double>(b));
    else
      for (const auto& [pid, n] : replay.batch_spans) sizes.push_back(static_cast<double>(n));
    double sum = 0.0;
    for (const double v : sizes) sum += v;
    report.add("rt.batch_windows_mean",
               sizes.empty() ? 0.0 : sum / static_cast<double>(sizes.size()),
               "count");
  }
  // AF marginal cost per window position: the same subset with and without
  // the AF workload.
  {
    auto variant_config = config;
    std::vector<rt::ServableModel> variant_models{models.front()};
    if (spec.af) {
      variant_config.workloads.clear();
    } else {
      variant_config.workloads = {rt::apnea_workload(), rt::af_workload()};
      variant_models.push_back(rt::synthetic_af_model());
    }
    // The difference is a few percent of extraction, so take the median of
    // three alternating pairs.
    std::vector<double> diffs;
    for (int pair = 0; pair < 3; ++pair) {
      const auto base = layer_replay(models, config, subset, g.chunk, off);
      const auto variant = layer_replay(variant_models, variant_config, subset, g.chunk, off);
      const double main_s = base.extract_s + base.classify_s;
      const double var_s = variant.extract_s + variant.classify_s;
      diffs.push_back(spec.af ? main_s - var_s : var_s - main_s);
    }
    const double dual_minus_single = wardbench::median(diffs);
    report.add("rt.af_marginal_us_per_position",
               1e6 * dual_minus_single /
                   static_cast<double>(std::max<std::size_t>(1, replay.positions)),
               "us");
  }
  report.add("rt.push_blocked_fraction", pass_wall_s > 0.0 ? push_s / pass_wall_s : 0.0, "ratio");
  report.add("rt.engine_delivery_p99_ms",
             paced.engine_latencies_s.empty()
                 ? 0.0
                 : 1e3 * wardbench::percentile(paced.engine_latencies_s, 99.0),
             "ms");
  report.add("rt.oracle_msamples_s", msamples_per_s(total_samples, oracle_s), "Msamples/s");

  // net: frame encode/decode of the subset's chunks, decision encode of the
  // replay's batches.
  {
    double enc_s = 0.0, dec_s = 0.0;
    std::size_t bytes = 0, decoded = 0;
    std::vector<std::uint8_t> wire;
    std::vector<double> samples_out;
    net::FrameDecoder decoder;
    std::vector<std::vector<double>> bufs(subset.size());
    for (std::size_t at = 0; at < subset.front().length; at += g.chunk) {
      wire.clear();
      {
        Tracer::Scope span(tracer, "net.encode");
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < subset.size(); ++i)
          if (at < subset[i].length)
            net::append_sample_chunk(
                wire, subset[i].id,
                subset[i].chunk(at, std::min(g.chunk, subset[i].length - at), bufs[i]));
        enc_s += seconds_between(t0, Clock::now());
      }
      bytes += wire.size();
      Tracer::Scope span(tracer, "net.decode");
      const auto t0 = Clock::now();
      for (std::size_t off_b = 0; off_b < wire.size(); off_b += 64 * 1024) {
        decoder.feed(std::span<const std::uint8_t>(wire).subspan(
            off_b, std::min<std::size_t>(64 * 1024, wire.size() - off_b)));
        net::FrameDecoder::Frame frame;
        while (decoder.next(frame) == net::FrameDecoder::Status::kFrame) {
          net::SampleChunkView view;
          if (!net::parse_sample_chunk(frame.payload, view))
            throw std::runtime_error("sample chunk failed to parse");
          view.copy_samples(samples_out);
          decoded += samples_out.size();
        }
      }
      dec_s += seconds_between(t0, Clock::now());
    }
    if (decoded != subset_samples) throw std::runtime_error("decoded sample count differs");
    const double n = static_cast<double>(subset_samples);
    report.add("net.encode_ns_per_sample", 1e9 * enc_s / n, "ns");
    report.add("net.decode_ns_per_sample", 1e9 * dec_s / n, "ns");
    report.add("net.wire_bytes_per_sample", static_cast<double>(bytes) / n, "B");

    std::vector<net::DecisionRecord> records;
    std::size_t pos = 0, dbytes = 0;
    double denc_s = 0.0;
    {
      Tracer::Scope span(tracer, "net.decision_encode");
      for (const auto& [pid, count] : replay.batch_spans) {
        wire.clear();
        const auto t0 = Clock::now();
        records.clear();
        for (std::size_t k = 0; k < count; ++k) {
          const auto& r = replay.results[pos + k];
          records.push_back({r.start_s, r.decision_value, r.label,
                             static_cast<std::uint32_t>(r.num_beats), r.workload, r.quality});
        }
        net::append_decisions(wire, pid, records);
        denc_s += seconds_between(t0, Clock::now());
        dbytes += wire.size();
        pos += count;
      }
    }
    report.add("net.decision_encode_ns_per_window", 1e9 * denc_s / static_cast<double>(pos), "ns");
    report.add("net.wire_bytes_per_decision",
               static_cast<double>(dbytes) / static_cast<double>(pos), "B");
    double send_p99 = 0.0;
    std::size_t errors = protocol_errors;
    if (served.gateway) {
      const auto lat = served.gateway->delivery_latencies_s();
      if (!lat.empty()) send_p99 = 1e3 * wardbench::percentile(lat, 99.0);
      errors += served.gateway->stats().protocol_errors;
    }
    report.add("net.send_p99_ms", send_p99, "ms");
    report.add("net.protocol_errors", static_cast<double>(errors), "count");
  }

  // io: WFDB decode of the workload's records (written from its own
  // streams on the non-replay workloads).
  {
    std::string dir = in.cohort_dir;
    std::vector<std::string> names;
    Cleanup scratch_dir;
    if (dir.empty()) {
      dir = ".bench_build/wardbench-io-" + std::to_string(getpid());
      scratch_dir.dir = dir;
      names = write_records(dir, subset, 4);
    } else {
      names = io::read_records_index(dir);
    }
    std::size_t samples = 0;
    double io_s = 0.0;
    for (const auto& name : names) {
      Tracer::Scope span(tracer, "io.decode");
      const auto t0 = Clock::now();
      const auto record = io::read_record(dir, name);
      io_s += seconds_between(t0, Clock::now());
      samples += record.header.num_samples * record.header.num_signals();
    }
    report.add("io.decode_msamples_s", msamples_per_s(samples, io_s), "Msamples/s");
  }

  trace_features(subset, g, config, tracer, report);

  report.add("core.tailor_s", times.tailor_s, "s");
  report.add("rt.model_pack_ms", 1e3 * times.pack_s, "ms");
  report.add("rt.engine_start_ms", 1e3 * times.start_s, "ms");
  report.add("quality.se", cm.sensitivity(), "ratio");
  report.add("quality.sp", cm.specificity(), "ratio");
  report.add("quality.failed_fraction", report.acct.failed_fraction(), "ratio");
  report.add("svm.support_vectors", static_cast<double>(served.support_vectors), "count");
  report.add("hw.latency_us", served.cost.latency_us, "us");
  report.add("loadgen.lag_p99_ms", wardbench::percentile(paced.lags_ms, 99.0), "ms");
  // Open-loop latency: reported here, without a bound, because on a shared
  // virtual machine it follows the host's scheduling stalls (README.md).
  report.add("paced.latency_p50_ms", wardbench::percentile(paced.latencies_ms, 50.0), "ms");
  report.add("paced.latency_p99_ms", wardbench::percentile(paced.latencies_ms, 99.0), "ms");
  report.add("loadgen.offered_msamples_s", msamples_per_s(paced.samples, paced.wall_s),
             "Msamples/s");

  // Hostile input the engine does not survive today, measured here rather
  // than in the end-to-end workloads (whose operations must all succeed):
  // one non-finite sample, or one rail-hitting electrode pop (a 50-sample
  // 8.5 mV plateau), in the middle of the first subset stream. Each reports
  // the share of the subset's expected decisions lost, through the oracle —
  // what failed_fraction would carry on a ward where one patient in eight
  // sends such a sample.
  const auto lost_fraction = [&](double value, std::size_t width, std::uint64_t* spans) {
    Signal poisoned = *subset.front().signal;
    const std::size_t n = poisoned.mv.size();
    const std::size_t mid = subset.front().offset + subset.front().length / 2;
    for (std::size_t i = mid; i < mid + width; ++i) poisoned.mv[i % n] = value;
    std::vector<Stream> probe = subset;
    probe.front().signal = &poisoned;
    if (spans != nullptr) {
      ecg::QualityConfig qc = config.quality;
      qc.enable = true;
      ecg::SignalQualityGate gate(qc, kFs);
      for (std::size_t at = 0; at < probe.front().length; at += g.chunk)
        gate.scan(probe.front().chunk(at, std::min(g.chunk, probe.front().length - at), buf),
                  static_cast<std::int64_t>(at));
      *spans = gate.stats().artifact_spans;
    }
    const auto delivered = run_oracle(models, config, probe, g.chunk);
    std::vector<DecisionKey> expected;
    for (const auto& s : probe) {
      auto part = expected_keys(s, in.saturating.truth.at(s.id), g, s.length);
      expected.insert(expected.end(), part.begin(), part.end());
    }
    const auto a = wardbench::account(expected, delivered, delivered, kFs);
    return static_cast<double>(a.missing) /
           static_cast<double>(std::max<std::size_t>(1, a.expected));
  };
  std::uint64_t pop_spans = 0;
  report.add("quality.nonfinite_lost_fraction",
             lost_fraction(std::numeric_limits<double>::quiet_NaN(), 1, nullptr), "ratio");
  report.add("quality.pop_lost_fraction", lost_fraction(8.5, 50, &pop_spans), "ratio");
  report.add("ecg.artifact_spans", static_cast<double>(pop_spans), "count");

  // The ledger: the traced replay is the oracle's computation through the
  // modules' API (checked decision-identical above); the residue is the
  // share of its time no layer span accounts for.
  const auto totals = tracer.totals();
  const double layers_s = totals.at("rt.extract").self_s + totals.at("rt.classify").self_s;
  report.add("trace.residue_fraction", 1.0 - layers_s / totals.at("replay").total_s, "ratio");
  report.add("trace.overhead_fraction",
             replay.wall_s / (0.5 * (replay_off1.wall_s + replay_off2.wall_s)) - 1.0, "ratio");

  const std::string path = ".bench_build/wardbench-trace-" + std::string(spec.name) + "-" +
                           std::to_string(args.seed) + ".jsonl";
  if (!tracer.write_jsonl(path)) throw std::runtime_error("cannot write " + path);
  std::printf("wardbench: %zu spans written to %s\n", tracer.records().size(), path.c_str());
}

// --- Run ---------------------------------------------------------------------

void check_pass(const std::vector<Arrival>& arrivals, const std::vector<DecisionKey>& expected,
                const std::vector<rt::WindowResult>& oracle, std::size_t protocol_errors,
                Accounting& acct) {
  acct += wardbench::account(expected, results_of(arrivals), oracle, kFs, protocol_errors);
}

int run(const Args& args) {
  const Spec& spec = *find_spec(args.workload);
  std::filesystem::create_directories(".bench_build");
  Cleanup cleanup;
  cleanup.socket = socket_path();

  // Inputs, truth and the oracle's answers: prepared before anything is
  // timed and before the memory baseline.
  Inputs in = make_inputs(spec, args.seed);
  cleanup.dir = in.cohort_dir;
  const ecg::Dataset training = training_cohort();
  const Geometry g = geometry_of(spec);
  const rt::StreamConfig config = stream_config(spec);
  Tracer tracer(spec.name, args.trace);
  const std::vector<rt::ServableModel> oracle_models =
      served_models(spec, tailor(training, spec.quantized));
  const std::size_t total_samples = in.saturating.samples;
  std::vector<rt::WindowResult> oracle;
  double oracle_s = 0.0;
  {
    Tracer::Scope span(tracer, "rt.oracle");
    const auto t0 = Clock::now();
    oracle = run_oracle(oracle_models, config, in.saturating.streams, g.chunk);
    oracle_s = seconds_between(t0, Clock::now());
  }
  const auto expected_full = expected_all(in.saturating, g, static_cast<std::size_t>(-1));

  Report report;
  auto rss = std::make_unique<RssSampler>();

  // Set-up, timed several times; the last one serves.
  std::vector<double> setup_s;
  SetupTimes times;
  std::unique_ptr<Served> served;
  const int setups = args.trace ? 1 : kSetupRepeats;
  for (int k = 0; k < setups; ++k) {
    served.reset();
    served = set_up(spec, training, times, tracer);
    setup_s.push_back(times.total_s);
  }

  const auto measure_t0 = Clock::now();
  const double budget_s = args.seconds;
  const auto elapsed = [&] { return seconds_between(measure_t0, Clock::now()); };

  // Saturating phase: a warm-up pass (cold pages and pools), then passes
  // until the budget is spent (the traced run stops after two).
  std::vector<double> ingest, cpu_ms_ph;
  double push_s = 0.0, pass_wall_s = 0.0;
  std::vector<std::size_t> batch_sizes;
  std::vector<rt::WindowResult> scored;
  std::size_t protocol_errors = 0;
  for (int pass_no = 0;; ++pass_no) {
    auto pass = saturating_pass(*served, spec, in.saturating.streams, g, in.cohort_dir);
    check_pass(pass.arrivals, expected_full, oracle, pass.protocol_errors, report.acct);
    protocol_errors += pass.protocol_errors;
    if (pass_no == 0) {
      scored = results_of(pass.arrivals);
      continue;
    }
    ingest.push_back(msamples_per_s(pass.samples, pass.wall_s));
    const double patient_hours = static_cast<double>(pass.samples) / kFs / 3600.0;
    cpu_ms_ph.push_back(1e3 * pass.cpu_s / patient_hours);
    push_s += pass.push_s;
    pass_wall_s += pass.wall_s;
    batch_sizes.insert(batch_sizes.end(), pass.batch_sizes.begin(), pass.batch_sizes.end());
    if (args.trace ? pass_no >= 2 : pass_no >= 3 && elapsed() >= budget_s) break;
  }
  const auto cm = score(scored, in.saturating.truth, g);
  const double rss_growth = rss->growth_mb();
  rss.reset();

  if (!args.trace) {
    report.add("setup_s", wardbench::median(setup_s), "s");
    report.add("ingest_msamples_s", wardbench::median(ingest), "Msamples/s");
    report.add("cpu_ms_per_patient_hour", wardbench::median(cpu_ms_ph), "ms");
    report.add("delivered_fraction",
               report.acct.expected == 0 ? 0.0 : 1.0 - report.acct.failed_fraction(), "ratio");
    report.add("decision_gm", std::sqrt(cm.sensitivity() * cm.specificity()), "ratio");
    report.add("model_energy_nj", served->cost.energy.total_nj, "nJ");
    report.add("engine_rss_mb", rss_growth, "MB");
  } else {
    // Paced phase on a fresh engine, so the engine's own delivery-latency
    // ring holds only paced batches when it is read.
    Tracer off(spec.name, false);
    SetupTimes unused;
    served.reset();
    served = set_up(spec, training, unused, off);
    const auto paced = paced_phase(*served, spec, in.paced.streams, g, 0.25 * budget_s);
    {
      // The paced session ends every stream after its prefix: its own oracle.
      std::vector<Stream> prefix = in.paced.streams;
      for (auto& s : prefix) s.length = std::min(s.length, paced.pushed);
      check_pass(paced.arrivals, expected_all(in.paced, g, paced.pushed),
                 run_oracle(oracle_models, config, prefix, g.chunk), paced.protocol_errors,
                 report.acct);
    }
    protocol_errors += paced.protocol_errors;
    const double period_ms = 1e3 * static_cast<double>(g.chunk) / kFs / spec.paced_speed;
    std::string invalid;
    if (!wardbench::percentile_supported(paced.latencies_ms.size(), 99.0)) {
      invalid = "only " + std::to_string(paced.latencies_ms.size()) +
                " latency samples: too few for a p99";
    } else {
      // Fell behind: late most of the time, or still a period late over the
      // last 1% of the schedule. Isolated stalls show in lag_p99 and in the
      // latencies instead.
      const auto& lags = paced.lags_ms;
      const double median_lag = wardbench::median(lags);
      const double final_lag = wardbench::median(
          std::vector<double>(lags.end() - static_cast<std::ptrdiff_t>(1 + lags.size() / 100),
                              lags.end()));
      if (median_lag > 0.25 * period_ms || final_lag > period_ms)
        invalid = "generator fell behind its schedule: median lag " +
                  std::to_string(median_lag) + " ms, final lag " + std::to_string(final_lag) +
                  " ms, chunk period " + std::to_string(period_ms) + " ms";
    }
    if (!invalid.empty()) {
      std::fprintf(stderr, "wardbench: run invalid: %s\n", invalid.c_str());
      return 3;
    }
    trace_layers(spec, args, in, g, config, oracle_models, *served, times, oracle_s,
                 total_samples, push_s, pass_wall_s, batch_sizes, paced, cm, protocol_errors,
                 tracer, report);
    std::printf("  paced: %zu decisions, latency p50 %.3f / p90 %.3f / p99 %.3f ms\n",
                paced.latencies_ms.size(), wardbench::percentile(paced.latencies_ms, 50.0),
                wardbench::percentile(paced.latencies_ms, 90.0),
                wardbench::percentile(paced.latencies_ms, 99.0));
  }

  std::printf("wardbench %s seed %llu: %zu measured saturating passes (Msamples/s): min %.2f, "
              "median %.2f, max %.2f\n",
              spec.name, static_cast<unsigned long long>(args.seed), ingest.size(),
              *std::min_element(ingest.begin(), ingest.end()), wardbench::median(ingest),
              *std::max_element(ingest.begin(), ingest.end()));
  std::printf("  set-ups (s):");
  for (const double v : setup_s) std::printf(" %.4f", v);
  std::printf("\n");
  std::printf("  decisions: expected %zu, delivered %zu, missing %zu, mismatched %zu, "
              "unexpected %zu, duplicates %zu, protocol errors %zu\n",
              report.acct.expected, report.acct.delivered, report.acct.missing,
              report.acct.mismatched, report.acct.unexpected, report.acct.duplicates,
              report.acct.protocol_errors);
  served.reset();
  const bool correct = report.acct.failed() == 0;
  print_result(correct, report.acct.expected, report.acct.failed(), report.metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: wardbench --workload ward-paper|gateway-mixed|cohort-replay "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wardbench: %s\n", e.what());
    return 4;
  }
}

// StreamingQrsDetector: bit-exact parity with the batch Pan-Tompkins
// detector over whole records under any chunking, finality-frontier
// semantics, beat-ring maintenance, and the WindowExtractor built on top:
// its refusal of geometries without a whole-EDR-point chunk of at least
// 2 s, RR features at the shortest accepted chunk, held-back tail windows,
// scratch reuse and eviction.
//
// Window features are checked against one continuous detection of the
// whole record — NOT the seed extractor's per-window re-detection, whose
// window-local threshold re-learning the incremental engine deliberately
// abandons (see docs/runtime.md, "Semantics change"). The chunked feature
// pipeline's own semantics and parity oracle live in
// tests/test_rt_feature_cache.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "ecg/ecg_synth.hpp"
#include "ecg/qrs_detect.hpp"
#include "ecg/rr_model.hpp"
#include "ecg/streaming_qrs.hpp"
#include "features/feature_scratch.hpp"
#include "features/feature_types.hpp"
#include "features/hrv_features.hpp"
#include "features/lorentz_features.hpp"
#include "features/segment_cache.hpp"
#include "rt/window_extractor.hpp"

namespace svt {
namespace {

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

/// Feed a waveform through a streaming detector in pseudo-random chunks.
void push_chunked(ecg::StreamingQrsDetector& detector, const ecg::EcgWaveform& wf,
                  std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> chunk_dist(1, 700);
  std::span<const double> rest(wf.samples_mv);
  while (!rest.empty()) {
    const std::size_t n = std::min(chunk_dist(rng), rest.size());
    detector.push(rest.first(n));
    rest = rest.subspan(n);
  }
}

void expect_beats_equal_batch(const ecg::StreamingQrsDetector& detector,
                              const ecg::QrsDetection& batch, double fs) {
  const auto& ring = detector.beats();
  ASSERT_EQ(ring.size(), batch.size());
  for (std::size_t i = 0; i < ring.size(); ++i) {
    // Bit-exact: same raw-sample index, hence the identical time double.
    EXPECT_EQ(static_cast<double>(ring[i].sample_index) / fs, batch.r_peak_times_s[i]) << i;
    EXPECT_EQ(ring[i].amplitude_mv, batch.r_amplitudes_mv[i]) << i;
  }
}

TEST(StreamingQrsDetector, BitExactVsBatchOnWholeRecords) {
  for (const std::uint64_t seed : {11u, 23u, 31u}) {
    const auto wf = synth_ecg(60.0, seed);
    const auto batch = ecg::detect_qrs(wf);
    ASSERT_GT(batch.size(), 40u) << "seed " << seed;

    ecg::StreamingQrsDetector streaming(wf.fs_hz);
    push_chunked(streaming, wf, seed + 1000);
    streaming.finish();
    expect_beats_equal_batch(streaming, batch, wf.fs_hz);
  }
}

TEST(StreamingQrsDetector, ChunkSizeDoesNotChangeBeats) {
  const auto wf = synth_ecg(45.0, 5);
  ecg::StreamingQrsDetector whole(wf.fs_hz);
  whole.push(wf.samples_mv);
  whole.finish();

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{37}, std::size_t{997}}) {
    ecg::StreamingQrsDetector chunked(wf.fs_hz);
    std::span<const double> rest(wf.samples_mv);
    while (!rest.empty()) {
      const std::size_t n = std::min(chunk, rest.size());
      chunked.push(rest.first(n));
      rest = rest.subspan(n);
    }
    chunked.finish();
    ASSERT_EQ(chunked.beats().size(), whole.beats().size()) << "chunk " << chunk;
    for (std::size_t i = 0; i < whole.beats().size(); ++i) {
      EXPECT_EQ(chunked.beats()[i].sample_index, whole.beats()[i].sample_index);
      EXPECT_EQ(chunked.beats()[i].amplitude_mv, whole.beats()[i].amplitude_mv);
    }
  }
}

TEST(StreamingQrsDetector, RecordShorterThanLearningPeriod) {
  // 1.2 s < the 2 s learning period: finish() must replicate the batch
  // detector's shrunken learning head.
  const auto wf = synth_ecg(1.2, 7);
  const auto batch = ecg::detect_qrs(wf);
  ecg::StreamingQrsDetector streaming(wf.fs_hz);
  streaming.push(wf.samples_mv);
  streaming.finish();
  expect_beats_equal_batch(streaming, batch, wf.fs_hz);
}

TEST(StreamingQrsDetector, FinalityFrontierNeverRecants) {
  // Beats before final_through() must never change as more samples arrive.
  const auto wf = synth_ecg(30.0, 13);
  ecg::StreamingQrsDetector streaming(wf.fs_hz);
  std::vector<ecg::Beat> finalized;
  std::span<const double> rest(wf.samples_mv);
  while (!rest.empty()) {
    const std::size_t n = std::min<std::size_t>(333, rest.size());
    streaming.push(rest.first(n));
    rest = rest.subspan(n);
    const auto frontier = streaming.final_through();
    const auto& ring = streaming.beats();
    std::size_t final_count = 0;
    while (final_count < ring.size() && ring[final_count].sample_index < frontier)
      ++final_count;
    ASSERT_GE(final_count, finalized.size()) << "frontier moved backwards";
    for (std::size_t i = 0; i < finalized.size(); ++i) {
      EXPECT_EQ(ring[i].sample_index, finalized[i].sample_index);
      EXPECT_EQ(ring[i].amplitude_mv, finalized[i].amplitude_mv);
    }
    finalized.clear();
    for (std::size_t i = 0; i < final_count; ++i) finalized.push_back(ring[i]);
  }
  EXPECT_LE(streaming.samples_seen() - streaming.final_through(), streaming.finality_lag());
}

TEST(StreamingQrsDetector, BeatRingDropAndGrow) {
  ecg::BeatRing ring;
  for (std::int64_t i = 0; i < 100; ++i) ring.push_back({i * 10, static_cast<double>(i)});
  ASSERT_EQ(ring.size(), 100u);
  ring.drop_before(500);  // Drops indices 0..490 (49 + 1 beats at < 500).
  ASSERT_EQ(ring.size(), 50u);
  EXPECT_EQ(ring[0].sample_index, 500);
  for (std::int64_t i = 100; i < 200; ++i) ring.push_back({i * 10, 0.0});
  EXPECT_EQ(ring.size(), 150u);
  EXPECT_EQ(ring[149].sample_index, 1990);
}

// --- WindowExtractor on the streaming detector -------------------------------

/// Independent reference for the RR half of one window's features (8 HRV +
/// 7 Lorentz): the intervals between consecutive beats of the continuous
/// beat stream inside [start, end), as differences of absolute sample
/// indices, through the same span kernels.
std::vector<double> reference_rr_features(const std::vector<ecg::Beat>& beats,
                                          std::int64_t start, std::int64_t end, double fs,
                                          std::size_t* nbeats_out) {
  std::vector<std::int64_t> in_window;
  for (const auto& b : beats)
    if (b.sample_index >= start && b.sample_index < end) in_window.push_back(b.sample_index);
  *nbeats_out = in_window.size();
  std::vector<double> rr;
  for (std::size_t i = 1; i < in_window.size(); ++i)
    rr.push_back(static_cast<double>(in_window[i] - in_window[i - 1]) / fs);
  features::FeatureScratch scratch;
  std::vector<double> out(features::kNumHrvFeatures + features::kNumLorentzFeatures);
  const std::span<double> view(out);
  features::compute_hrv_features(rr, scratch, view.first(features::kNumHrvFeatures));
  features::compute_lorentz_features(rr, scratch, view.subspan(features::kNumHrvFeatures));
  return out;
}

TEST(WindowExtractor, RefusesGeometryWithoutWholeEdrPointChunk) {
  // Features are built on chunks of gcd(window, stride) samples, each a
  // whole number of EDR grid points. 20 s / 10.1 s at 250 Hz shares only
  // 25-sample chunks (0.4 points at 4 Hz): refused when the extractor is
  // built, memoization on or off.
  rt::StreamConfig config;
  config.window_s = 20.0;
  config.stride_s = 10.1;
  for (const bool incremental : {true, false}) {
    config.incremental = incremental;
    try {
      rt::WindowExtractor extractor(config);
      ADD_FAILURE() << "20 s / 10.1 s was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("whole number"), std::string::npos) << e.what();
    }
  }
  // A whole-point chunk shorter than 2 s is refused too: 20 s / 10.5 s
  // shares 0.5 s chunks (2 EDR points), too short to keep a heartbeat.
  config.stride_s = 10.5;
  for (const bool incremental : {true, false}) {
    config.incremental = incremental;
    try {
      rt::WindowExtractor extractor(config);
      ADD_FAILURE() << "20 s / 10.5 s was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("at least 2 s"), std::string::npos) << e.what();
    }
  }
  // The rule is the chunk, not stride alignment: 12.5 s does not divide
  // 20 s, but their 2.5 s chunks span 10 EDR points.
  config.stride_s = 12.5;
  const rt::WindowExtractor accepted(config);
  EXPECT_EQ(accepted.stride_samples(), 3125u);
}

TEST(WindowExtractor, ShortestAcceptedChunkKeepsEveryInterval) {
  // 20 s / 14 s shares 2 s chunks, the shortest accepted: every window's
  // beats and RR-half features must equal those of the whole-window
  // reference over a finished detector, live windows and tail alike.
  const auto wf = synth_ecg(150.0, 61);
  rt::StreamConfig config;
  config.fs_hz = wf.fs_hz;
  config.window_s = 20.0;
  config.stride_s = 14.0;
  rt::WindowExtractor extractor(config);
  std::vector<rt::ExtractedWindow> windows;
  const auto collect = [&windows](rt::ExtractedWindow&& w) { windows.push_back(w); };
  extractor.push_samples(4, wf.samples_mv, collect);
  extractor.end_patient(4, collect);
  ASSERT_EQ(extractor.rejected_windows(), 0u);
  ASSERT_EQ(windows.size(),
            (wf.samples_mv.size() - extractor.window_samples()) / extractor.stride_samples() + 1);

  ecg::StreamingQrsDetector reference(config.fs_hz);
  reference.push(wf.samples_mv);
  reference.finish();
  std::vector<ecg::Beat> beats;
  std::int64_t longest_rr = 0;
  for (std::size_t i = 0; i < reference.beats().size(); ++i) {
    beats.push_back(reference.beats()[i]);
    if (i > 0) longest_rr = std::max(longest_rr, beats[i].sample_index - beats[i - 1].sample_index);
  }
  // The floor keeps every interval up to one chunk: this record's all are.
  ASSERT_LE(static_cast<double>(longest_rr) / config.fs_hz,
            features::SegmentFeatureCache::kMinChunkS);
  for (const auto& w : windows) {
    const auto start = static_cast<std::int64_t>(std::llround(w.start_s * config.fs_hz));
    std::size_t nbeats = 0;
    const auto want_rr = reference_rr_features(
        beats, start, start + static_cast<std::int64_t>(extractor.window_samples()),
        config.fs_hz, &nbeats);
    EXPECT_EQ(w.num_beats, nbeats) << "window at " << w.start_s << " s";
    for (std::size_t j = 0; j < want_rr.size(); ++j)
      EXPECT_EQ(w.raw_features[j], want_rr[j])
          << "window at " << w.start_s << " s, RR feature " << j;
  }
}

TEST(WindowExtractor, ScratchReuseAcrossInterleavedPatients) {
  // One extractor (one shared FeatureScratch) serving interleaved patients
  // must produce the same windows as a dedicated extractor per patient.
  const auto wf_a = synth_ecg(50.0, 31);
  const auto wf_b = synth_ecg(50.0, 32);
  rt::StreamConfig config;
  config.fs_hz = wf_a.fs_hz;
  config.window_s = 20.0;
  config.stride_s = 10.0;

  std::vector<std::vector<rt::ExtractedWindow>> solo(2);
  for (int p = 0; p < 2; ++p) {
    rt::WindowExtractor extractor(config);
    extractor.push_samples(9, p == 0 ? wf_a.samples_mv : wf_b.samples_mv,
                           [&](rt::ExtractedWindow&& w) { solo[p].push_back(w); });
  }

  rt::WindowExtractor shared(config);
  std::vector<std::vector<rt::ExtractedWindow>> mixed(2);
  std::span<const double> rest_a(wf_a.samples_mv), rest_b(wf_b.samples_mv);
  const auto sink = [&mixed](rt::ExtractedWindow&& w) {
    mixed[w.patient_id - 1].push_back(w);
  };
  while (!rest_a.empty() || !rest_b.empty()) {
    if (!rest_a.empty()) {
      const std::size_t n = std::min<std::size_t>(1250, rest_a.size());
      shared.push_samples(1, rest_a.first(n), sink);
      rest_a = rest_a.subspan(n);
    }
    if (!rest_b.empty()) {
      const std::size_t n = std::min<std::size_t>(730, rest_b.size());
      shared.push_samples(2, rest_b.first(n), sink);
      rest_b = rest_b.subspan(n);
    }
  }

  for (int p = 0; p < 2; ++p) {
    ASSERT_EQ(mixed[p].size(), solo[p].size()) << "patient " << p;
    for (std::size_t w = 0; w < solo[p].size(); ++w) {
      EXPECT_EQ(mixed[p][w].start_s, solo[p][w].start_s);
      EXPECT_EQ(mixed[p][w].num_beats, solo[p][w].num_beats);
      for (std::size_t j = 0; j < solo[p][w].raw_features.size(); ++j)
        EXPECT_EQ(mixed[p][w].raw_features[j], solo[p][w].raw_features[j]);
    }
  }
}

TEST(WindowExtractor, EndPatientEmitsHeldBackTailWindows) {
  // Trim a record so its last window ends exactly at the final sample: the
  // live path must hold that window back (finality lag), and end_patient
  // must emit it with beats matching a finished full-record reference.
  const auto full = synth_ecg(75.0, 51);
  rt::StreamConfig config;
  config.fs_hz = full.fs_hz;
  config.window_s = 20.0;
  config.stride_s = 10.0;
  rt::WindowExtractor extractor(config);
  const std::size_t window = extractor.window_samples();
  const std::size_t stride = extractor.stride_samples();
  const std::size_t total = window + 5 * stride;  // 6 windows; the last ends at the final sample.
  ASSERT_LE(total, full.samples_mv.size());
  const std::span<const double> record(full.samples_mv.data(), total);

  std::vector<rt::ExtractedWindow> live, tail;
  extractor.push_samples(3, record,
                         [&live](rt::ExtractedWindow&& w) { live.push_back(w); });
  // The last window [50 s, 70 s) has no lookahead samples after it: held back.
  const std::size_t live_expected =
      (total - window - extractor.emission_lag_samples()) / stride + 1;
  ASSERT_EQ(live.size() + extractor.rejected_windows(), live_expected);
  EXPECT_LT(live_expected, 6u);

  ASSERT_TRUE(extractor.end_patient(3, [&tail](rt::ExtractedWindow&& w) { tail.push_back(w); }));
  EXPECT_EQ(extractor.num_patients(), 0u);
  EXPECT_FALSE(extractor.end_patient(3, [](rt::ExtractedWindow&&) {}));
  ASSERT_EQ(live.size() + tail.size() + extractor.rejected_windows(), 6u);
  ASSERT_FALSE(tail.empty());

  // References: a finished detector over the same finite record (beats and
  // the RR half of the features), and the memoization-off pipeline fed the
  // record in 997-sample chunks (the whole vector).
  ecg::StreamingQrsDetector reference(config.fs_hz);
  reference.push(record);
  reference.finish();
  std::vector<ecg::Beat> beats;
  for (std::size_t i = 0; i < reference.beats().size(); ++i)
    beats.push_back(reference.beats()[i]);
  auto off_config = config;
  off_config.incremental = false;
  rt::WindowExtractor off(off_config);
  std::vector<rt::ExtractedWindow> all;
  const auto collect = [&all](rt::ExtractedWindow&& w) { all.push_back(w); };
  for (std::size_t at = 0; at < total; at += 997)
    off.push_samples(3, record.subspan(at, std::min<std::size_t>(997, total - at)), collect);
  off.end_patient(3, collect);
  ASSERT_EQ(all.size(), live.size() + tail.size());

  for (std::size_t t = 0; t < tail.size(); ++t) {
    const auto& w = tail[t];
    const auto start = static_cast<std::int64_t>(std::llround(w.start_s * config.fs_hz));
    std::size_t nbeats = 0;
    const auto want_rr = reference_rr_features(
        beats, start, start + static_cast<std::int64_t>(window), config.fs_hz, &nbeats);
    EXPECT_EQ(w.num_beats, nbeats);
    for (std::size_t j = 0; j < want_rr.size(); ++j)
      EXPECT_EQ(w.raw_features[j], want_rr[j]) << "RR feature " << j;
    const auto& want = all[live.size() + t];
    EXPECT_EQ(w.start_s, want.start_s);
    for (std::size_t j = 0; j < want.raw_features.size(); ++j)
      EXPECT_EQ(w.raw_features[j], want.raw_features[j]) << "feature " << j;
  }
}

TEST(WindowExtractor, ErasePatientRestartsWindowPhase) {
  const auto wf = synth_ecg(40.0, 41);
  rt::StreamConfig config;
  config.fs_hz = wf.fs_hz;
  config.window_s = 20.0;
  config.stride_s = 10.0;
  rt::WindowExtractor extractor(config);
  std::vector<rt::ExtractedWindow> first_run;
  extractor.push_samples(1, wf.samples_mv,
                         [&](rt::ExtractedWindow&& w) { first_run.push_back(w); });
  ASSERT_FALSE(first_run.empty());
  EXPECT_TRUE(extractor.erase_patient(1));
  EXPECT_FALSE(extractor.erase_patient(1));
  EXPECT_EQ(extractor.buffered_samples(1), 0u);

  // Re-pushing the same record rebuilds the stream from scratch: identical
  // windows starting again at phase 0.
  std::vector<rt::ExtractedWindow> second_run;
  extractor.push_samples(1, wf.samples_mv,
                         [&](rt::ExtractedWindow&& w) { second_run.push_back(w); });
  ASSERT_EQ(second_run.size(), first_run.size());
  for (std::size_t w = 0; w < first_run.size(); ++w) {
    EXPECT_EQ(second_run[w].start_s, first_run[w].start_s);
    for (std::size_t j = 0; j < first_run[w].raw_features.size(); ++j)
      EXPECT_EQ(second_run[w].raw_features[j], first_run[w].raw_features[j]);
  }
}

}  // namespace
}  // namespace svt

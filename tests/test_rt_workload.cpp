// Multi-workload engine: apnea and AF screening multiplexed through one
// stream must (a) share the per-patient substrate without perturbing each
// other — per-(patient, workload) results bit-identical to a
// single-threaded reference at ANY worker count, (b) leave the
// single-workload default bit-identical to a config that never mentions
// workloads, and (c) resolve each workload's model independently.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include "ecg/ecg_synth.hpp"
#include "ecg/rr_model.hpp"
#include "features/af_features.hpp"
#include "features/extractor.hpp"
#include "rt/cohort_replayer.hpp"
#include "rt/sharded_classifier.hpp"
#include "rt/stream_classifier.hpp"
#include "rt/workload.hpp"

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

rt::StreamConfig multi_config() {
  rt::StreamConfig config;
  config.fs_hz = 250.0;
  config.window_s = 20.0;
  config.stride_s = 10.0;
  config.workloads = {rt::apnea_workload(), rt::af_workload()};
  return config;
}

std::shared_ptr<rt::ModelRegistry> multi_registry() {
  auto registry = std::make_shared<rt::ModelRegistry>();
  registry->set_default(0, rt::synthetic_full_feature_model());
  registry->set_default(1, rt::synthetic_af_model());
  return registry;
}

std::map<int, ecg::EcgWaveform> make_ward() {
  std::map<int, ecg::EcgWaveform> ward;
  int seed = 80;
  for (int pid : {1, 2, 3, 7, 11}) ward[pid] = synth_ecg(55.0, static_cast<std::uint64_t>(seed++));
  return ward;
}

template <typename Classifier>
void push_interleaved(Classifier& classifier, const std::map<int, ecg::EcgWaveform>& ward,
                      std::size_t chunk) {
  std::map<int, std::size_t> offsets;
  bool any_left = true;
  while (any_left) {
    any_left = false;
    for (const auto& [pid, wf] : ward) {
      std::size_t& off = offsets[pid];
      if (off >= wf.samples_mv.size()) continue;
      const std::size_t n = std::min(chunk, wf.samples_mv.size() - off);
      classifier.push_samples(pid, std::span(wf.samples_mv).subspan(off, n));
      off += n;
      if (off < wf.samples_mv.size()) any_left = true;
    }
  }
}

/// Key results by (patient, workload), preserving time order within a key.
std::map<std::pair<int, std::uint32_t>, std::vector<rt::WindowResult>> by_stream(
    const std::vector<rt::WindowResult>& results) {
  std::map<std::pair<int, std::uint32_t>, std::vector<rt::WindowResult>> split;
  for (const auto& r : results) split[{r.patient_id, r.workload}].push_back(r);
  return split;
}

void expect_bit_identical(const std::vector<rt::WindowResult>& got,
                          const std::vector<rt::WindowResult>& want, const char* what) {
  const auto got_split = by_stream(got);
  const auto want_split = by_stream(want);
  ASSERT_EQ(got_split.size(), want_split.size()) << what;
  for (const auto& [key, mine] : got_split) {
    ASSERT_TRUE(want_split.count(key))
        << what << " patient " << key.first << " workload " << key.second;
    const auto& theirs = want_split.at(key);
    ASSERT_EQ(mine.size(), theirs.size())
        << what << " patient " << key.first << " workload " << key.second;
    for (std::size_t w = 0; w < mine.size(); ++w) {
      EXPECT_EQ(mine[w].start_s, theirs[w].start_s) << what << " patient " << key.first;
      EXPECT_EQ(mine[w].decision_value, theirs[w].decision_value)
          << what << " patient " << key.first << " workload " << key.second << " window " << w;
      EXPECT_EQ(mine[w].label, theirs[w].label) << what << " patient " << key.first;
      EXPECT_EQ(mine[w].num_beats, theirs[w].num_beats) << what << " patient " << key.first;
      EXPECT_EQ(mine[w].quality, theirs[w].quality) << what << " patient " << key.first;
    }
  }
}

TEST(Workloads, SchemasAreStable) {
  const auto apnea = rt::apnea_workload();
  EXPECT_STREQ(apnea->name(), "apnea");
  EXPECT_EQ(apnea->num_features(), features::kNumFeatures);

  const auto af = rt::af_workload();
  EXPECT_STREQ(af->name(), "af");
  ASSERT_EQ(af->num_features(), features::kNumAfFeatures);
  EXPECT_EQ(af->feature_name(0), "af_rmssd_ratio");
  EXPECT_EQ(af->feature_name(1), "af_turning_point_ratio");
  EXPECT_EQ(af->feature_name(2), "af_shannon_entropy");
}

TEST(Workloads, EmptyListServesApneaAsWorkloadZero) {
  // The back-compat default: no workloads named == exactly {apnea} as
  // workload 0, bit-identical results.
  const auto wf = synth_ecg(55.0, 70);
  auto config = multi_config();
  config.workloads.clear();
  rt::StreamClassifier implicit(rt::synthetic_full_feature_model(), config);
  config.workloads = {rt::apnea_workload()};
  rt::StreamClassifier named(rt::synthetic_full_feature_model(), config);
  implicit.push_samples(1, wf.samples_mv);
  named.push_samples(1, wf.samples_mv);
  const auto a = implicit.flush();
  const auto b = named.flush();
  ASSERT_FALSE(a.empty());
  expect_bit_identical(a, b, "implicit vs named apnea");
  for (const auto& r : a) EXPECT_EQ(r.workload, 0u);
}

TEST(Workloads, MultiWorkloadShardedMatchesSingleThreadedReference) {
  const auto ward = make_ward();
  const auto config = multi_config();

  // Reference: single-threaded engine serving one model per workload.
  rt::StreamClassifier reference(
      std::vector<rt::ServableModel>{rt::synthetic_full_feature_model(),
                                     rt::synthetic_af_model()},
      config);
  for (const auto& [pid, wf] : ward) reference.push_samples(pid, wf.samples_mv);
  const auto want = reference.flush();
  ASSERT_FALSE(want.empty());

  // Every window position yields one result per workload.
  const auto split = by_stream(want);
  for (const auto& [pid, wf] : ward) {
    ASSERT_TRUE(split.count({pid, 0})) << "patient " << pid;
    ASSERT_TRUE(split.count({pid, 1})) << "patient " << pid;
    EXPECT_EQ(split.at({pid, 0}).size(), split.at({pid, 1}).size()) << "patient " << pid;
  }

  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    rt::EngineOptions options;
    options.num_workers = workers;
    rt::ShardedStreamClassifier sharded(multi_registry(), config, options);
    EXPECT_EQ(sharded.num_workloads(), 2u);
    push_interleaved(sharded, ward, 733);
    expect_bit_identical(sharded.flush(), want,
                         workers == 1 ? "1 worker" : (workers == 2 ? "2 workers" : "8 workers"));
  }
}

TEST(Workloads, PerWorkloadModelResolutionIsIndependent) {
  // Swapping the AF default must change only workload-1 results; apnea
  // (workload 0) stays bit-identical.
  const auto wf = synth_ecg(55.0, 71);
  const auto config = multi_config();

  auto run = [&](std::uint64_t af_seed) {
    auto registry = std::make_shared<rt::ModelRegistry>();
    registry->set_default(0, rt::synthetic_full_feature_model());
    registry->set_default(1, rt::synthetic_af_model(af_seed));
    rt::EngineOptions options;
    options.num_workers = 2;
    rt::ShardedStreamClassifier engine(registry, config, options);
    engine.push_samples(1, wf.samples_mv);
    return engine.flush();
  };
  const auto a = run(43);
  const auto b = run(91);
  const auto a_split = by_stream(a);
  const auto b_split = by_stream(b);
  ASSERT_TRUE(a_split.count({1, 0}) && a_split.count({1, 1}));
  // Workload 0 untouched by the swap.
  const auto& apnea_a = a_split.at({1, 0});
  const auto& apnea_b = b_split.at({1, 0});
  ASSERT_EQ(apnea_a.size(), apnea_b.size());
  for (std::size_t w = 0; w < apnea_a.size(); ++w)
    EXPECT_EQ(apnea_a[w].decision_value, apnea_b[w].decision_value);
  // Workload 1 answers differ somewhere (different random AF model).
  const auto& af_a = a_split.at({1, 1});
  const auto& af_b = b_split.at({1, 1});
  ASSERT_EQ(af_a.size(), af_b.size());
  bool any_diff = false;
  for (std::size_t w = 0; w < af_a.size(); ++w)
    if (af_a[w].decision_value != af_b[w].decision_value) any_diff = true;
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace svt

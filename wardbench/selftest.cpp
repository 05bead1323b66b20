// Self-test of the ward benchmark's statistics, accounting and trace
// helpers. Built next to the benchmark; run it with
//
//   python3 wardbench/run.py --self-test
//
// Exits non-zero and names the failing check on the first failure.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <thread>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b)); }

svt::rt::WindowResult decision(int patient, std::uint32_t workload, double start_s,
                               double value) {
  svt::rt::WindowResult r;
  r.patient_id = patient;
  r.workload = workload;
  r.start_s = start_s;
  r.decision_value = value;
  r.label = value >= 0.0 ? 1 : -1;
  r.num_beats = 200;
  return r;
}

void test_median_and_quartiles() {
  using wardbench::median;
  using wardbench::quartiles;
  check(median({3.0, 1.0, 2.0}) == 2.0, "median of an odd count");
  check(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of an even count");
  // Reference values from Python: statistics.quantiles(data, n=4).
  const auto q10 = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  check(near(q10[0], 2.75) && near(q10[1], 5.5) && near(q10[2], 8.25),
        "quartiles of 1..10 match statistics.quantiles");
  const auto q5 = quartiles({5, 1, 4, 2, 3});
  check(near(q5[0], 1.5) && near(q5[1], 3.0) && near(q5[2], 4.5),
        "quartiles of an unsorted odd sample match statistics.quantiles");
  const auto q2 = quartiles({1.0, 2.0});
  check(near(q2[0], 0.75) && near(q2[1], 1.5) && near(q2[2], 2.25),
        "quartiles of two values extrapolate like statistics.quantiles");
  bool threw = false;
  try {
    quartiles({1.0});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "quartiles refuse a single value");
}

void test_percentile_rule() {
  using wardbench::percentile_supported;
  check(!percentile_supported(999, 99.0), "p99 needs 1000 samples (999 fail)");
  check(percentile_supported(1000, 99.0), "p99 is supported by 1000 samples");
  check(!percentile_supported(19, 50.0) && percentile_supported(20, 50.0),
        "the median needs twenty samples");
  check(!percentile_supported(9999, 99.9) && percentile_supported(10000, 99.9),
        "p99.9 needs 10000 samples");
  std::vector<double> v;
  for (int i = 0; i <= 100; ++i) v.push_back(static_cast<double>(100 - i));
  check(near(wardbench::percentile(v, 99.0), 99.0), "p99 of 0..100 is 99");
  check(near(wardbench::percentile(v, 50.0), 50.0), "p50 of 0..100 is 50");
  check(near(wardbench::percentile({1.0, 2.0}, 25.0), 1.25), "percentiles interpolate");
}

void test_accounting() {
  using wardbench::DecisionKey;
  constexpr double fs = 250.0;
  // Ground truth calls for patient 1 windows at 0 s and 30 s and patient 2
  // at 0 s, one workload.
  const std::vector<DecisionKey> expected = {{1, 0, 0}, {1, 0, 7500}, {2, 0, 0}};
  const std::vector<svt::rt::WindowResult> oracle = {
      decision(1, 0, 0.0, 0.5), decision(1, 0, 30.0, -0.25), decision(2, 0, 0.0, 1.0),
      decision(2, 0, 30.0, 2.0)};

  auto a = wardbench::account(expected, {oracle[0], oracle[1], oracle[2]}, oracle, fs);
  check(a.expected == 3 && a.failed() == 0 && a.failed_fraction() == 0.0,
        "an exact stream fails nothing");

  // Patient 1's second window never arrives.
  a = wardbench::account(expected, {oracle[0], oracle[2]}, oracle, fs);
  check(a.missing == 1 && a.failed() == 1 && near(a.failed_fraction(), 1.0 / 3.0),
        "a missing decision counts against the expected ones");

  // One ulp off in the decision value is a mismatch, not a near-miss.
  auto off = oracle[1];
  off.decision_value = std::nextafter(off.decision_value, 1.0);
  a = wardbench::account(expected, {oracle[0], off, oracle[2]}, oracle, fs);
  check(a.mismatched == 1 && a.missing == 0 && a.failed() == 1,
        "a bit-level difference from the oracle is a mismatch");

  // Quality flags are part of the decision.
  auto flagged = oracle[2];
  flagged.quality = 1;
  a = wardbench::account(expected, {oracle[0], oracle[1], flagged}, oracle, fs);
  check(a.mismatched == 1, "different quality flags are a mismatch");

  // Delivered twice, and a decision the oracle never made.
  a = wardbench::account(expected,
                         {oracle[0], oracle[0], oracle[1], oracle[2], decision(3, 0, 0.0, 1.0)},
                         oracle, fs);
  check(a.duplicates == 1 && a.mismatched == 1 && a.failed() == 2,
        "duplicates and decisions absent from the oracle fail");

  // A correct decision for a window the truth does not call for (too few
  // true beats) is unexpected.
  a = wardbench::account(expected, {oracle[0], oracle[1], oracle[2], oracle[3]}, oracle, fs);
  check(a.unexpected == 1 && a.failed() == 1, "a decision the truth does not call for fails");

  // A refused stream with nothing delivered: everything missing plus the refusal.
  a = wardbench::account(expected, {}, oracle, fs, 1);
  check(a.missing == 3 && a.protocol_errors == 1 && a.failed() == 4 &&
            near(a.failed_fraction(), 4.0 / 3.0),
        "protocol errors add to the failures");
}

void test_trace_self_times() {
  wardbench::Tracer tracer("test", true);
  {
    wardbench::Tracer::Scope root(tracer, "root");
    {
      wardbench::Tracer::Scope child(tracer, "child");
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const auto& records = tracer.records();
  check(records.size() == 2, "two spans recorded");
  check(records[1].parent == 0, "the child span names its parent");
  const auto totals = tracer.totals();
  const auto& root = totals.at("root");
  const auto& child = totals.at("child");
  check(near(root.self_s, root.total_s - child.total_s), "self time excludes the child's span");
  check(root.self_s >= 0.009 && child.total_s >= 0.019, "spans cover the sleeps");

  wardbench::Tracer off("test", false);
  { wardbench::Tracer::Scope span(off, "ignored"); }
  check(off.records().empty(), "a disabled tracer records nothing");
}

}  // namespace

int main() {
  test_median_and_quartiles();
  test_percentile_rule();
  test_accounting();
  test_trace_self_times();
  if (failures == 0) std::printf("wardbench self-test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}

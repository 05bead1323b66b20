// Statistics and decision accounting shared by the ward benchmark and its
// self-test. Header-only, no dependencies beyond the runtime's result type.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "rt/engine.hpp"

namespace wardbench {

/// Median of `values` (mean of the two middle values for an even count).
/// Throws on an empty input.
inline double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no values");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// First, second and third quartile with the same rule as Python's
/// statistics.quantiles(values, n=4) (the default "exclusive" method), so
/// spreads computed here agree with any Python tooling reading the output.
/// Needs at least two values.
inline std::array<double, 3> quartiles(std::vector<double> values) {
  if (values.size() < 2) throw std::invalid_argument("quartiles need at least two values");
  std::sort(values.begin(), values.end());
  const auto ld = static_cast<long long>(values.size());
  const long long m = ld + 1;
  std::array<double, 3> q{};
  for (long long i = 1; i < 4; ++i) {
    long long j = i * m / 4;
    j = std::clamp(j, 1LL, ld - 1);
    const long long delta = i * m - j * 4;
    q[static_cast<std::size_t>(i - 1)] =
        (values[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return q;
}

/// The percentile rule: a percentile q of n samples is reportable only when
/// at least ten samples lie beyond it, i.e. n * (1 - q/100) >= 10.
inline bool percentile_supported(std::size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q / 100.0) >= 10.0 - 1e-9;
}

/// Linearly interpolated percentile q (0..100) of `values` (the "linear"
/// definition: rank q/100 * (n - 1)). Throws on an empty input.
inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("percentile of no values");
  std::sort(values.begin(), values.end());
  const double rank = q / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

// --- Decision accounting -----------------------------------------------------

/// Identifies one decision: a (patient, workload) stream and the window's
/// start sample. Start times are compared as sample indices so that the key
/// does not depend on floating-point formatting.
struct DecisionKey {
  int patient_id = 0;
  std::uint32_t workload = 0;
  std::int64_t start_sample = 0;
  auto operator<=>(const DecisionKey&) const = default;
};

inline DecisionKey key_of(const svt::rt::WindowResult& r, double fs_hz) {
  return {r.patient_id, r.workload, std::llround(r.start_s * fs_hz)};
}

/// Bit-for-bit equality of everything a decision carries to its consumer.
inline bool same_decision(const svt::rt::WindowResult& a, const svt::rt::WindowResult& b) {
  return a.patient_id == b.patient_id && a.workload == b.workload &&
         std::memcmp(&a.start_s, &b.start_s, sizeof(double)) == 0 &&
         std::memcmp(&a.decision_value, &b.decision_value, sizeof(double)) == 0 &&
         a.label == b.label && a.quality == b.quality && a.num_beats == b.num_beats;
}

struct Accounting {
  std::size_t expected = 0;     ///< Decisions the ground truth calls for.
  std::size_t delivered = 0;    ///< Decisions received.
  std::size_t missing = 0;      ///< Expected but never delivered.
  std::size_t mismatched = 0;   ///< Delivered but not bit-identical to the oracle.
  std::size_t unexpected = 0;   ///< Delivered for a window the truth does not call for.
  std::size_t duplicates = 0;   ///< The same window delivered more than once.
  std::size_t protocol_errors = 0;  ///< Refused streams or wire errors.

  std::size_t failed() const {
    return missing + mismatched + unexpected + duplicates + protocol_errors;
  }
  double failed_fraction() const {
    return expected == 0 ? 0.0 : static_cast<double>(failed()) / static_cast<double>(expected);
  }
  Accounting& operator+=(const Accounting& o) {
    expected += o.expected;
    delivered += o.delivered;
    missing += o.missing;
    mismatched += o.mismatched;
    unexpected += o.unexpected;
    duplicates += o.duplicates;
    protocol_errors += o.protocol_errors;
    return *this;
  }
};

/// Account one delivered decision stream against the ground-truth expected
/// set and the single-threaded oracle's decisions for the same chunks. A
/// delivered decision absent from the oracle, or differing from it in any
/// bit, is a mismatch; an expected decision never delivered is missing; a
/// correct decision the truth does not call for is unexpected.
inline Accounting account(const std::vector<DecisionKey>& expected,
                          const std::vector<svt::rt::WindowResult>& delivered,
                          const std::vector<svt::rt::WindowResult>& oracle, double fs_hz,
                          std::size_t protocol_errors = 0) {
  std::map<DecisionKey, const svt::rt::WindowResult*> by_key;
  for (const auto& r : oracle) by_key.emplace(key_of(r, fs_hz), &r);
  const std::set<DecisionKey> wanted(expected.begin(), expected.end());
  std::set<DecisionKey> seen;
  Accounting a;
  a.expected = wanted.size();
  a.delivered = delivered.size();
  a.protocol_errors = protocol_errors;
  // Each delivered decision lands in at most one failure class.
  for (const auto& r : delivered) {
    const DecisionKey k = key_of(r, fs_hz);
    const auto it = by_key.find(k);
    if (!seen.insert(k).second)
      ++a.duplicates;
    else if (it == by_key.end() || !same_decision(*it->second, r))
      ++a.mismatched;
    else if (!wanted.contains(k))
      ++a.unexpected;
  }
  for (const auto& k : wanted)
    if (!seen.contains(k)) ++a.missing;
  return a;
}

}  // namespace wardbench

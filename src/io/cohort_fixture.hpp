// Writer-generated synthetic WFDB fixture cohorts.
//
// The offline dev box (and CI) needs realistic *recorded* wards to replay:
// this module synthesises per-patient ECG sessions (ecg::synthesize_session)
// and writes them through the WFDB writer as a directory of records plus a
// RECORDS index — the same shape as a PhysioNet database download, so the
// replay driver and the golden-file CI gate exercise the exact ingest path a
// real archive would take. The fixtures deliberately cover the reader's edge
// cases: formats 212 and 16 (format 80 is covered by tests/test_wfdb.cpp),
// both 212 tail parities (even and odd sample counts), single- and
// multi-channel records where the ECG is not channel 0, and a non-zero
// baseline.
//
// Everything is deterministic in the seed: the same params always produce
// byte-identical records, which is what lets CI regenerate the cohort and
// diff the replayed alert stream against a committed golden file.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "io/wfdb.hpp"

namespace svt::io {

struct CohortFixtureParams {
  std::size_t num_patients = 4;
  double duration_s = 60.0;   ///< Recording length per patient.
  double fs_hz = 250.0;
  double adc_gain = 200.0;    ///< ADC units per mV for the ECG channels.
  std::uint64_t seed = 9001;  ///< Base seed; patient p uses seed + p.
  bool with_seizures = true;  ///< Odd patients seize mid-recording.
};

/// One written fixture record.
struct FixtureRecord {
  std::string name;            ///< Record name ("p001", ...).
  int patient_id = 0;
  std::size_t num_samples = 0;
  std::size_t num_signals = 0;
  std::size_t ecg_channel = 0;
  int format = 0;              ///< ECG channel storage format.
};

/// Synthesise and write a cohort of single-session records into `dir`
/// (created if missing), plus the RECORDS index. Record p00N carries patient
/// id N. Record layout rotates with the index i so one replayed cohort
/// covers the reader's packing, parity, channel-selection, and baseline
/// paths: even i store format 212, odd i format 16; odd i are two-channel
/// (a RESP channel first, the ECG second); i % 4 in {2, 3} get an odd
/// sample count (the format-212 trailing half-group when i is even); and
/// i % 4 == 2 uses a non-zero ADC baseline.
std::vector<FixtureRecord> write_synthetic_cohort(const std::string& dir,
                                                  const CohortFixtureParams& params = {});

}  // namespace svt::io

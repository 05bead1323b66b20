// Seeded mutation test for WFDB ingest: starting from intact records in
// formats 212 (two channels, odd sample count), 16 and 80, flip, insert and
// truncate bytes of the header or of the signal file, over and over. Every
// mutated record must either be rejected with std::invalid_argument or read
// back with every sample inside its format's range, through both
// io::RecordReader and io::read_record — never crash, hang, allocate without
// bound or throw anything else. The sanitizer CI build runs it as well.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "io/wfdb.hpp"

namespace svt {
namespace {

using Bytes = std::vector<unsigned char>;

Bytes read_file(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  return Bytes((std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
}

/// Overwrite an existing file in place, then cut it to length. Not
/// truncate-then-write: ext4 flushes a file rewritten that way on close,
/// which would make this loop disk-bound.
void write_file(const std::filesystem::path& path, const Bytes& bytes) {
  {
    std::fstream os(path, std::ios::binary | std::ios::in | std::ios::out);
    os.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  }
  std::filesystem::resize_file(path, bytes.size());
}

struct BaseRecord {
  std::string name;
  std::filesystem::path header_path;
  std::filesystem::path signal_path;
  Bytes header;
  Bytes signal;
};

BaseRecord write_base(const std::string& dir, const std::string& name, int format,
                      std::size_t channels, std::size_t n, std::mt19937_64& rng) {
  io::RecordHeader header;
  header.record_name = name;
  std::vector<std::vector<int>> adc(channels, std::vector<int>(n));
  std::uniform_int_distribution<int> dist(io::format_min_value(format),
                                          io::format_max_value(format));
  for (std::size_t c = 0; c < channels; ++c) {
    io::SignalSpec spec;
    spec.file_name = name + ".dat";
    spec.format = format;
    spec.adc_gain = 201.5;
    spec.baseline = 12 * static_cast<int>(c) - 5;
    spec.description = c + 1 == channels ? "ECG lead II" : "RESP";
    header.signals.push_back(spec);
    for (auto& v : adc[c]) v = dist(rng);
  }
  io::write_record(dir, header, adc);
  BaseRecord base;
  base.name = name;
  base.header_path = std::filesystem::path(dir) / (name + ".hea");
  base.signal_path = std::filesystem::path(dir) / (name + ".dat");
  base.header = read_file(base.header_path);
  base.signal = read_file(base.signal_path);
  return base;
}

/// One to three random edits: flip bits of a byte, insert a random byte, or
/// truncate the tail.
void mutate(Bytes& bytes, std::mt19937_64& rng) {
  const int edits = std::uniform_int_distribution<int>(1, 3)(rng);
  for (int e = 0; e < edits; ++e) {
    const auto pick = [&](std::size_t size) {
      return std::uniform_int_distribution<std::size_t>(0, size)(rng);
    };
    const auto byte = static_cast<unsigned char>(std::uniform_int_distribution<int>(0, 255)(rng));
    switch (std::uniform_int_distribution<int>(0, 2)(rng)) {
      case 0:
        if (!bytes.empty()) bytes[pick(bytes.size() - 1)] ^= byte == 0 ? 0x01 : byte;
        break;
      case 1:
        bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(pick(bytes.size())), byte);
        break;
      default:
        bytes.resize(pick(bytes.size()));
        break;
    }
  }
}

/// Read a (possibly mutated) record through both entry points; fails the
/// test on an out-of-range sample.
void read_checked(const std::string& dir, const std::string& name, int iteration) {
  const io::RecordReader reader(dir, name);
  const auto record = io::read_record(dir, name);
  const auto& header = reader.header();
  EXPECT_EQ(record.adc.size(), header.num_signals());
  for (std::size_t c = 0; c < header.num_signals(); ++c) {
    const int format = header.signals[c].format;
    std::vector<int> adc(reader.num_samples());
    std::vector<double> mv(reader.num_samples());
    reader.read_adc(c, 0, adc);
    reader.read_mv(c, 0, mv);
    EXPECT_EQ(adc, record.adc[c]) << "iteration " << iteration;
    for (std::size_t s = 0; s < adc.size(); ++s) {
      if (adc[s] < io::format_min_value(format) || adc[s] > io::format_max_value(format) ||
          std::isnan(mv[s])) {
        ADD_FAILURE() << "iteration " << iteration << ": channel " << c << " sample " << s
                      << " = " << adc[s] << " (" << mv[s] << " mV) in format " << format;
        return;
      }
    }
  }
}

TEST(WfdbMutation, MutatedRecordsAreRejectedOrReadInRange) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("svt_wfdb_mutation_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::mt19937_64 rng(20240917);
  const std::vector<BaseRecord> bases = {
      write_base(dir.string(), "m212", 212, 2, 101, rng),
      write_base(dir.string(), "m16", 16, 1, 64, rng),
      write_base(dir.string(), "m80", 80, 1, 77, rng),
  };

  constexpr int kIterations = 20000;
  int accepted = 0, rejected = 0;
  for (int it = 0; it < kIterations && !HasFailure(); ++it) {
    const auto& base = bases[std::uniform_int_distribution<std::size_t>(0, 2)(rng)];
    Bytes header = base.header;
    Bytes signal = base.signal;
    mutate(std::uniform_int_distribution<int>(0, 1)(rng) == 0 ? header : signal, rng);
    write_file(base.header_path, header);
    write_file(base.signal_path, signal);
    try {
      read_checked(dir.string(), base.name, it);
      ++accepted;
    } catch (const std::invalid_argument&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "iteration " << it << ": unexpected exception: " << e.what();
    }
  }
  // Both outcomes occur, so the loop exercises the checks and the decoders.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace svt

// Seeded mutation test for the wire decoder: starting from a valid stream
// holding every frame type, flip, insert and truncate bytes over and over,
// and feed each mutated stream to net::FrameDecoder whole and in random
// slices. Every run must end in frames, a request for more bytes, or a
// typed error — never a crash, a hang or an out-of-bounds read (the
// sanitizer CI build runs it as well) — and the two slicings must agree.
// Each surfaced frame's payload goes through its typed parser, which must
// accept or refuse it without touching bytes outside the payload.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "net/frame.hpp"

namespace svt::net {
namespace {

using Bytes = std::vector<std::uint8_t>;

Bytes valid_stream() {
  Bytes wire;
  append_hello(wire, HelloFrame{kProtocolVersion, 2});
  HelloAckFrame ack;
  ack.fs_hz = 250.0;
  ack.window_s = 60.0;
  ack.stride_s = 5.0;
  ack.workloads = {{"apnea", 53}, {"af", 3}};
  append_hello_ack(wire, ack);
  append_stream_open(wire, StreamOpenFrame{7, 250.0});
  std::vector<double> samples(40);
  for (std::size_t i = 0; i < samples.size(); ++i) samples[i] = 0.01 * static_cast<double>(i) - 0.2;
  append_sample_chunk(wire, 7, samples);
  append_sample_chunk(wire, 7, std::span<const double>(samples).first(3));
  std::vector<DecisionRecord> decisions(3);
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    decisions[i].start_s = 5.0 * static_cast<double>(i);
    decisions[i].decision_value = -0.5 + static_cast<double>(i);
    decisions[i].label = i % 2 == 0 ? 1 : -1;
    decisions[i].num_beats = 70;
    decisions[i].workload = static_cast<std::uint32_t>(i % 2);
  }
  append_decisions(wire, 7, decisions);
  append_end_stream(wire, EndStreamFrame{7});
  StatsFrame stats;
  stats.windows_delivered = 3;
  stats.samples_ingested = 43;
  append_stats(wire, stats);
  append_error(wire, ErrorFrame{ErrorCode::kUnknownStream, "no such stream"});
  append_bye(wire);
  return wire;
}

/// One to three random edits: flip bits of a byte, insert a random byte, or
/// truncate the tail.
void mutate(Bytes& bytes, std::mt19937_64& rng) {
  const int edits = std::uniform_int_distribution<int>(1, 3)(rng);
  for (int e = 0; e < edits; ++e) {
    const auto pick = [&](std::size_t size) {
      return std::uniform_int_distribution<std::size_t>(0, size)(rng);
    };
    const auto byte = static_cast<std::uint8_t>(std::uniform_int_distribution<int>(0, 255)(rng));
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

/// Run the frame's payload through its typed parser. The result may be
/// either answer; what matters is that parsing stays inside the payload.
void parse_payload(const FrameDecoder::Frame& frame) {
  switch (frame.type) {
    case FrameType::kHello: {
      HelloFrame out;
      (void)parse_hello(frame.payload, out);
      break;
    }
    case FrameType::kHelloAck: {
      HelloAckFrame out;
      (void)parse_hello_ack(frame.payload, out);
      break;
    }
    case FrameType::kStreamOpen: {
      StreamOpenFrame out;
      (void)parse_stream_open(frame.payload, out);
      break;
    }
    case FrameType::kSampleChunk: {
      SampleChunkView view;
      if (parse_sample_chunk(frame.payload, view)) {
        std::vector<double> samples;
        view.copy_samples(samples);
        EXPECT_EQ(samples.size(), view.num_samples);
      }
      break;
    }
    case FrameType::kEndStream: {
      EndStreamFrame out;
      (void)parse_end_stream(frame.payload, out);
      break;
    }
    case FrameType::kStats: {
      StatsFrame out;
      (void)parse_stats(frame.payload, out);
      break;
    }
    case FrameType::kDecision: {
      DecisionBatchView view;
      if (parse_decisions(frame.payload, view))
        for (std::size_t i = 0; i < view.num_decisions; ++i) (void)view.record(i);
      break;
    }
    case FrameType::kError: {
      ErrorFrame out;
      (void)parse_error(frame.payload, out);
      break;
    }
    case FrameType::kBye:
      break;
  }
}

/// What a decoder made of one byte stream: each frame (type + payload
/// copy), then how it ended.
struct Outcome {
  std::vector<std::pair<FrameType, Bytes>> frames;
  ErrorCode end = ErrorCode::kNone;  ///< finish(): kNone, kTruncatedFrame or the poison.
};

/// Feed `wire` in slices drawn from `rng` (one slice of everything when
/// `max_slice` is 0), draining frames after every slice.
Outcome decode(const Bytes& wire, std::size_t max_slice, std::mt19937_64& rng) {
  FrameDecoder decoder;
  Outcome outcome;
  // Each frame consumes at least a header, so more frames than this means
  // the decoder is not making progress.
  const std::size_t frame_bound = wire.size() / kHeaderBytes + 1;
  const auto drain = [&] {
    FrameDecoder::Frame frame;
    for (;;) {
      const auto status = decoder.next(frame);
      if (status != FrameDecoder::Status::kFrame) {
        if (status == FrameDecoder::Status::kError) {
          EXPECT_NE(decoder.error(), ErrorCode::kNone);
          EXPECT_FALSE(decoder.error_message().empty());
        }
        return;
      }
      EXPECT_LE(frame.payload.size(), kMaxPayloadBytes);
      parse_payload(frame);
      outcome.frames.emplace_back(frame.type, Bytes(frame.payload.begin(), frame.payload.end()));
      if (outcome.frames.size() > frame_bound) {
        ADD_FAILURE() << "decoder surfaced more frames than the stream can hold";
        return;
      }
    }
  };
  std::size_t at = 0;
  while (at < wire.size()) {
    const std::size_t n =
        max_slice == 0 ? wire.size() - at
                       : std::min(wire.size() - at,
                                  std::uniform_int_distribution<std::size_t>(1, max_slice)(rng));
    decoder.feed(std::span<const std::uint8_t>(wire).subspan(at, n));
    at += n;
    drain();
  }
  outcome.end = decoder.finish();
  const auto code = static_cast<std::uint32_t>(outcome.end);
  EXPECT_LE(code, static_cast<std::uint32_t>(ErrorCode::kServerError));
  // A poisoned decoder stays poisoned: further input is ignored.
  if (outcome.end != ErrorCode::kNone && outcome.end != ErrorCode::kTruncatedFrame) {
    decoder.feed(std::span<const std::uint8_t>(wire));
    FrameDecoder::Frame frame;
    EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kError);
    EXPECT_EQ(decoder.finish(), outcome.end);
  }
  return outcome;
}

TEST(NetFrameMutation, MutatedStreamsDecodeToFramesOrTypedErrors) {
  const Bytes base = valid_stream();
  std::mt19937_64 rng(20261020);
  {  // The unmutated stream decodes cleanly to all ten frames.
    const auto clean = decode(base, 0, rng);
    ASSERT_EQ(clean.end, ErrorCode::kNone);
    ASSERT_EQ(clean.frames.size(), 10u);
  }
  std::size_t errors = 0, truncations = 0;
  for (int iteration = 0; iteration < 20000; ++iteration) {
    Bytes wire = base;
    mutate(wire, rng);
    const auto whole = decode(wire, 0, rng);
    const auto sliced = decode(wire, 1 + static_cast<std::size_t>(iteration % 97), rng);
    // Slicing never changes what is decoded.
    ASSERT_EQ(sliced.end, whole.end) << "iteration " << iteration;
    ASSERT_EQ(sliced.frames, whole.frames) << "iteration " << iteration;
    if (whole.end == ErrorCode::kTruncatedFrame) {
      ++truncations;
    } else if (whole.end != ErrorCode::kNone) {
      ++errors;
    }
    if (::testing::Test::HasFailure()) FAIL() << "iteration " << iteration;
  }
  // The mutations reach past the header checks into every outcome.
  EXPECT_GT(errors, 1000u);
  EXPECT_GT(truncations, 1000u);
}

}  // namespace
}  // namespace svt::net

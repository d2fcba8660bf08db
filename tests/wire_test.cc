#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/detector.h"
#include "nn/serialize.h"
#include "obs/flight_recorder.h"
#include "obs/observability.h"
#include "obs/profiler.h"
#include "obs/trace_export.h"
#include "serve/client.h"
#include "serve/inference_engine.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/socket.h"

#include "serve_test_util.h"

// Wire-protocol tests: frame codec round-trips, the documented example
// frames from docs/wire-protocol.md (kept byte-for-byte in sync), fuzz-style
// malformed-input decoding, and loopback server/client round-trips against a
// live InferenceEngine.

namespace causalformer {
namespace serve {
namespace {

core::ModelOptions TinyModelOptions(int64_t num_series = 3,
                                    int64_t window = 8) {
  core::ModelOptions opt;
  opt.num_series = num_series;
  opt.window = window;
  opt.d_model = 16;
  opt.d_qk = 16;
  opt.heads = 2;
  opt.d_ffn = 16;
  return opt;
}

std::unique_ptr<core::CausalityTransformer> TinyModel(uint64_t seed = 7) {
  Rng rng(seed);
  return std::make_unique<core::CausalityTransformer>(TinyModelOptions(), &rng);
}

Tensor RandomWindows(int64_t b, uint64_t seed) {
  Rng rng(seed);
  return Tensor::Randn(Shape{b, 3, 8}, &rng);
}

wire::Frame MustDecode(const std::vector<uint8_t>& bytes) {
  wire::Frame frame;
  size_t consumed = 0;
  std::string error;
  const auto result = wire::DecodeFrame(bytes.data(), bytes.size(), &frame,
                                        &consumed, &error);
  EXPECT_EQ(result, wire::DecodeResult::kFrame) << error;
  EXPECT_EQ(consumed, bytes.size());
  return frame;
}

// ---- CRC ------------------------------------------------------------------

TEST(Crc32Test, KnownCheckValue) {
  // The standard CRC-32 check vector.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(Crc32Test, ChainingMatchesOneShot) {
  const std::string data = "length-prefixed wire protocol";
  const uint32_t oneshot = Crc32(data.data(), data.size());
  for (size_t split = 0; split <= data.size(); ++split) {
    const uint32_t first = Crc32(data.data(), split);
    EXPECT_EQ(Crc32(data.data() + split, data.size() - split, first), oneshot);
  }
}

// ---- Documented example frames (docs/wire-protocol.md §7) -----------------

TEST(WireFrameTest, DocumentedPingFrameBytes) {
  const uint8_t kExpected[] = {
      0x43, 0x46, 0x57, 0x50, 0x07, 0x01, 0x00, 0x00,  // magic, v6, Ping
      0x08, 0x00, 0x00, 0x00, 0x25, 0xed, 0xcc, 0xa5,  // length 8, CRC
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // token LE
  };
  const auto frame = wire::EncodeFrame(wire::MessageType::kPing,
                                       wire::EncodePing(0x0102030405060708ull));
  ASSERT_EQ(frame.size(), sizeof(kExpected));
  EXPECT_EQ(std::memcmp(frame.data(), kExpected, sizeof(kExpected)), 0);
}

TEST(WireFrameTest, DocumentedDetectFrameBytes) {
  // The worked Detect hex dump: model "demo", default detector options,
  // windows [B=1, N=2, T=2] = {1, 2, 3, 4}.
  const uint8_t kExpected[] = {
      0x43, 0x46, 0x57, 0x50, 0x07, 0x07, 0x00, 0x00,
      0x39, 0x00, 0x00, 0x00, 0x46, 0x5a, 0xa4, 0xc2,
      0x04, 0x00, 0x00, 0x00, 0x64, 0x65, 0x6d, 0x6f,
      0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
      0x20, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x0f, 0xbd, 0x37, 0x86, 0x35, 0x01, 0x00, 0x00,
      0x00, 0x02, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x00,
      0x40, 0x00, 0x00, 0x40, 0x40, 0x00, 0x00, 0x80,
      0x40,
  };
  wire::DetectMsg msg;
  msg.model = "demo";
  msg.windows = Tensor::FromVector(Shape{1, 2, 2}, {1.f, 2.f, 3.f, 4.f});
  const auto frame =
      wire::EncodeFrame(wire::MessageType::kDetect, wire::EncodeDetect(msg));
  ASSERT_EQ(frame.size(), sizeof(kExpected));
  EXPECT_EQ(std::memcmp(frame.data(), kExpected, sizeof(kExpected)), 0);
}

// The v2 streaming frames, byte for byte against the §7.4–§7.7 hex dumps of
// docs/wire-protocol.md. One documented-frame test per new message type, so
// any layout change must touch the spec too.

TEST(WireFrameTest, DocumentedStreamOpenFrameBytes) {
  // Stream "s1" on model "demo": stride 2, defaults everywhere else
  // (window/history 0 = server-resolved, max_in_flight 4, max_reports 256,
  // default detector options, drift thresholds 0.25/0.34, stability 3).
  const uint8_t kExpected[] = {
      0x43, 0x46, 0x57, 0x50, 0x07, 0x0f, 0x00, 0x00,
      0x57, 0x00, 0x00, 0x00, 0x26, 0x66, 0x96, 0xf6,
      0x02, 0x00, 0x00, 0x00, 0x73, 0x31, 0x04, 0x00,
      0x00, 0x00, 0x64, 0x65, 0x6d, 0x6f, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00,
      0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x02, 0x00,
      0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x20, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0f, 0xbd,
      0x37, 0x86, 0x35, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0xd0, 0x3f, 0xc3, 0xf5, 0x28, 0x5c, 0x8f,
      0xc2, 0xd5, 0x3f, 0x03, 0x00, 0x00, 0x00,
  };
  wire::StreamOpenMsg msg;
  msg.stream = "s1";
  msg.model = "demo";
  msg.stride = 2;
  const auto frame = wire::EncodeFrame(wire::MessageType::kStreamOpen,
                                       wire::EncodeStreamOpen(msg));
  ASSERT_EQ(frame.size(), sizeof(kExpected));
  EXPECT_EQ(std::memcmp(frame.data(), kExpected, sizeof(kExpected)), 0);
}

TEST(WireFrameTest, DocumentedStreamOpenOkFrameBytes) {
  // Resolved config: window 8, stride 2, history 32.
  const uint8_t kExpected[] = {
      0x43, 0x46, 0x57, 0x50, 0x07, 0x10, 0x00, 0x00,
      0x18, 0x00, 0x00, 0x00, 0xab, 0xb1, 0x1a, 0x0f,
      0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x20, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
  };
  wire::StreamOpenOkMsg msg;
  msg.window = 8;
  msg.stride = 2;
  msg.history = 32;
  const auto frame = wire::EncodeFrame(wire::MessageType::kStreamOpenOk,
                                       wire::EncodeStreamOpenOk(msg));
  ASSERT_EQ(frame.size(), sizeof(kExpected));
  EXPECT_EQ(std::memcmp(frame.data(), kExpected, sizeof(kExpected)), 0);
}

TEST(WireFrameTest, DocumentedStreamCloseFrameBytes) {
  const uint8_t kExpected[] = {
      0x43, 0x46, 0x57, 0x50, 0x07, 0x11, 0x00, 0x00,
      0x06, 0x00, 0x00, 0x00, 0xa7, 0x2a, 0xc6, 0xa9,
      0x02, 0x00, 0x00, 0x00, 0x73, 0x31,
  };
  const auto frame = wire::EncodeFrame(wire::MessageType::kStreamClose,
                                       wire::EncodeStreamClose("s1"));
  ASSERT_EQ(frame.size(), sizeof(kExpected));
  EXPECT_EQ(std::memcmp(frame.data(), kExpected, sizeof(kExpected)), 0);
}

TEST(WireFrameTest, DocumentedStreamCloseOkFrameBytes) {
  // Empty payload: header only, CRC of zero bytes is 0.
  const uint8_t kExpected[] = {
      0x43, 0x46, 0x57, 0x50, 0x07, 0x12, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
  };
  const auto frame = wire::EncodeFrame(wire::MessageType::kStreamCloseOk, {});
  ASSERT_EQ(frame.size(), sizeof(kExpected));
  EXPECT_EQ(std::memcmp(frame.data(), kExpected, sizeof(kExpected)), 0);
}

TEST(WireFrameTest, DocumentedAppendSamplesFrameBytes) {
  // Stream "s1", samples [N=2, K=2] = {1, 2, 3, 4} (series-major).
  const uint8_t kExpected[] = {
      0x43, 0x46, 0x57, 0x50, 0x07, 0x13, 0x00, 0x00,
      0x1e, 0x00, 0x00, 0x00, 0x89, 0x85, 0x94, 0x52,
      0x02, 0x00, 0x00, 0x00, 0x73, 0x31, 0x02, 0x00,
      0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x80, 0x3f, 0x00, 0x00, 0x00, 0x40, 0x00, 0x00,
      0x40, 0x40, 0x00, 0x00, 0x80, 0x40,
  };
  wire::AppendSamplesMsg msg;
  msg.stream = "s1";
  msg.samples = Tensor::FromVector(Shape{2, 2}, {1.f, 2.f, 3.f, 4.f});
  const auto frame = wire::EncodeFrame(wire::MessageType::kAppendSamples,
                                       wire::EncodeAppendSamples(msg));
  ASSERT_EQ(frame.size(), sizeof(kExpected));
  EXPECT_EQ(std::memcmp(frame.data(), kExpected, sizeof(kExpected)), 0);
}

TEST(WireFrameTest, DocumentedAppendSamplesOkFrameBytes) {
  // total_samples 10, windows_emitted 2, windows_dropped 0,
  // windows_failed 0, pending 1, deduped_windows 1 (v3).
  const uint8_t kExpected[] = {
      0x43, 0x46, 0x57, 0x50, 0x07, 0x14, 0x00, 0x00,
      0x2c, 0x00, 0x00, 0x00, 0x13, 0x30, 0xdb, 0xfb,
      0x0a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00,
  };
  wire::AppendSamplesOkMsg msg;
  msg.total_samples = 10;
  msg.windows_emitted = 2;
  msg.pending = 1;
  msg.deduped_windows = 1;
  const auto frame = wire::EncodeFrame(wire::MessageType::kAppendSamplesOk,
                                       wire::EncodeAppendSamplesOk(msg));
  ASSERT_EQ(frame.size(), sizeof(kExpected));
  EXPECT_EQ(std::memcmp(frame.data(), kExpected, sizeof(kExpected)), 0);
}

TEST(WireFrameTest, DocumentedStatsResultFrameBytes) {
  // The §7.8 StatsResult dump: cache 7 hits / 2 misses / 1 eviction /
  // 0 expirations, 4/256 entries; batcher 9 requests, 5 batches (max 3),
  // 4 coalesced, 0 rejected; dedup 6 hits, 1 in flight; admission limit 2,
  // 1 shape bucket; server 1 connection, 12 frames, 0 wire errors; no
  // models; no shard rows (the trailing v6 count of 0).
  const uint8_t kExpected[] = {
      0x43, 0x46, 0x57, 0x50, 0x07, 0x0c, 0x00, 0x00,
      0x8c, 0x00, 0x00, 0x00, 0xac, 0xae, 0x90, 0x68,
      0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
      0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x0c, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00,
  };
  wire::StatsResultMsg msg;
  msg.cache_hits = 7;
  msg.cache_misses = 2;
  msg.cache_evictions = 1;
  msg.cache_size = 4;
  msg.cache_capacity = 256;
  msg.batch_requests = 9;
  msg.batch_batches = 5;
  msg.batch_coalesced = 4;
  msg.batch_max = 3;
  msg.dedup_hits = 6;
  msg.dedup_in_flight = 1;
  msg.batch_in_flight_limit = 2;
  msg.batch_shape_buckets = 1;
  msg.server_connections = 1;
  msg.server_frames = 12;
  const auto frame = wire::EncodeFrame(wire::MessageType::kStatsResult,
                                       wire::EncodeStatsResult(msg));
  ASSERT_EQ(frame.size(), sizeof(kExpected));
  EXPECT_EQ(std::memcmp(frame.data(), kExpected, sizeof(kExpected)), 0);
}

TEST(WireFrameTest, DocumentedShardedStatsResultFrameBytes) {
  // The second §7.8 dump: the same counters from a two-shard pool mid-drain
  // — shard 0 live (5 routed), shard 1 draining after 1 restart (4 routed).
  const uint8_t kExpected[] = {
      0x43, 0x46, 0x57, 0x50, 0x07, 0x0c, 0x00, 0x00,
      0x06, 0x01, 0x00, 0x00, 0x86, 0x82, 0xeb, 0x15,
      0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
      0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x0c, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x01, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x04, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
  };
  wire::StatsResultMsg msg;
  msg.cache_hits = 7;
  msg.cache_misses = 2;
  msg.cache_evictions = 1;
  msg.cache_size = 4;
  msg.cache_capacity = 256;
  msg.batch_requests = 9;
  msg.batch_batches = 5;
  msg.batch_coalesced = 4;
  msg.batch_max = 3;
  msg.dedup_hits = 6;
  msg.dedup_in_flight = 1;
  msg.batch_in_flight_limit = 2;
  msg.batch_shape_buckets = 1;
  msg.server_connections = 1;
  msg.server_frames = 12;
  wire::StatsResultMsg::Shard live;
  live.shard = 0;
  live.live = true;
  live.routed = 5;
  live.cache_hits = 4;
  live.cache_misses = 1;
  live.cache_size = 2;
  live.dedup_hits = 3;
  live.batch_batches = 3;
  wire::StatsResultMsg::Shard draining;
  draining.shard = 1;
  draining.draining = true;
  draining.routed = 4;
  draining.restarts = 1;
  draining.cache_hits = 3;
  draining.cache_misses = 1;
  draining.cache_size = 2;
  draining.dedup_hits = 3;
  draining.batch_batches = 2;
  msg.shards = {live, draining};
  const auto frame = wire::EncodeFrame(wire::MessageType::kStatsResult,
                                       wire::EncodeStatsResult(msg));
  ASSERT_EQ(frame.size(), sizeof(kExpected));
  EXPECT_EQ(std::memcmp(frame.data(), kExpected, sizeof(kExpected)), 0);
}

TEST(WireFrameTest, DocumentedStreamReportsFrameBytes) {
  // Stream "s1", max_reports 4.
  const uint8_t kExpected[] = {
      0x43, 0x46, 0x57, 0x50, 0x07, 0x15, 0x00, 0x00,
      0x0a, 0x00, 0x00, 0x00, 0x45, 0xc1, 0xea, 0x79,
      0x02, 0x00, 0x00, 0x00, 0x73, 0x31, 0x04, 0x00,
      0x00, 0x00,
  };
  wire::StreamReportsMsg msg;
  msg.stream = "s1";
  msg.max_reports = 4;
  const auto frame = wire::EncodeFrame(wire::MessageType::kStreamReports,
                                       wire::EncodeStreamReports(msg));
  ASSERT_EQ(frame.size(), sizeof(kExpected));
  EXPECT_EQ(std::memcmp(frame.data(), kExpected, sizeof(kExpected)), 0);
}

TEST(WireFrameTest, DocumentedStreamReportsResultFrameBytes) {
  // One report: window #3 starting at sample 6, has_baseline + drifted
  // (flags 0x06), batch 2, latency 0.5 s, n=2, one edge S0->S1(d=2, 1.0),
  // one consecutive drift, one edge added (also listed), mean Δ 0.25,
  // max Δ 0.5, jaccard 0, nothing removed.
  const uint8_t kExpected[] = {
      0x43, 0x46, 0x57, 0x50, 0x07, 0x16, 0x00, 0x00,
      0x85, 0x00, 0x00, 0x00, 0xcb, 0x65, 0x43, 0x3f,
      0x01, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x06, 0x02, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0,
      0x3f, 0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
      0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0xf0, 0x3f, 0x01, 0x00, 0x00,
      0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0,
      0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0,
      0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0,
      0x3f, 0x00, 0x00, 0x00, 0x00,
  };
  wire::StreamReportMsg report;
  report.window_index = 3;
  report.window_start = 6;
  report.has_baseline = true;
  report.drifted = true;
  report.batch_size = 2;
  report.latency_seconds = 0.5;
  report.num_series = 2;
  report.edges.push_back({0, 1, 2, 1.0});
  report.consecutive_drifts = 1;
  report.edges_added = 1;
  report.mean_abs_score_delta = 0.25;
  report.max_abs_score_delta = 0.5;
  report.jaccard = 0.0;
  report.added.push_back({0, 1, 2, 1.0});
  const auto frame =
      wire::EncodeFrame(wire::MessageType::kStreamReportsResult,
                        wire::EncodeStreamReportsResult({report}));
  ASSERT_EQ(frame.size(), sizeof(kExpected));
  EXPECT_EQ(std::memcmp(frame.data(), kExpected, sizeof(kExpected)), 0);
}

// The v4 metrics frames, byte for byte against the §7.9 hex dumps.

TEST(WireFrameTest, DocumentedMetricsFrameBytes) {
  // kMetrics carries no payload: header only, CRC of zero bytes is 0.
  const uint8_t kExpected[] = {
      0x43, 0x46, 0x57, 0x50, 0x07, 0x17, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
  };
  const auto frame = wire::EncodeFrame(wire::MessageType::kMetrics, {});
  ASSERT_EQ(frame.size(), sizeof(kExpected));
  EXPECT_EQ(std::memcmp(frame.data(), kExpected, sizeof(kExpected)), 0);
}

TEST(WireFrameTest, DocumentedMetricsResultFrameBytes) {
  // Exposition text "a 1\n", one histogram row: series "h" with count 1
  // and sum = p50 = p90 = p99 = 0.5.
  const uint8_t kExpected[] = {
      0x43, 0x46, 0x57, 0x50, 0x07, 0x18, 0x00, 0x00,
      0x39, 0x00, 0x00, 0x00, 0x33, 0x28, 0x27, 0xdf,
      0x04, 0x00, 0x00, 0x00, 0x61, 0x20, 0x31, 0x0a,
      0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
      0x68, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0,
      0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0,
      0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0,
      0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0,
      0x3f,
  };
  wire::MetricsResultMsg msg;
  msg.text = "a 1\n";
  wire::HistogramSummaryMsg row;
  row.name = "h";
  row.count = 1;
  row.sum = row.p50 = row.p90 = row.p99 = 0.5;
  msg.histograms.push_back(row);
  const auto frame = wire::EncodeFrame(wire::MessageType::kMetricsResult,
                                       wire::EncodeMetricsResult(msg));
  ASSERT_EQ(frame.size(), sizeof(kExpected));
  EXPECT_EQ(std::memcmp(frame.data(), kExpected, sizeof(kExpected)), 0);
}

// The v5 diagnostics frames, byte for byte against the §7.10 hex dumps.

TEST(WireFrameTest, DocumentedDumpFrameBytes) {
  // kDump carries no payload: header only, CRC of zero bytes is 0.
  const uint8_t kExpected[] = {
      0x43, 0x46, 0x57, 0x50, 0x07, 0x19, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
  };
  const auto frame = wire::EncodeFrame(wire::MessageType::kDump, {});
  ASSERT_EQ(frame.size(), sizeof(kExpected));
  EXPECT_EQ(std::memcmp(frame.data(), kExpected, sizeof(kExpected)), 0);
}

TEST(WireFrameTest, DocumentedDumpResultFrameBytes) {
  // A one-file bundle: "metrics.txt" containing "a 1\n".
  const uint8_t kExpected[] = {
      0x43, 0x46, 0x57, 0x50, 0x07, 0x1a, 0x00, 0x00,
      0x1b, 0x00, 0x00, 0x00, 0x5d, 0x4f, 0xb7, 0x3f,
      0x01, 0x00, 0x00, 0x00, 0x0b, 0x00, 0x00, 0x00,
      0x6d, 0x65, 0x74, 0x72, 0x69, 0x63, 0x73, 0x2e,
      0x74, 0x78, 0x74, 0x04, 0x00, 0x00, 0x00, 0x61,
      0x20, 0x31, 0x0a,
  };
  wire::DumpResultMsg msg;
  msg.files.push_back({"metrics.txt", "a 1\n"});
  const auto frame = wire::EncodeFrame(wire::MessageType::kDumpResult,
                                       wire::EncodeDumpResult(msg));
  ASSERT_EQ(frame.size(), sizeof(kExpected));
  EXPECT_EQ(std::memcmp(frame.data(), kExpected, sizeof(kExpected)), 0);
}

TEST(WireCodecTest, DumpResultRoundTrips) {
  wire::DumpResultMsg msg;
  msg.files.push_back({"logs.txt", "line one\nline two\n"});
  msg.files.push_back({"trace.json", "{\"traceEvents\":[]}\n"});
  msg.files.push_back({"empty.txt", ""});
  wire::DumpResultMsg decoded;
  ASSERT_TRUE(
      wire::DecodeDumpResult(wire::EncodeDumpResult(msg), &decoded).ok());
  ASSERT_EQ(decoded.files.size(), 3u);
  for (size_t i = 0; i < msg.files.size(); ++i) {
    EXPECT_EQ(decoded.files[i].name, msg.files[i].name);
    EXPECT_EQ(decoded.files[i].content, msg.files[i].content);
  }
}

TEST(WireCodecTest, DumpResultRejectsHostileCount) {
  // A tiny payload claiming 2^31 files must be rejected before any reserve.
  std::vector<uint8_t> payload = {0x00, 0x00, 0x00, 0x80};
  wire::DumpResultMsg msg;
  EXPECT_FALSE(wire::DecodeDumpResult(payload, &msg).ok());
}

TEST(WireCodecTest, DumpResultRejectsTrailingBytes) {
  wire::DumpResultMsg msg;
  msg.files.push_back({"a", "b"});
  auto payload = wire::EncodeDumpResult(msg);
  payload.push_back(0);
  wire::DumpResultMsg decoded;
  EXPECT_FALSE(wire::DecodeDumpResult(payload, &decoded).ok());
}

// The v7 profiling frames, byte for byte against the §7.11 hex dumps.

TEST(WireFrameTest, DocumentedProfileFrameBytes) {
  // A two-second sampling window: payload is one u32.
  const uint8_t kExpected[] = {
      0x43, 0x46, 0x57, 0x50, 0x07, 0x1b, 0x00, 0x00,
      0x04, 0x00, 0x00, 0x00, 0x97, 0x17, 0x4d, 0x8b,
      0x02, 0x00, 0x00, 0x00,
  };
  wire::ProfileMsg msg;
  msg.seconds = 2;
  const auto frame = wire::EncodeFrame(wire::MessageType::kProfile,
                                       wire::EncodeProfile(msg));
  ASSERT_EQ(frame.size(), sizeof(kExpected));
  EXPECT_EQ(std::memcmp(frame.data(), kExpected, sizeof(kExpected)), 0);
}

TEST(WireFrameTest, DocumentedProfileResultFrameBytes) {
  // 3 samples, 1 drop, folded text "a;b 3\n", chrome JSON "{}".
  const uint8_t kExpected[] = {
      0x43, 0x46, 0x57, 0x50, 0x07, 0x1c, 0x00, 0x00,
      0x20, 0x00, 0x00, 0x00, 0x67, 0xec, 0x7b, 0xed,
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x06, 0x00, 0x00, 0x00, 0x61, 0x3b, 0x62, 0x20,
      0x33, 0x0a, 0x02, 0x00, 0x00, 0x00, 0x7b, 0x7d,
  };
  wire::ProfileResultMsg msg;
  msg.samples = 3;
  msg.drops = 1;
  msg.folded = "a;b 3\n";
  msg.json = "{}";
  const auto frame = wire::EncodeFrame(wire::MessageType::kProfileResult,
                                       wire::EncodeProfileResult(msg));
  ASSERT_EQ(frame.size(), sizeof(kExpected));
  EXPECT_EQ(std::memcmp(frame.data(), kExpected, sizeof(kExpected)), 0);
}

TEST(WireCodecTest, ProfileRoundTrips) {
  wire::ProfileMsg msg;
  msg.seconds = 30;
  wire::ProfileMsg decoded;
  ASSERT_TRUE(wire::DecodeProfile(wire::EncodeProfile(msg), &decoded).ok());
  EXPECT_EQ(decoded.seconds, 30u);
}

TEST(WireCodecTest, ProfileRejectsTrailingBytes) {
  auto payload = wire::EncodeProfile(wire::ProfileMsg{});
  payload.push_back(0);
  wire::ProfileMsg decoded;
  EXPECT_FALSE(wire::DecodeProfile(payload, &decoded).ok());
}

TEST(WireCodecTest, ProfileResultRoundTrips) {
  wire::ProfileResultMsg msg;
  msg.samples = 1234567;
  msg.drops = 89;
  msg.folded = "cf-poll;PollLoop;read 41\ncf-exec-0;Detect 7\n";
  msg.json = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}";
  wire::ProfileResultMsg decoded;
  ASSERT_TRUE(
      wire::DecodeProfileResult(wire::EncodeProfileResult(msg), &decoded)
          .ok());
  EXPECT_EQ(decoded.samples, msg.samples);
  EXPECT_EQ(decoded.drops, msg.drops);
  EXPECT_EQ(decoded.folded, msg.folded);
  EXPECT_EQ(decoded.json, msg.json);
}

TEST(WireCodecTest, ProfileResultRejectsTruncation) {
  const auto payload = wire::EncodeProfileResult(wire::ProfileResultMsg{});
  for (size_t len = 0; len < payload.size(); ++len) {
    std::vector<uint8_t> prefix(payload.begin(), payload.begin() + len);
    wire::ProfileResultMsg decoded;
    EXPECT_FALSE(wire::DecodeProfileResult(prefix, &decoded).ok())
        << "prefix length " << len;
  }
}

// ---- Frame codec ----------------------------------------------------------

TEST(WireFrameTest, RoundTripPreservesTypeAndPayload) {
  const std::vector<uint8_t> payload = {1, 2, 3, 250, 0, 42};
  const auto bytes = wire::EncodeFrame(wire::MessageType::kStats, payload);
  const auto frame = MustDecode(bytes);
  EXPECT_EQ(frame.version, wire::kVersion);
  EXPECT_EQ(frame.type, wire::MessageType::kStats);
  EXPECT_EQ(frame.payload, payload);
}

TEST(WireFrameTest, EmptyPayloadRoundTrips) {
  const auto bytes = wire::EncodeFrame(wire::MessageType::kStats, {});
  const auto frame = MustDecode(bytes);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(WireFrameTest, EveryTruncationNeedsMore) {
  const auto bytes =
      wire::EncodeFrame(wire::MessageType::kPing, wire::EncodePing(7));
  for (size_t len = 0; len < bytes.size(); ++len) {
    wire::Frame frame;
    size_t consumed = 1;
    EXPECT_EQ(wire::DecodeFrame(bytes.data(), len, &frame, &consumed),
              wire::DecodeResult::kNeedMore)
        << "prefix length " << len;
    EXPECT_EQ(consumed, 0u);
  }
}

TEST(WireFrameTest, BadMagicDetectedFromFirstByte) {
  auto bytes = wire::EncodeFrame(wire::MessageType::kPing, wire::EncodePing(7));
  bytes[0] = 'X';
  wire::Frame frame;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(wire::DecodeFrame(bytes.data(), bytes.size(), &frame, &consumed,
                              &error),
            wire::DecodeResult::kBadMagic);
  // A single wrong byte anywhere in the magic is enough, even pre-header.
  const uint8_t garbage[] = {'C', 'F', 'W', 'X'};
  EXPECT_EQ(wire::DecodeFrame(garbage, sizeof(garbage), &frame, &consumed),
            wire::DecodeResult::kBadMagic);
}

TEST(WireFrameTest, ReservedBytesMustBeZero) {
  auto bytes = wire::EncodeFrame(wire::MessageType::kPing, wire::EncodePing(7));
  bytes[6] = 1;
  wire::Frame frame;
  size_t consumed = 0;
  EXPECT_EQ(wire::DecodeFrame(bytes.data(), bytes.size(), &frame, &consumed),
            wire::DecodeResult::kMalformed);
}

TEST(WireFrameTest, UnknownMessageTypeIsMalformed) {
  auto bytes = wire::EncodeFrame(wire::MessageType::kPing, wire::EncodePing(7));
  for (const uint8_t type : {uint8_t{0}, uint8_t{14}, uint8_t{255}}) {
    bytes[5] = type;
    wire::Frame frame;
    size_t consumed = 0;
    EXPECT_EQ(wire::DecodeFrame(bytes.data(), bytes.size(), &frame, &consumed),
              wire::DecodeResult::kMalformed);
  }
}

TEST(WireFrameTest, OversizedLengthIsMalformed) {
  auto bytes = wire::EncodeFrame(wire::MessageType::kPing, wire::EncodePing(7));
  const uint32_t huge = wire::kMaxPayload + 1;
  for (int i = 0; i < 4; ++i) {
    bytes[8 + static_cast<size_t>(i)] = static_cast<uint8_t>(huge >> (8 * i));
  }
  wire::Frame frame;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(wire::DecodeFrame(bytes.data(), bytes.size(), &frame, &consumed,
                              &error),
            wire::DecodeResult::kMalformed);
  EXPECT_NE(error.find("kMaxPayload"), std::string::npos);
}

TEST(WireFrameTest, PayloadCorruptionFailsCrc) {
  const auto clean =
      wire::EncodeFrame(wire::MessageType::kPing, wire::EncodePing(7));
  // Flip every payload byte (and the CRC itself) one at a time.
  for (size_t i = 12; i < clean.size(); ++i) {
    auto bytes = clean;
    bytes[i] ^= 0x20;
    wire::Frame frame;
    size_t consumed = 0;
    EXPECT_EQ(wire::DecodeFrame(bytes.data(), bytes.size(), &frame, &consumed),
              wire::DecodeResult::kMalformed)
        << "flipped byte " << i;
  }
}

TEST(WireFrameTest, HeaderByteFlipsNeverCrash) {
  const auto clean =
      wire::EncodeFrame(wire::MessageType::kDetect,
                        wire::EncodePing(0xDEADBEEFull));
  for (size_t i = 0; i < clean.size(); ++i) {
    for (const uint8_t mask : {0x01, 0x80, 0xFF}) {
      auto bytes = clean;
      bytes[i] ^= mask;
      wire::Frame frame;
      size_t consumed = 0;
      // Any outcome is fine; decoding must simply never crash or overread.
      (void)wire::DecodeFrame(bytes.data(), bytes.size(), &frame, &consumed);
    }
  }
}

TEST(WireFrameTest, RandomGarbageNeverCrashes) {
  Rng rng(123);
  for (int round = 0; round < 200; ++round) {
    std::vector<uint8_t> bytes(static_cast<size_t>(rng.UniformInt(128)));
    for (auto& b : bytes) b = static_cast<uint8_t>(rng.UniformInt(256));
    wire::Frame frame;
    size_t consumed = 0;
    (void)wire::DecodeFrame(bytes.data(), bytes.size(), &frame, &consumed);
  }
}

TEST(WireFrameTest, BackToBackFramesDecodeSequentially) {
  auto bytes = wire::EncodeFrame(wire::MessageType::kPing, wire::EncodePing(1));
  const auto second =
      wire::EncodeFrame(wire::MessageType::kStats, {});
  bytes.insert(bytes.end(), second.begin(), second.end());

  wire::Frame frame;
  size_t consumed = 0;
  ASSERT_EQ(wire::DecodeFrame(bytes.data(), bytes.size(), &frame, &consumed),
            wire::DecodeResult::kFrame);
  EXPECT_EQ(frame.type, wire::MessageType::kPing);
  const size_t first_size = consumed;
  ASSERT_EQ(wire::DecodeFrame(bytes.data() + first_size,
                              bytes.size() - first_size, &frame, &consumed),
            wire::DecodeResult::kFrame);
  EXPECT_EQ(frame.type, wire::MessageType::kStats);
  EXPECT_EQ(first_size + consumed, bytes.size());
}

// ---- Typed payload codecs -------------------------------------------------

TEST(WireMessageTest, DetectRoundTrip) {
  wire::DetectMsg msg;
  msg.model = "prod";
  msg.options.num_clusters = 3;
  msg.options.top_clusters = 2;
  msg.options.max_windows = 5;
  msg.options.use_relevance = false;
  msg.options.epsilon = 0.25f;
  msg.windows = RandomWindows(2, 99);

  wire::DetectMsg decoded;
  ASSERT_TRUE(wire::DecodeDetect(wire::EncodeDetect(msg), &decoded).ok());
  EXPECT_EQ(decoded.model, "prod");
  EXPECT_TRUE(SameDetectorOptions(decoded.options, msg.options));
  ASSERT_EQ(decoded.windows.shape(), msg.windows.shape());
  EXPECT_EQ(std::memcmp(decoded.windows.data(), msg.windows.data(),
                        sizeof(float) * static_cast<size_t>(
                                            msg.windows.numel())),
            0);
}

TEST(WireMessageTest, DetectRejectsReservedFlagBits) {
  wire::DetectMsg msg;
  msg.model = "m";
  msg.windows = RandomWindows(1, 5);
  auto payload = wire::EncodeDetect(msg);
  // The flags byte sits after the 4+1 string and 4+4+8 option ints.
  payload[4 + 1 + 4 + 4 + 8] = 0x1F;
  wire::DetectMsg decoded;
  const Status st = wire::DecodeDetect(payload, &decoded);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("reserved flag bits"), std::string::npos);
}

TEST(WireMessageTest, EveryDetectPayloadTruncationFails) {
  wire::DetectMsg msg;
  msg.model = "abc";
  msg.windows = RandomWindows(1, 3);
  const auto payload = wire::EncodeDetect(msg);
  for (size_t len = 0; len < payload.size(); ++len) {
    std::vector<uint8_t> prefix(payload.begin(),
                                payload.begin() + static_cast<long>(len));
    wire::DetectMsg decoded;
    EXPECT_FALSE(wire::DecodeDetect(prefix, &decoded).ok())
        << "prefix length " << len;
  }
}

TEST(WireMessageTest, DetectRejectsOverflowingWindowDims) {
  // b = n = 2^31 makes b*n*t*4 wrap to 0 mod 2^64; a product-based size
  // check would pass and attempt an enormous allocation (remote DoS).
  std::vector<uint8_t> payload;
  wire::PayloadWriter w(&payload);
  w.Str("m");
  w.I32(2);
  w.I32(1);
  w.I64(32);
  w.U8(0x0F);
  w.F32(1e-6f);
  w.U32(0x80000000u);  // B
  w.U32(0x80000000u);  // N
  w.U32(1);            // T
  w.F32(0.0f);
  wire::DetectMsg decoded;
  EXPECT_FALSE(wire::DecodeDetect(payload, &decoded).ok());
}

TEST(WireMessageTest, DetectResultRejectsOverflowingSeriesCount) {
  // n = 2^31 makes n*n*12 wrap to 0 mod 2^64; a product-based check would
  // pass and construct a DetectionResult of INT_MIN series client-side.
  std::vector<uint8_t> payload;
  wire::PayloadWriter w(&payload);
  w.U8(0);
  w.I32(1);
  w.F64(0.0);
  w.U32(0x80000000u);  // n
  wire::DetectResultMsg decoded;
  EXPECT_FALSE(wire::DecodeDetectResult(payload, &decoded).ok());
}

TEST(WireMessageTest, DetectResultRoundTrip) {
  wire::DetectResultMsg msg;
  msg.cache_hit = true;
  msg.deduped = true;
  msg.batch_size = 4;
  msg.latency_seconds = 0.125;
  msg.result = core::DetectionResult(3);
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      msg.result.scores.set(a, b, a * 10.0 + b + 0.5);
      msg.result.delays[static_cast<size_t>(a)][static_cast<size_t>(b)] =
          a + b;
    }
  }
  msg.result.graph.AddEdge(0, 1, 2, 0.75);
  msg.result.graph.AddEdge(2, 2, 1, 1.0);

  wire::DetectResultMsg decoded;
  ASSERT_TRUE(
      wire::DecodeDetectResult(wire::EncodeDetectResult(msg), &decoded).ok());
  EXPECT_TRUE(decoded.cache_hit);
  EXPECT_TRUE(decoded.deduped);
  EXPECT_EQ(decoded.batch_size, 4);
  EXPECT_EQ(decoded.latency_seconds, 0.125);
  ASSERT_EQ(decoded.result.scores.num_series(), 3);
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      EXPECT_EQ(decoded.result.scores.at(a, b), msg.result.scores.at(a, b));
      EXPECT_EQ(decoded.result.delays[static_cast<size_t>(a)]
                                     [static_cast<size_t>(b)],
                a + b);
    }
  }
  EXPECT_EQ(decoded.result.graph.num_edges(), 2);
  EXPECT_TRUE(decoded.result.graph.HasEdge(0, 1));
  EXPECT_EQ(decoded.result.graph.FindEdge(0, 1)->delay, 2);
}

TEST(WireMessageTest, DetectResultRejectsOutOfRangeEdge) {
  wire::DetectResultMsg msg;
  msg.result = core::DetectionResult(2);
  auto payload = wire::EncodeDetectResult(msg);
  // Append a forged edge with endpoints outside [0, 2).
  wire::PayloadWriter w(&payload);
  w.I32(5);
  w.I32(0);
  w.I32(0);
  w.F64(1.0);
  // Patch the edge count (last u32 before the appended edge).
  const size_t count_at = payload.size() - 20 - 4;
  payload[count_at] = 1;
  wire::DetectResultMsg decoded;
  EXPECT_FALSE(wire::DecodeDetectResult(payload, &decoded).ok());
}

TEST(WireMessageTest, LoadModelRoundTrip) {
  wire::LoadModelMsg msg;
  msg.name = "prod";
  msg.checkpoint_path = "/tmp/ck.cfpm";
  msg.options = TinyModelOptions(5, 12);
  msg.options.tau = 2.5f;
  msg.options.multi_kernel = false;

  wire::LoadModelMsg decoded;
  ASSERT_TRUE(
      wire::DecodeLoadModel(wire::EncodeLoadModel(msg), &decoded).ok());
  EXPECT_EQ(decoded.name, "prod");
  EXPECT_EQ(decoded.checkpoint_path, "/tmp/ck.cfpm");
  EXPECT_EQ(decoded.options.num_series, 5);
  EXPECT_EQ(decoded.options.window, 12);
  EXPECT_EQ(decoded.options.tau, 2.5f);
  EXPECT_FALSE(decoded.options.multi_kernel);
}

TEST(WireMessageTest, StatsResultRoundTrip) {
  wire::StatsResultMsg msg;
  msg.cache_hits = 10;
  msg.cache_misses = 20;
  msg.cache_expirations = 5;
  msg.batch_requests = 30;
  msg.batch_max = 7;
  msg.dedup_hits = 11;
  msg.dedup_in_flight = 2;
  msg.batch_in_flight_limit = 3;
  msg.batch_shape_buckets = 4;
  msg.server_connections = 3;
  wire::StatsResultMsg::Model model;
  model.name = "m";
  model.num_parameters = 1667;
  model.generation = 2;
  model.num_series = 3;
  model.window = 8;
  msg.models.push_back(model);

  wire::StatsResultMsg decoded;
  ASSERT_TRUE(
      wire::DecodeStatsResult(wire::EncodeStatsResult(msg), &decoded).ok());
  EXPECT_EQ(decoded.cache_hits, 10u);
  EXPECT_EQ(decoded.cache_expirations, 5u);
  EXPECT_EQ(decoded.batch_max, 7);
  EXPECT_EQ(decoded.dedup_hits, 11u);
  EXPECT_EQ(decoded.dedup_in_flight, 2u);
  EXPECT_EQ(decoded.batch_in_flight_limit, 3);
  EXPECT_EQ(decoded.batch_shape_buckets, 4);
  ASSERT_EQ(decoded.models.size(), 1u);
  EXPECT_EQ(decoded.models[0].name, "m");
  EXPECT_EQ(decoded.models[0].window, 8);
  EXPECT_TRUE(decoded.shards.empty());
}

TEST(WireMessageTest, StatsResultShardRowsRoundTrip) {
  wire::StatsResultMsg msg;
  msg.cache_hits = 3;
  wire::StatsResultMsg::Shard live;
  live.shard = 0;
  live.live = true;
  live.draining = false;
  live.routed = 100;
  live.restarts = 1;
  live.cache_hits = 40;
  live.cache_misses = 60;
  live.cache_size = 7;
  live.dedup_hits = 12;
  live.batch_batches = 55;
  wire::StatsResultMsg::Shard draining;
  draining.shard = 3;
  draining.live = false;
  draining.draining = true;
  draining.routed = 42;
  msg.shards = {live, draining};

  wire::StatsResultMsg decoded;
  ASSERT_TRUE(
      wire::DecodeStatsResult(wire::EncodeStatsResult(msg), &decoded).ok());
  ASSERT_EQ(decoded.shards.size(), 2u);
  EXPECT_EQ(decoded.shards[0].shard, 0u);
  EXPECT_TRUE(decoded.shards[0].live);
  EXPECT_FALSE(decoded.shards[0].draining);
  EXPECT_EQ(decoded.shards[0].routed, 100u);
  EXPECT_EQ(decoded.shards[0].restarts, 1u);
  EXPECT_EQ(decoded.shards[0].cache_hits, 40u);
  EXPECT_EQ(decoded.shards[0].cache_misses, 60u);
  EXPECT_EQ(decoded.shards[0].cache_size, 7u);
  EXPECT_EQ(decoded.shards[0].dedup_hits, 12u);
  EXPECT_EQ(decoded.shards[0].batch_batches, 55u);
  EXPECT_EQ(decoded.shards[1].shard, 3u);
  EXPECT_FALSE(decoded.shards[1].live);
  EXPECT_TRUE(decoded.shards[1].draining);
  EXPECT_EQ(decoded.shards[1].routed, 42u);
}

TEST(WireMessageTest, StatsResultRejectsReservedShardFlagBits) {
  wire::StatsResultMsg msg;
  wire::StatsResultMsg::Shard shard;
  shard.shard = 0;
  shard.live = true;
  msg.shards = {shard};
  std::vector<uint8_t> payload = wire::EncodeStatsResult(msg);
  // The shard row's flags byte sits 4 bytes into the 61-byte trailing row
  // (after its u32 shard index). Set a reserved bit; decode must reject.
  payload[payload.size() - 61 + 4] |= 0x80;
  wire::StatsResultMsg decoded;
  EXPECT_FALSE(wire::DecodeStatsResult(payload, &decoded).ok());
}

TEST(WireMessageTest, StatsResultRejectsHostileShardCount) {
  // A count claiming more 61-byte rows than bytes remain must fail fast on
  // the plausibility check, not attempt a giant reserve.
  wire::StatsResultMsg msg;
  std::vector<uint8_t> payload = wire::EncodeStatsResult(msg);
  // Trailing u32 shard count: overwrite 0 with a hostile value.
  payload[payload.size() - 4] = 0xff;
  payload[payload.size() - 3] = 0xff;
  payload[payload.size() - 2] = 0xff;
  payload[payload.size() - 1] = 0x7f;
  wire::StatsResultMsg decoded;
  EXPECT_FALSE(wire::DecodeStatsResult(payload, &decoded).ok());
}

// ---- Streaming messages (v2) ----------------------------------------------

TEST(WireMessageTest, StreamOpenRoundTrip) {
  wire::StreamOpenMsg msg;
  msg.stream = "sensors";
  msg.model = "prod";
  msg.window = 16;
  msg.stride = 4;
  msg.history = 128;
  msg.max_in_flight = 2;
  msg.max_reports = 64;
  msg.options.num_clusters = 3;
  msg.options.use_gradient = false;
  msg.drift_score_threshold = 0.5;
  msg.drift_flip_threshold = 0.25;
  msg.stability_window = 5;

  wire::StreamOpenMsg decoded;
  ASSERT_TRUE(
      wire::DecodeStreamOpen(wire::EncodeStreamOpen(msg), &decoded).ok());
  EXPECT_EQ(decoded.stream, "sensors");
  EXPECT_EQ(decoded.model, "prod");
  EXPECT_EQ(decoded.window, 16);
  EXPECT_EQ(decoded.stride, 4);
  EXPECT_EQ(decoded.history, 128);
  EXPECT_EQ(decoded.max_in_flight, 2u);
  EXPECT_EQ(decoded.max_reports, 64u);
  EXPECT_EQ(decoded.options.num_clusters, 3);
  EXPECT_FALSE(decoded.options.use_gradient);
  EXPECT_EQ(decoded.drift_score_threshold, 0.5);
  EXPECT_EQ(decoded.drift_flip_threshold, 0.25);
  EXPECT_EQ(decoded.stability_window, 5);
}

TEST(WireMessageTest, AppendSamplesRoundTripPreservesData) {
  wire::AppendSamplesMsg msg;
  msg.stream = "s";
  msg.samples =
      Tensor::FromVector(Shape{3, 2}, {1.f, -2.f, 3.5f, 0.f, 1e-8f, 4e6f});

  wire::AppendSamplesMsg decoded;
  ASSERT_TRUE(
      wire::DecodeAppendSamples(wire::EncodeAppendSamples(msg), &decoded)
          .ok());
  EXPECT_EQ(decoded.stream, "s");
  ASSERT_EQ(decoded.samples.dim(0), 3);
  ASSERT_EQ(decoded.samples.dim(1), 2);
  for (int64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(decoded.samples.data()[i], msg.samples.data()[i]);
  }
}

TEST(WireMessageTest, AppendSamplesRejectsTruncatedData) {
  wire::AppendSamplesMsg msg;
  msg.stream = "s";
  msg.samples = Tensor::FromVector(Shape{2, 2}, {1.f, 2.f, 3.f, 4.f});
  auto payload = wire::EncodeAppendSamples(msg);
  payload.resize(payload.size() - 4);  // lose the last float
  wire::AppendSamplesMsg decoded;
  EXPECT_FALSE(wire::DecodeAppendSamples(payload, &decoded).ok());
}

TEST(WireMessageTest, StreamReportRoundTripPreservesDriftFields) {
  wire::StreamReportMsg report;
  report.window_index = 41;
  report.window_start = 120;
  report.cache_hit = true;
  report.deduped = true;
  report.has_baseline = true;
  report.drifted = true;
  report.regime_change = true;
  report.batch_size = 3;
  report.latency_seconds = 0.0125;
  report.num_series = 3;
  report.edges.push_back({0, 1, 2, 0.75});
  report.edges.push_back({2, 2, 1, 0.5});
  report.consecutive_drifts = 4;
  report.edges_added = 1;
  report.edges_removed = 2;
  report.edges_kept = 1;
  report.delay_changes = 1;
  report.mean_abs_score_delta = 0.125;
  report.max_abs_score_delta = 0.5;
  report.jaccard = 0.25;
  report.added.push_back({0, 1, 2, 0.75});
  report.removed.push_back({1, 0, 3, 0.25});

  std::vector<wire::StreamReportMsg> decoded;
  ASSERT_TRUE(wire::DecodeStreamReportsResult(
                  wire::EncodeStreamReportsResult({report}), &decoded)
                  .ok());
  ASSERT_EQ(decoded.size(), 1u);
  const auto& got = decoded[0];
  EXPECT_EQ(got.window_index, 41u);
  EXPECT_EQ(got.window_start, 120);
  EXPECT_TRUE(got.cache_hit);
  EXPECT_TRUE(got.deduped);
  EXPECT_TRUE(got.has_baseline);
  EXPECT_TRUE(got.drifted);
  EXPECT_TRUE(got.regime_change);
  EXPECT_EQ(got.batch_size, 3);
  EXPECT_EQ(got.latency_seconds, 0.0125);
  ASSERT_EQ(got.edges.size(), 2u);
  EXPECT_EQ(got.edges[1].from, 2);
  EXPECT_EQ(got.edges[1].delay, 1);
  EXPECT_EQ(got.consecutive_drifts, 4);
  EXPECT_EQ(got.edges_added, 1);
  EXPECT_EQ(got.edges_removed, 2);
  EXPECT_EQ(got.edges_kept, 1);
  EXPECT_EQ(got.delay_changes, 1);
  EXPECT_EQ(got.mean_abs_score_delta, 0.125);
  EXPECT_EQ(got.max_abs_score_delta, 0.5);
  EXPECT_EQ(got.jaccard, 0.25);
  ASSERT_EQ(got.added.size(), 1u);
  ASSERT_EQ(got.removed.size(), 1u);
  EXPECT_EQ(got.removed[0].delay, 3);
}

TEST(WireMessageTest, StreamReportRejectsReservedFlagBits) {
  wire::StreamReportMsg report;
  report.num_series = 1;
  auto payload = wire::EncodeStreamReportsResult({report});
  // Payload layout: u32 count, u64 index, i64 start, then the flags byte.
  // Bit 4 became `deduped` in v3; bit 5 is the lowest still-reserved bit.
  payload[4 + 8 + 8] |= 0x20;
  std::vector<wire::StreamReportMsg> decoded;
  EXPECT_FALSE(wire::DecodeStreamReportsResult(payload, &decoded).ok());
}

TEST(WireMessageTest, StreamReportRejectsEdgeEndpointOutOfRange) {
  wire::StreamReportMsg report;
  report.num_series = 2;
  report.edges.push_back({0, 5, 0, 1.0});  // endpoint 5 out of [0, 2)
  auto payload = wire::EncodeStreamReportsResult({report});
  std::vector<wire::StreamReportMsg> decoded;
  EXPECT_FALSE(wire::DecodeStreamReportsResult(payload, &decoded).ok());
}

TEST(WireMessageTest, StreamReportsRequestRoundTrip) {
  wire::StreamReportsMsg msg;
  msg.stream = "sensors";
  msg.max_reports = 17;
  wire::StreamReportsMsg decoded;
  ASSERT_TRUE(
      wire::DecodeStreamReports(wire::EncodeStreamReports(msg), &decoded)
          .ok());
  EXPECT_EQ(decoded.stream, "sensors");
  EXPECT_EQ(decoded.max_reports, 17u);
}

TEST(WireMessageTest, StreamOpenOkAndAppendOkRoundTrip) {
  wire::StreamOpenOkMsg ok;
  ok.window = 8;
  ok.stride = 2;
  ok.history = 64;
  wire::StreamOpenOkMsg ok_decoded;
  ASSERT_TRUE(
      wire::DecodeStreamOpenOk(wire::EncodeStreamOpenOk(ok), &ok_decoded)
          .ok());
  EXPECT_EQ(ok_decoded.window, 8);
  EXPECT_EQ(ok_decoded.history, 64);

  wire::AppendSamplesOkMsg ack;
  ack.total_samples = 100;
  ack.windows_emitted = 47;
  ack.windows_dropped = 3;
  ack.windows_failed = 1;
  ack.pending = 2;
  ack.deduped_windows = 9;
  wire::AppendSamplesOkMsg ack_decoded;
  ASSERT_TRUE(wire::DecodeAppendSamplesOk(wire::EncodeAppendSamplesOk(ack),
                                          &ack_decoded)
                  .ok());
  EXPECT_EQ(ack_decoded.total_samples, 100u);
  EXPECT_EQ(ack_decoded.windows_emitted, 47u);
  EXPECT_EQ(ack_decoded.windows_dropped, 3u);
  EXPECT_EQ(ack_decoded.windows_failed, 1u);
  EXPECT_EQ(ack_decoded.pending, 2u);
  EXPECT_EQ(ack_decoded.deduped_windows, 9u);
}

TEST(WireMessageTest, MetricsResultRoundTrip) {
  wire::MetricsResultMsg msg;
  msg.text =
      "# TYPE serve_requests_total counter\nserve_requests_total 3\n";
  wire::HistogramSummaryMsg row;
  row.name = "serve_request_latency_seconds";
  row.count = 3;
  row.sum = 0.75;
  row.p50 = 0.2;
  row.p90 = 0.4;
  row.p99 = 0.5;
  msg.histograms.push_back(row);
  row.name = "kernel_seconds{kernel=\"matmul\"}";
  row.count = 12;
  msg.histograms.push_back(row);
  const auto payload = wire::EncodeMetricsResult(msg);
  wire::MetricsResultMsg decoded;
  ASSERT_TRUE(wire::DecodeMetricsResult(payload, &decoded).ok());
  EXPECT_EQ(decoded.text, msg.text);
  ASSERT_EQ(decoded.histograms.size(), 2u);
  EXPECT_EQ(decoded.histograms[0].name, "serve_request_latency_seconds");
  EXPECT_EQ(decoded.histograms[0].count, 3u);
  EXPECT_EQ(decoded.histograms[0].sum, 0.75);
  EXPECT_EQ(decoded.histograms[0].p50, 0.2);
  EXPECT_EQ(decoded.histograms[0].p90, 0.4);
  EXPECT_EQ(decoded.histograms[0].p99, 0.5);
  EXPECT_EQ(decoded.histograms[1].name, "kernel_seconds{kernel=\"matmul\"}");
  EXPECT_EQ(decoded.histograms[1].count, 12u);
}

TEST(WireMessageTest, MetricsResultRejectsHostileRowCount) {
  // Empty text, then a row count far beyond the remaining bytes: the
  // decoder must reject it before allocating anything.
  const std::vector<uint8_t> payload = {0x00, 0x00, 0x00, 0x00,
                                        0xff, 0xff, 0xff, 0xff};
  wire::MetricsResultMsg decoded;
  EXPECT_FALSE(wire::DecodeMetricsResult(payload, &decoded).ok());
}

TEST(WireMessageTest, EveryMetricsResultTruncationFails) {
  wire::MetricsResultMsg msg;
  msg.text = "x 1\n";
  wire::HistogramSummaryMsg row;
  row.name = "h_seconds";
  row.count = 2;
  row.sum = 1.0;
  msg.histograms.push_back(row);
  const auto payload = wire::EncodeMetricsResult(msg);
  for (size_t len = 0; len < payload.size(); ++len) {
    wire::MetricsResultMsg decoded;
    const std::vector<uint8_t> truncated(payload.begin(),
                                         payload.begin() + len);
    EXPECT_FALSE(wire::DecodeMetricsResult(truncated, &decoded).ok())
        << "truncation at " << len << " decoded";
  }
}

TEST(WireMessageTest, ErrorRoundTripPreservesCode) {
  const auto payload =
      wire::EncodeError(Status::NotFound("model 'x' is not registered"));
  wire::ErrorMsg msg;
  ASSERT_TRUE(wire::DecodeError(payload, &msg).ok());
  const Status st = wire::ErrorToStatus(msg);
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.message(), "model 'x' is not registered");
}

TEST(WireMessageTest, TrailingBytesRejected) {
  auto payload = wire::EncodePing(7);
  payload.push_back(0);
  uint64_t token = 0;
  EXPECT_FALSE(wire::DecodePing(payload, &token).ok());
}

// ---- Loopback server/client ----------------------------------------------

/// A raw TCP connection speaking hand-crafted bytes, for tests the typed
/// WireClient cannot express (bad versions, corrupt frames, pipelining).
class RawConn {
 public:
  explicit RawConn(uint16_t port) {
    auto fd = TcpConnect("127.0.0.1", port);
    CF_CHECK(fd.ok()) << fd.status().ToString();
    fd_ = *fd;
  }
  ~RawConn() { TcpClose(fd_); }

  void Send(const std::vector<uint8_t>& bytes) {
    ASSERT_TRUE(SendAll(fd_, bytes.data(), bytes.size()).ok());
  }

  // Reads one frame; false on EOF/close.
  bool Recv(wire::Frame* frame) {
    uint8_t header[wire::kHeaderSize];
    if (!RecvAll(fd_, header, sizeof(header)).ok()) return false;
    wire::PayloadReader r(header + 8, 8);
    uint32_t length = 0, crc = 0;
    (void)r.U32(&length);
    (void)r.U32(&crc);
    frame->version = header[4];
    frame->type = static_cast<wire::MessageType>(header[5]);
    frame->payload.resize(length);
    if (length > 0 && !RecvAll(fd_, frame->payload.data(), length).ok()) {
      return false;
    }
    return Crc32(frame->payload.data(), length) == crc;
  }

  bool Eof() {
    uint8_t byte;
    return !RecvAll(fd_, &byte, 1).ok();
  }

 private:
  int fd_ = -1;
};

class WireLoopbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(registry_.Register("m", TinyModel()).ok());
    engine_ = std::make_unique<InferenceEngine>(&registry_);
    server_ = std::make_unique<WireServer>(engine_.get());
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->port(), 0);
    ASSERT_TRUE(client_.Connect("127.0.0.1", server_->port()).ok());
  }

  void ExpectSameResult(const core::DetectionResult& a,
                        const core::DetectionResult& b) {
    ASSERT_EQ(a.scores.num_series(), b.scores.num_series());
    for (int i = 0; i < a.scores.num_series(); ++i) {
      for (int j = 0; j < a.scores.num_series(); ++j) {
        EXPECT_EQ(a.scores.at(i, j), b.scores.at(i, j));
        EXPECT_EQ(a.delays[static_cast<size_t>(i)][static_cast<size_t>(j)],
                  b.delays[static_cast<size_t>(i)][static_cast<size_t>(j)]);
      }
    }
    EXPECT_EQ(a.graph.num_edges(), b.graph.num_edges());
  }

  ModelRegistry registry_;
  std::unique_ptr<InferenceEngine> engine_;
  std::unique_ptr<WireServer> server_;
  WireClient client_;
};

TEST_F(WireLoopbackTest, PingEchoesToken) {
  const auto pong = client_.Ping(0xABCDEF0123456789ull);
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(*pong, 0xABCDEF0123456789ull);
}

TEST_F(WireLoopbackTest, DetectMatchesInProcessEngine) {
  const Tensor windows = RandomWindows(2, 42);
  const auto remote = client_.Detect("m", windows);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();

  // A cache-less engine over the same registry computes the reference.
  EngineOptions solo_opts;
  solo_opts.cache_capacity = 0;
  InferenceEngine solo(&registry_, solo_opts);
  DiscoveryRequest request;
  request.model = "m";
  request.windows = windows;
  const auto local = solo.Discover(std::move(request));
  ASSERT_TRUE(local.status.ok());
  ExpectSameResult(remote->result, *local.result);
}

TEST_F(WireLoopbackTest, RepeatDetectHitsServerCache) {
  const Tensor windows = RandomWindows(2, 43);
  const auto cold = client_.Detect("m", windows);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->cache_hit);
  const auto warm = client_.Detect("m", windows);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit);
  ExpectSameResult(cold->result, warm->result);
}

TEST_F(WireLoopbackTest, UnknownModelAnswersNotFound) {
  const auto result = client_.Detect("nope", RandomWindows(1, 44));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  // The connection survives a request-level error.
  EXPECT_TRUE(client_.Ping(1).ok());
}

TEST_F(WireLoopbackTest, BadGeometryAnswersInvalidArgument) {
  Rng rng(4);
  const auto result =
      client_.Detect("m", Tensor::Randn(Shape{1, 2, 8}, &rng));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(WireLoopbackTest, DetectBatchMatchesIndividualDetects) {
  std::vector<Tensor> batches = {RandomWindows(2, 50), RandomWindows(1, 51),
                                 RandomWindows(3, 52)};
  const auto results = client_.DetectBatch("m", batches);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), 3u);
  for (size_t i = 0; i < batches.size(); ++i) {
    const auto single = client_.Detect("m", batches[i]);
    ASSERT_TRUE(single.ok());
    ExpectSameResult((*results)[static_cast<size_t>(i)].result,
                     single->result);
  }
}

TEST_F(WireLoopbackTest, DetectBatchWithUnknownModelFailsWhole) {
  const auto results =
      client_.DetectBatch("nope", {RandomWindows(1, 53), RandomWindows(1, 54)});
  ASSERT_FALSE(results.ok());
  EXPECT_EQ(results.status().code(), StatusCode::kNotFound);
}

TEST_F(WireLoopbackTest, StatsReportModelsAndTraffic) {
  ASSERT_TRUE(client_.Detect("m", RandomWindows(1, 55)).ok());
  const auto stats = client_.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats->models.size(), 1u);
  EXPECT_EQ(stats->models[0].name, "m");
  EXPECT_EQ(stats->models[0].num_series, 3);
  EXPECT_EQ(stats->models[0].window, 8);
  EXPECT_GE(stats->batch_requests, 1u);
  EXPECT_GE(stats->server_frames, 2u);
  EXPECT_EQ(stats->server_connections, 1u);
}

TEST_F(WireLoopbackTest, LoadAndUnloadOverTheWire) {
  const std::string path = "wire_test_ck.cfpm";
  {
    auto model = TinyModel(21);
    ASSERT_TRUE(SaveParameters(*model, path).ok());
  }
  const auto loaded = client_.LoadModel("m2", path, TinyModelOptions());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_GT(loaded->num_parameters, 0);
  EXPECT_GT(loaded->generation, 1u);

  const auto result = client_.Detect("m2", RandomWindows(1, 60));
  EXPECT_TRUE(result.ok()) << result.status().ToString();

  ASSERT_TRUE(client_.UnloadModel("m2").ok());
  const auto after = client_.Detect("m2", RandomWindows(1, 61));
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kNotFound);
  std::remove(path.c_str());
}

TEST_F(WireLoopbackTest, PipelinedFramesObserveEarlierLoadModel) {
  // LoadModel runs on a worker thread, but a Detect pipelined behind it on
  // the same connection must still see the loaded model: the server parks
  // the connection's later frames until the load's effects are visible
  // (per-connection effect order == per-connection response order).
  const std::string path = "wire_test_pipeline_ck.cfpm";
  {
    auto model = TinyModel(31);
    ASSERT_TRUE(SaveParameters(*model, path).ok());
  }
  wire::LoadModelMsg load;
  load.name = "m3";
  load.checkpoint_path = path;
  load.options = TinyModelOptions();
  wire::DetectMsg detect;
  detect.model = "m3";
  detect.windows = RandomWindows(1, 62);
  ASSERT_TRUE(client_.SendFrame(wire::MessageType::kLoadModel,
                                wire::EncodeLoadModel(load))
                  .ok());
  ASSERT_TRUE(client_.SendFrame(wire::MessageType::kDetect,
                                wire::EncodeDetect(detect))
                  .ok());
  // And an unload of the same name right behind: it must run *after* the
  // load (and after the detect was dispatched), never overtake it.
  ASSERT_TRUE(client_.SendFrame(wire::MessageType::kUnloadModel,
                                wire::EncodeUnloadModel("m3"))
                  .ok());

  auto first = client_.RecvFrame();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->type, wire::MessageType::kLoadModelOk);
  auto second = client_.RecvFrame();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_EQ(second->type, wire::MessageType::kDetectResult)
      << "pipelined Detect raced the off-thread LoadModel";
  auto third = client_.RecvFrame();
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_EQ(third->type, wire::MessageType::kUnloadModelOk);
  std::remove(path.c_str());
}

TEST_F(WireLoopbackTest, AdminFramesCanBeDisabled) {
  WireServerOptions opts;
  opts.allow_admin = false;
  WireServer locked(engine_.get(), opts);
  ASSERT_TRUE(locked.Start().ok());
  WireClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", locked.port()).ok());
  const Status st = client.UnloadModel("m");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  // Queries still work.
  EXPECT_TRUE(client.Detect("m", RandomWindows(1, 62)).ok());
}

TEST_F(WireLoopbackTest, PipelinedDetectsAnswerInOrder) {
  // Two different queries sent back-to-back before reading any response:
  // responses must come back in request order.
  const Tensor first = RandomWindows(1, 70);
  const Tensor second = RandomWindows(2, 71);
  wire::DetectMsg msg;
  msg.model = "m";
  msg.windows = first;
  ASSERT_TRUE(client_
                  .SendFrame(wire::MessageType::kDetect,
                             wire::EncodeDetect(msg))
                  .ok());
  msg.windows = second;
  ASSERT_TRUE(client_
                  .SendFrame(wire::MessageType::kDetect,
                             wire::EncodeDetect(msg))
                  .ok());

  std::vector<wire::DetectResultMsg> responses;
  for (int i = 0; i < 2; ++i) {
    auto frame = client_.RecvFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    ASSERT_EQ(frame->type, wire::MessageType::kDetectResult);
    wire::DetectResultMsg result;
    ASSERT_TRUE(wire::DecodeDetectResult(frame->payload, &result).ok());
    responses.push_back(std::move(result));
  }
  // Order check: responses match the per-request reference results.
  EngineOptions solo_opts;
  solo_opts.cache_capacity = 0;
  InferenceEngine solo(&registry_, solo_opts);
  for (int i = 0; i < 2; ++i) {
    DiscoveryRequest request;
    request.model = "m";
    request.windows = i == 0 ? first : second;
    const auto expected = solo.Discover(std::move(request));
    ASSERT_TRUE(expected.status.ok());
    ExpectSameResult(responses[static_cast<size_t>(i)].result,
                     *expected.result);
  }
}

TEST_F(WireLoopbackTest, UnsupportedVersionAnswersErrorThenCloses) {
  RawConn raw(server_->port());
  auto bytes = wire::EncodeFrame(wire::MessageType::kPing, wire::EncodePing(1));
  bytes[4] = wire::kVersion + 1;  // future version
  raw.Send(bytes);
  wire::Frame frame;
  ASSERT_TRUE(raw.Recv(&frame));
  EXPECT_EQ(frame.type, wire::MessageType::kError);
  wire::ErrorMsg error;
  ASSERT_TRUE(wire::DecodeError(frame.payload, &error).ok());
  EXPECT_EQ(wire::ErrorToStatus(error).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(raw.Eof());
}

TEST_F(WireLoopbackTest, CorruptCrcAnswersErrorThenCloses) {
  RawConn raw(server_->port());
  auto bytes = wire::EncodeFrame(wire::MessageType::kPing, wire::EncodePing(1));
  bytes.back() ^= 0xFF;  // corrupt the payload; CRC no longer matches
  raw.Send(bytes);
  wire::Frame frame;
  ASSERT_TRUE(raw.Recv(&frame));
  EXPECT_EQ(frame.type, wire::MessageType::kError);
  wire::ErrorMsg error;
  ASSERT_TRUE(wire::DecodeError(frame.payload, &error).ok());
  EXPECT_NE(error.message.find("crc"), std::string::npos);
  EXPECT_TRUE(raw.Eof());
}

TEST_F(WireLoopbackTest, BadMagicClosesWithoutResponse) {
  RawConn raw(server_->port());
  raw.Send({'G', 'E', 'T', ' ', '/', ' ', 'H', 'T', 'T', 'P'});
  EXPECT_TRUE(raw.Eof());
}

TEST_F(WireLoopbackTest, ResponseTypedFrameFromClientIsRejected) {
  RawConn raw(server_->port());
  raw.Send(wire::EncodeFrame(wire::MessageType::kPong, wire::EncodePing(1)));
  wire::Frame frame;
  ASSERT_TRUE(raw.Recv(&frame));
  EXPECT_EQ(frame.type, wire::MessageType::kError);
  EXPECT_TRUE(raw.Eof());
}

TEST_F(WireLoopbackTest, ManyConnectionsShareOneEngine) {
  constexpr int kClients = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      WireClient client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < 3; ++i) {
        const auto result = client.Detect(
            "m", RandomWindows(1, static_cast<uint64_t>(c * 97 + i)));
        if (!result.ok()) ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(engine_->batcher_stats().requests, 8u * 3u);
}

TEST_F(WireLoopbackTest, MetricsWithoutObservabilityAnswersPrecondition) {
  // The fixture's server runs without an Observability bundle: the v4
  // Metrics frame must answer a typed error, not crash or close.
  const auto metrics = client_.Metrics();
  ASSERT_FALSE(metrics.ok());
  EXPECT_EQ(metrics.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(client_.Ping(1).ok());  // connection survives
}

// ---- Observability over the wire ------------------------------------------

// The serving stack with one Observability bundle wired through the engine
// and server — the production shape of `serve_cli serve`.
class WireObsLoopbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(registry_.Register("m", TinyModel()).ok());
    EngineOptions eopts;
    eopts.obs = &obs_;
    eopts.detect_observer_for_testing = gate_.hook();
    engine_ = std::make_unique<InferenceEngine>(&registry_, eopts);
    WireServerOptions sopts;
    sopts.obs = &obs_;
    server_ = std::make_unique<WireServer>(engine_.get(), sopts);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_TRUE(client_.Connect("127.0.0.1", server_->port()).ok());
  }

  obs::Observability obs_;
  ModelRegistry registry_;
  testutil::DetectGate gate_;
  std::unique_ptr<InferenceEngine> engine_;
  std::unique_ptr<WireServer> server_;
  WireClient client_;
};

TEST_F(WireObsLoopbackTest, MetricsFrameExposesCoreSeries) {
  ASSERT_TRUE(client_.Detect("m", RandomWindows(2, 80)).ok());
  const auto metrics = client_.Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();

  // The text exposition carries the engine counters (exact: one Detect),
  // the latency histograms and the server's wire counters.
  const std::string& text = metrics->text;
  EXPECT_NE(text.find("serve_requests_total 1\n"), std::string::npos) << text;
  EXPECT_NE(text.find("serve_batches_total 1\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE serve_request_latency_seconds histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_request_latency_seconds_count 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("wire_connections_total 1\n"), std::string::npos);
  EXPECT_NE(text.find("wire_frames_total"), std::string::npos);

  // The summary rows carry non-zero quantiles for the core histograms.
  bool saw_latency = false, saw_queue_wait = false, saw_occupancy = false;
  for (const auto& row : metrics->histograms) {
    if (row.name == "serve_request_latency_seconds") {
      saw_latency = true;
      EXPECT_EQ(row.count, 1u);
      EXPECT_GT(row.sum, 0.0);
      EXPECT_GT(row.p99, 0.0);
    }
    if (row.name == "serve_queue_wait_seconds") {
      saw_queue_wait = true;
      EXPECT_EQ(row.count, 1u);
    }
    if (row.name == "serve_batch_occupancy") {
      saw_occupancy = true;
      EXPECT_EQ(row.count, 1u);
      EXPECT_EQ(row.sum, 1.0);  // one batch of one request
    }
  }
  EXPECT_TRUE(saw_latency);
  EXPECT_TRUE(saw_queue_wait);
  EXPECT_TRUE(saw_occupancy);
}

TEST_F(WireObsLoopbackTest, DetectTraceCoversPipelineWithoutGaps) {
  ASSERT_TRUE(client_.Detect("m", RandomWindows(2, 81)).ok());

  // The completed trace is in the ring before the response frame is sent,
  // so it is visible as soon as Detect returns.
  const auto traces = obs_.traces().Snapshot();
  ASSERT_EQ(traces.size(), 1u);
  const obs::Trace& trace = *traces[0];
  EXPECT_GT(trace.id(), 0u);
  EXPECT_EQ(trace.leader_id(), 0u);

  const std::vector<obs::TraceSpan> spans = trace.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].name, "decode");
  EXPECT_EQ(spans[1].name, "enqueue");
  EXPECT_EQ(spans[2].name, "execute");
  EXPECT_EQ(spans[3].name, "encode");
  for (const auto& span : spans) {
    EXPECT_GE(span.end, span.start) << span.name;
  }
  // Mark-based spans: each span closes exactly where the next opens.
  for (size_t i = 0; i + 1 < spans.size(); ++i) {
    EXPECT_EQ(spans[i].end, spans[i + 1].start)
        << "gap after span " << spans[i].name;
  }

  // Per-phase detector timings were attached, kernels stayed out of the
  // trace (they are histogram-only), and the phase decomposition cannot
  // exceed the execute span it subdivides.
  const auto phases = trace.phases();
  ASSERT_FALSE(phases.empty());
  double phase_sum = 0;
  bool saw_forward = false;
  for (const auto& [name, seconds] : phases) {
    EXPECT_NE(name.rfind("kernel.", 0), 0u) << name;
    if (name == "forward") saw_forward = true;
    phase_sum += seconds;
  }
  EXPECT_TRUE(saw_forward);
  const double execute = spans[2].end - spans[2].start;
  EXPECT_LE(phase_sum, execute + 1e-9);
}

TEST_F(WireObsLoopbackTest, DedupFollowerTraceLinksLeader) {
  WireClient follower;
  ASSERT_TRUE(follower.Connect("127.0.0.1", server_->port()).ok());

  wire::DetectMsg msg;
  msg.model = "m";
  msg.windows = RandomWindows(2, 82);
  const auto payload = wire::EncodeDetect(msg);

  // Freeze detection so the identical second request provably overlaps the
  // first in flight and parks as a dedup follower.
  gate_.Close();
  ASSERT_TRUE(client_.SendFrame(wire::MessageType::kDetect, payload).ok());
  while (engine_->dedup_stats().in_flight < 1) std::this_thread::yield();
  ASSERT_TRUE(follower.SendFrame(wire::MessageType::kDetect, payload).ok());
  while (engine_->dedup_stats().hits < 1) std::this_thread::yield();
  gate_.Release();

  auto leader_frame = client_.RecvFrame();
  ASSERT_TRUE(leader_frame.ok()) << leader_frame.status().ToString();
  ASSERT_EQ(leader_frame->type, wire::MessageType::kDetectResult);
  auto follower_frame = follower.RecvFrame();
  ASSERT_TRUE(follower_frame.ok()) << follower_frame.status().ToString();
  ASSERT_EQ(follower_frame->type, wire::MessageType::kDetectResult);
  wire::DetectResultMsg leader_result, follower_result;
  ASSERT_TRUE(
      wire::DecodeDetectResult(leader_frame->payload, &leader_result).ok());
  ASSERT_TRUE(
      wire::DecodeDetectResult(follower_frame->payload, &follower_result)
          .ok());
  EXPECT_FALSE(leader_result.deduped);
  EXPECT_TRUE(follower_result.deduped);

  // Both traces completed; the follower's records a dedup_wait span (it
  // never executed) and links the leader's trace id.
  const auto traces = obs_.traces().Snapshot();
  ASSERT_EQ(traces.size(), 2u);
  const obs::Trace* leader_trace = nullptr;
  const obs::Trace* follower_trace = nullptr;
  for (const auto& trace : traces) {
    bool waited = false;
    for (const auto& span : trace->spans()) {
      if (span.name == "dedup_wait") waited = true;
    }
    (waited ? follower_trace : leader_trace) = trace.get();
  }
  ASSERT_NE(leader_trace, nullptr);
  ASSERT_NE(follower_trace, nullptr);
  EXPECT_EQ(leader_trace->leader_id(), 0u);
  EXPECT_EQ(follower_trace->leader_id(), leader_trace->id());
  EXPECT_EQ(obs_.metrics()
                .GetCounter("serve_dedup_followers_total")
                ->Value(),
            1u);
}

// ---- Flight recorder over the wire (v5 Dump) ------------------------------

TEST_F(WireLoopbackTest, DumpWithoutFlightRecorderAnswersPrecondition) {
  // The fixture's server runs without a flight recorder: the v5 Dump frame
  // must answer a typed error, not crash or close.
  const auto dump = client_.Dump();
  ASSERT_FALSE(dump.ok());
  EXPECT_EQ(dump.status().code(), StatusCode::kFailedPrecondition);
}

// Minimal structural validation of chrome Trace Event Format JSON: balanced
// braces/brackets outside strings, every event is a complete event
// ("ph":"X"), and the "ts" sequence is monotonically non-decreasing — the
// properties chrome://tracing and Perfetto rely on. Returns the number of
// events, or -1 on a violation (with a gtest failure naming it).
int ValidateChromeTraceJson(const std::string& json) {
  int depth = 0;
  bool in_string = false, escaped = false;
  for (const char c : json) {
    if (escaped) {
      escaped = false;
    } else if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) break;
    }
  }
  if (depth != 0 || in_string) {
    ADD_FAILURE() << "unbalanced JSON structure";
    return -1;
  }

  int events = 0;
  for (size_t pos = json.find("\"ph\":"); pos != std::string::npos;
       pos = json.find("\"ph\":", pos + 1)) {
    ++events;
    if (json.compare(pos, 9, "\"ph\":\"X\",") != 0) {
      ADD_FAILURE() << "event phase is not a complete event at offset "
                    << pos;
      return -1;
    }
  }

  double last_ts = -1;
  for (size_t pos = json.find("\"ts\":"); pos != std::string::npos;
       pos = json.find("\"ts\":", pos + 1)) {
    const double ts = std::atof(json.c_str() + pos + 5);
    if (ts < last_ts) {
      ADD_FAILURE() << "ts regressed: " << ts << " after " << last_ts;
      return -1;
    }
    last_ts = ts;
  }
  return events;
}

// The full diagnostics stack — obs bundle + flight recorder — behind a
// live server, the production shape of `serve_cli serve --dump-dir`.
class WireDumpLoopbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(registry_.Register("m", TinyModel()).ok());
    EngineOptions eopts;
    eopts.obs = &obs_;
    engine_ = std::make_unique<InferenceEngine>(&registry_, eopts);
    recorder_ = std::make_unique<obs::FlightRecorder>(&obs_);
    recorder_->AddStateProvider("engine", [this] {
      return "requests=" +
             std::to_string(engine_->batcher_stats().requests) + "\n";
    });
    WireServerOptions sopts;
    sopts.obs = &obs_;
    sopts.flight_recorder = recorder_.get();
    server_ = std::make_unique<WireServer>(engine_.get(), sopts);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_TRUE(client_.Connect("127.0.0.1", server_->port()).ok());
  }

  obs::Observability obs_;
  ModelRegistry registry_;
  std::unique_ptr<InferenceEngine> engine_;
  std::unique_ptr<obs::FlightRecorder> recorder_;
  std::unique_ptr<WireServer> server_;
  WireClient client_;
};

TEST_F(WireDumpLoopbackTest, DumpFrameCarriesTheWholeBundle) {
  ASSERT_TRUE(client_.Detect("m", RandomWindows(2, 90)).ok());
  const auto dump = client_.Dump();
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();

  auto find = [&](const std::string& name) -> const wire::DumpFileMsg* {
    for (const auto& file : dump->files) {
      if (file.name == name) return &file;
    }
    return nullptr;
  };
  const auto* metrics = find("metrics.txt");
  ASSERT_NE(metrics, nullptr);
  EXPECT_NE(metrics->content.find("serve_requests_total 1\n"),
            std::string::npos)
      << metrics->content;
  const auto* state = find("state.txt");
  ASSERT_NE(state, nullptr);
  EXPECT_NE(state->content.find("== engine ==\nrequests=1\n"),
            std::string::npos)
      << state->content;
  const auto* traces = find("traces.txt");
  ASSERT_NE(traces, nullptr);
  EXPECT_NE(traces->content.find("decode"), std::string::npos)
      << traces->content;
  ASSERT_NE(find("logs.txt"), nullptr);
  ASSERT_NE(find("trace.json"), nullptr);
}

TEST_F(WireDumpLoopbackTest, ChromeTraceJsonIsSchemaValid) {
  // Two detects: distinct windows, so two traces (no cache hit collapse).
  ASSERT_TRUE(client_.Detect("m", RandomWindows(2, 91)).ok());
  ASSERT_TRUE(client_.Detect("m", RandomWindows(2, 92)).ok());
  const auto dump = client_.Dump();
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  const wire::DumpFileMsg* trace_json = nullptr;
  for (const auto& file : dump->files) {
    if (file.name == "trace.json") trace_json = &file;
  }
  ASSERT_NE(trace_json, nullptr);

  // Two traces of four spans each: eight complete events, monotone ts.
  const int events = ValidateChromeTraceJson(trace_json->content);
  EXPECT_EQ(events, 8) << trace_json->content;
  EXPECT_NE(trace_json->content.find("\"displayTimeUnit\":\"ms\""),
            std::string::npos);
  EXPECT_NE(trace_json->content.find("\"forward_ms\":"), std::string::npos)
      << "execute span lost its phase decomposition";
}

TEST(ChromeTraceExportTest, EmptyRingRendersValidEmptyJson) {
  const std::string json = obs::RenderChromeTrace({});
  EXPECT_EQ(ValidateChromeTraceJson(json), 0);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
}

// ---- Profiling over the wire (v7) -----------------------------------------

TEST_F(WireLoopbackTest, ProfileWithoutProfilerAnswersPrecondition) {
  // The fixture's server runs without a profiler: the v7 Profile frame
  // must answer a typed error, not crash or close.
  const auto profile = client_.Profile(1);
  ASSERT_FALSE(profile.ok());
  EXPECT_EQ(profile.status().code(), StatusCode::kFailedPrecondition);
}

// A live server fronting a running sampling profiler — the production
// shape of `serve_cli serve` + `serve_cli profile --connect`.
class WireProfileLoopbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(registry_.Register("m", TinyModel()).ok());
    engine_ = std::make_unique<InferenceEngine>(&registry_);
    ASSERT_TRUE(profiler_.Start().ok());
    WireServerOptions sopts;
    sopts.profiler = &profiler_;
    server_ = std::make_unique<WireServer>(engine_.get(), sopts);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_TRUE(client_.Connect("127.0.0.1", server_->port()).ok());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    ASSERT_TRUE(profiler_.Stop().ok());
  }

  ModelRegistry registry_;
  std::unique_ptr<InferenceEngine> engine_;
  obs::Profiler profiler_;
  std::unique_ptr<WireServer> server_;
  WireClient client_;
};

TEST_F(WireProfileLoopbackTest, ProfileFrameCapturesBurningThread) {
  // Pin a burner thread for the window so SIGPROF (process-CPU-time
  // driven) has cycles to land on regardless of machine speed.
  std::atomic<bool> stop{false};
  std::thread burner([&stop] {
    obs::RegisterProfilingThread("cf-wire-burner");
    volatile double sink = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      for (int i = 1; i < 2048; ++i) sink += 1.0 / i;
    }
  });
  const auto profile = client_.Profile(1);
  stop.store(true);
  burner.join();

  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_GT(profile->samples, 0u);
  EXPECT_NE(profile->folded.find("cf-wire-burner;"), std::string::npos)
      << profile->folded;
  // Folded lines end in a count; the chrome JSON is the same window.
  EXPECT_EQ(profile->folded.back(), '\n');
  EXPECT_NE(profile->json.find("\"displayTimeUnit\":\"ms\""),
            std::string::npos);
  EXPECT_NE(profile->json.find("cf-wire-burner"), std::string::npos);
}

TEST_F(WireProfileLoopbackTest, ProfileRejectsOutOfRangeSeconds) {
  const auto zero = client_.Profile(0);
  ASSERT_FALSE(zero.ok());
  EXPECT_EQ(zero.status().code(), StatusCode::kInvalidArgument);
  const auto huge = client_.Profile(61);
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(WireProfileLoopbackTest, DetectsStayLiveDuringProfileWindow) {
  // The profile window must not stall dispatch: a second connection's
  // Detect answers while the first connection's Profile is in flight.
  WireClient prof_client;
  ASSERT_TRUE(prof_client.Connect("127.0.0.1", server_->port()).ok());
  auto profile_future = std::async(std::launch::async, [&prof_client] {
    return prof_client.Profile(1);
  });
  // Give the server a moment to park the profile request on its worker.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto detect = client_.Detect("m", RandomWindows(2, 93));
  EXPECT_TRUE(detect.ok()) << detect.status().ToString();
  const auto profile = profile_future.get();
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
}

}  // namespace
}  // namespace serve
}  // namespace causalformer

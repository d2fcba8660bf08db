#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/detector.h"
#include "serve/client.h"
#include "serve/inference_engine.h"
#include "serve/model_registry.h"
#include "serve/score_cache.h"
#include "serve/server.h"
#include "serve_test_util.h"
#include "stream/drift.h"
#include "stream/ring_series.h"
#include "stream/window_scheduler.h"
#include "tensor/tensor.h"

namespace causalformer {
namespace stream {
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

Tensor RandomSeries(int64_t n, int64_t length, uint64_t seed) {
  Rng rng(seed);
  return Tensor::Randn(Shape{n, length}, &rng);
}

// Columns [start, end) of an [N, L] series as an [N, end-start] tensor.
Tensor Columns(const Tensor& series, int64_t start, int64_t end) {
  return Slice(series, 1, start, end).Detach();
}

// A DetectionResult with the given uniform score and explicit edges.
core::DetectionResult MakeResult(int n, double score,
                                 const std::vector<CausalEdge>& edges) {
  core::DetectionResult result(n);
  for (int from = 0; from < n; ++from) {
    for (int to = 0; to < n; ++to) result.scores.set(from, to, score);
  }
  for (const auto& edge : edges) {
    result.graph.AddEdge(edge.from, edge.to, edge.delay, edge.score);
  }
  return result;
}

// ---- RingSeries ------------------------------------------------------------

TEST(RingSeriesTest, AppendAndWindowRoundTrip) {
  RingSeries ring(2, 8);
  ASSERT_TRUE(
      ring.Append(Tensor::FromVector(Shape{2, 3}, {1, 2, 3, 10, 20, 30}))
          .ok());
  EXPECT_EQ(ring.total_appended(), 3);
  EXPECT_EQ(ring.size(), 3);
  const auto window = ring.Window(3, 2);
  ASSERT_TRUE(window.ok());
  ASSERT_EQ(window->shape(), (Shape{1, 2, 2}));
  // Window [1, 3): columns {2, 3} and {20, 30}, series-major.
  EXPECT_EQ(window->data()[0], 2.f);
  EXPECT_EQ(window->data()[1], 3.f);
  EXPECT_EQ(window->data()[2], 20.f);
  EXPECT_EQ(window->data()[3], 30.f);
}

TEST(RingSeriesTest, WrapAroundKeepsNewestSamples) {
  RingSeries ring(1, 4);
  for (int64_t t = 0; t < 10; ++t) {
    ASSERT_TRUE(
        ring.Append(Tensor::FromVector(Shape{1, 1}, {static_cast<float>(t)}))
            .ok());
  }
  EXPECT_EQ(ring.total_appended(), 10);
  EXPECT_EQ(ring.size(), 4);
  EXPECT_EQ(ring.oldest(), 6);
  const auto window = ring.Window(10, 4);
  ASSERT_TRUE(window.ok());
  for (int64_t j = 0; j < 4; ++j) {
    EXPECT_EQ(window->data()[j], static_cast<float>(6 + j));
  }
  // The overwritten range is gone, loudly.
  EXPECT_FALSE(ring.Window(9, 4).ok());
  // A future range too.
  EXPECT_FALSE(ring.Window(11, 2).ok());
}

TEST(RingSeriesTest, LatestReturnsSeriesMajorTail) {
  RingSeries ring(2, 8);
  ASSERT_TRUE(
      ring.Append(Tensor::FromVector(Shape{2, 4}, {1, 2, 3, 4, 5, 6, 7, 8}))
          .ok());
  const auto latest = ring.Latest(2);
  ASSERT_TRUE(latest.ok());
  ASSERT_EQ(latest->shape(), (Shape{2, 2}));
  EXPECT_EQ(latest->data()[0], 3.f);
  EXPECT_EQ(latest->data()[1], 4.f);
  EXPECT_EQ(latest->data()[2], 7.f);
  EXPECT_EQ(latest->data()[3], 8.f);
}

TEST(RingSeriesTest, RejectsGeometryMismatch) {
  RingSeries ring(3, 8);
  EXPECT_FALSE(ring.Append(Tensor::Zeros(Shape{2, 4})).ok());
  EXPECT_FALSE(ring.Append(Tensor::Zeros(Shape{3})).ok());
  EXPECT_FALSE(ring.Append(Tensor::Zeros(Shape{3, 2, 2})).ok());
}

// ---- RollingWindowHasher ---------------------------------------------------

TEST(RollingHashTest, MatchesHashWindowsOfMaterialisedTensor) {
  // The identity the whole streaming cache story rests on: the incremental
  // hash of any retained window equals HashWindows of the tensor the ring
  // materialises for it — including after the ring wraps.
  const Tensor series = RandomSeries(3, 64, 11);
  RingSeries ring(3, 24);
  RollingWindowHasher hasher(3, 24);
  int64_t checked = 0;
  for (int64_t t = 0; t < 64; t += 5) {
    const int64_t k = std::min<int64_t>(5, 64 - t);
    const Tensor chunk = Columns(series, t, t + k);
    ASSERT_TRUE(ring.Append(chunk).ok());
    ASSERT_TRUE(hasher.Append(chunk).ok());
    for (const int64_t width : {1, 7, 8, 24}) {
      const int64_t end = ring.total_appended();
      if (end - width < ring.oldest()) continue;
      const auto tensor = ring.Window(end, width);
      const auto rolled = hasher.Window(end, width);
      ASSERT_TRUE(tensor.ok() && rolled.ok());
      const serve::WindowHash direct = serve::HashWindows(*tensor);
      EXPECT_EQ(rolled->lo, direct.lo);
      EXPECT_EQ(rolled->hi, direct.hi);
      ++checked;
    }
  }
  EXPECT_GT(checked, 20);
}

TEST(RollingHashTest, DistinctContentAndShapeHashDifferently) {
  const Tensor a = RandomSeries(3, 16, 1);
  Tensor b = a.Clone();
  b.data()[17] += 1e-3f;
  const serve::WindowHash ha = serve::HashWindows(
      Tensor::FromVector(Shape{1, 3, 16}, std::vector<float>(
          a.data(), a.data() + 48)));
  const serve::WindowHash hb = serve::HashWindows(
      Tensor::FromVector(Shape{1, 3, 16}, std::vector<float>(
          b.data(), b.data() + 48)));
  EXPECT_FALSE(ha == hb);
  // Same bytes, different [N, T] split.
  const serve::WindowHash hc = serve::HashWindows(
      Tensor::FromVector(Shape{1, 16, 3}, std::vector<float>(
          a.data(), a.data() + 48)));
  EXPECT_FALSE(ha == hc);
}

TEST(RollingHashTest, WindowOrderIsSignificant) {
  // Swapping two time-step columns must change the hash (the digest fold is
  // order-sensitive).
  std::vector<float> data = {1, 2, 3, 4, 5, 6};  // [1, 2, 3]: columns per row
  const serve::WindowHash ha =
      serve::HashWindows(Tensor::FromVector(Shape{1, 2, 3}, data));
  std::vector<float> swapped = {2, 1, 3, 5, 4, 6};  // columns 0 and 1 swapped
  const serve::WindowHash hb =
      serve::HashWindows(Tensor::FromVector(Shape{1, 2, 3}, swapped));
  EXPECT_FALSE(ha == hb);
}

// ---- Drift -----------------------------------------------------------------

TEST(DriftTest, CountsEdgeFlipsAndScoreMovement) {
  const auto prev = MakeResult(3, 1.0, {{0, 1, 2, 1.0}, {1, 2, 1, 1.0}});
  const auto next = MakeResult(3, 1.5, {{0, 1, 3, 1.0}, {2, 0, 1, 1.0}});
  const DriftReport report = CompareResults(prev, next, {});
  EXPECT_EQ(report.edges_kept, 1);     // 0->1 survives (delay moved)
  EXPECT_EQ(report.edges_added, 1);    // 2->0
  EXPECT_EQ(report.edges_removed, 1);  // 1->2
  EXPECT_EQ(report.delay_changes, 1);  // 0->1: 2 -> 3
  EXPECT_DOUBLE_EQ(report.jaccard, 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(report.mean_abs_score_delta, 0.5);
  EXPECT_DOUBLE_EQ(report.max_abs_score_delta, 0.5);
  ASSERT_EQ(report.added.size(), 1u);
  EXPECT_EQ(report.added[0].from, 2);
  ASSERT_EQ(report.removed.size(), 1u);
  EXPECT_EQ(report.removed[0].to, 2);
  EXPECT_TRUE(report.drifted);  // mean Δ (0.5) / peak (1.0) > 0.25
}

TEST(DriftTest, IdenticalResultsDoNotDrift) {
  const auto result = MakeResult(3, 0.7, {{0, 1, 2, 1.0}});
  const DriftReport report = CompareResults(result, result, {});
  EXPECT_FALSE(report.drifted);
  EXPECT_EQ(report.edges_kept, 1);
  EXPECT_DOUBLE_EQ(report.jaccard, 1.0);
  EXPECT_DOUBLE_EQ(report.mean_abs_score_delta, 0.0);
}

TEST(DriftTest, EmptyGraphsAreStable) {
  const auto result = MakeResult(2, 0.0, {});
  const DriftReport report = CompareResults(result, result, {});
  EXPECT_DOUBLE_EQ(report.jaccard, 1.0);
  EXPECT_FALSE(report.drifted);
}

TEST(DriftTest, TrackerDebouncesRegimeChange) {
  DriftOptions options;
  options.stability_window = 3;
  DriftTracker tracker(options);
  const auto stable = std::make_shared<const core::DetectionResult>(
      MakeResult(2, 1.0, {{0, 1, 1, 1.0}}));
  const auto flipped = std::make_shared<const core::DetectionResult>(
      MakeResult(2, 1.0, {{1, 0, 1, 1.0}}));

  EXPECT_FALSE(tracker.Observe(stable).has_value());  // first window
  auto report = tracker.Observe(stable);
  ASSERT_TRUE(report.has_value());
  EXPECT_FALSE(report->drifted);
  EXPECT_EQ(report->consecutive_drifts, 0);

  // Alternate stable/flipped: every pair flips the whole edge set.
  int regime_at = -1;
  for (int i = 0; i < 4; ++i) {
    report = tracker.Observe(i % 2 == 0 ? flipped : stable);
    ASSERT_TRUE(report.has_value());
    EXPECT_TRUE(report->drifted);
    EXPECT_EQ(report->consecutive_drifts, i + 1);
    if (report->regime_change && regime_at < 0) regime_at = i + 1;
  }
  EXPECT_EQ(regime_at, 3);  // debounced until stability_window pairs

  // A calm window (identical to the last observed one) resets the counter.
  report = tracker.Observe(stable);
  ASSERT_TRUE(report.has_value());
  EXPECT_FALSE(report->drifted);
  EXPECT_EQ(report->consecutive_drifts, 0);
  EXPECT_FALSE(report->regime_change);
}

// ---- WindowScheduler -------------------------------------------------------

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest() {
    EXPECT_TRUE(registry_.Register("m", TinyModel()).ok());
  }

  StreamConfig Config(int64_t stride = 2) {
    StreamConfig config;
    config.model = "m";
    config.stride = stride;
    return config;
  }

  serve::ModelRegistry& registry() { return registry_; }

 private:
  serve::ModelRegistry registry_;
};

TEST_F(SchedulerTest, OpenValidatesConfig) {
  serve::InferenceEngine engine(&registry());
  WindowScheduler scheduler(&engine);

  EXPECT_EQ(scheduler.Open("", Config()).code(),
            StatusCode::kInvalidArgument);
  StreamConfig unknown = Config();
  unknown.model = "ghost";
  EXPECT_EQ(scheduler.Open("s", unknown).code(), StatusCode::kNotFound);
  StreamConfig bad_window = Config();
  bad_window.window = 5;  // model window is 8
  EXPECT_EQ(scheduler.Open("s", bad_window).code(),
            StatusCode::kInvalidArgument);
  StreamConfig bad_history = Config();
  bad_history.history = 8;  // < window + stride
  EXPECT_EQ(scheduler.Open("s", bad_history).code(),
            StatusCode::kInvalidArgument);

  // Hostile-config ceilings (a StreamOpen frame can carry any value): one
  // small frame must not be able to provoke a giant allocation.
  StreamConfig huge_history = Config();
  huge_history.history = kMaxStreamHistory + 1;
  EXPECT_EQ(scheduler.Open("s", huge_history).code(),
            StatusCode::kInvalidArgument);
  StreamConfig huge_stride = Config();
  huge_stride.stride = kMaxStreamStride + 1;
  EXPECT_EQ(scheduler.Open("s", huge_stride).code(),
            StatusCode::kInvalidArgument);
  StreamConfig huge_reports = Config();
  huge_reports.max_reports = kMaxStreamReports + 1;
  EXPECT_EQ(scheduler.Open("s", huge_reports).code(),
            StatusCode::kInvalidArgument);
  StreamConfig huge_in_flight = Config();
  huge_in_flight.max_in_flight = kMaxStreamInFlight + 1;
  EXPECT_EQ(scheduler.Open("s", huge_in_flight).code(),
            StatusCode::kInvalidArgument);

  StreamConfig resolved_out = Config();
  StreamConfig resolved;
  ASSERT_TRUE(scheduler.Open("s", resolved_out, &resolved).ok());
  EXPECT_EQ(resolved.window, 8);   // defaulted to the model's window
  EXPECT_GE(resolved.history, 8 + 2);
  EXPECT_EQ(scheduler.Open("s", Config()).code(),
            StatusCode::kFailedPrecondition);  // name taken
  EXPECT_EQ(scheduler.Close("nope").code(), StatusCode::kNotFound);
  ASSERT_TRUE(scheduler.Close("s").ok());
  EXPECT_FALSE(scheduler.Append("s", Tensor::Zeros(Shape{3, 1})).ok());
}

TEST_F(SchedulerTest, EmitsEverySlidingWindowInOrder) {
  serve::InferenceEngine engine(&registry());
  WindowScheduler scheduler(&engine);
  StreamConfig config = Config(/*stride=*/2);
  config.history = 64;
  ASSERT_TRUE(scheduler.Open("s", config).ok());

  const Tensor series = RandomSeries(3, 40, 3);
  // Append in uneven chunks to exercise partial-window arrivals.
  const std::vector<int64_t> chunks = {3, 1, 8, 5, 2, 7, 9, 4, 1};
  int64_t t = 0;
  for (const int64_t chunk : chunks) {
    const int64_t k = std::min(chunk, 40 - t);
    if (k <= 0) break;
    ASSERT_TRUE(scheduler.Append("s", Columns(series, t, t + k)).ok());
    t += k;
  }
  ASSERT_EQ(t, 40);
  scheduler.Flush();

  const auto stats = scheduler.GetStats("s");
  ASSERT_TRUE(stats.ok());
  // Windows end at 8, 10, ..., 40: (40-8)/2 + 1 = 17.
  EXPECT_EQ(stats->windows_emitted, 17u);
  EXPECT_EQ(stats->windows_completed, 17u);
  EXPECT_EQ(stats->windows_failed, 0u);
  EXPECT_EQ(stats->windows_dropped, 0u);
  EXPECT_EQ(stats->pending, 0u);

  const auto reports = scheduler.Take("s");
  ASSERT_TRUE(reports.ok());
  ASSERT_EQ(reports->size(), 17u);
  for (size_t i = 0; i < reports->size(); ++i) {
    const StreamReport& report = (*reports)[i];
    EXPECT_EQ(report.window_index, i);
    EXPECT_EQ(report.window_start, static_cast<int64_t>(i) * 2);
    EXPECT_EQ(report.num_series, 3);
    EXPECT_EQ(report.has_baseline, i > 0);  // drift needs a previous window
  }
  // Drained means gone.
  EXPECT_TRUE(scheduler.Take("s")->empty());
}

TEST_F(SchedulerTest, IncrementalHashesHitTheScoreCacheAcrossStreams) {
  serve::InferenceEngine engine(&registry());
  WindowScheduler scheduler(&engine);
  const Tensor series = RandomSeries(3, 32, 5);

  StreamConfig config = Config(/*stride=*/1);
  config.history = 32;
  ASSERT_TRUE(scheduler.Open("a", config).ok());
  ASSERT_TRUE(scheduler.Append("a", series).ok());
  scheduler.Flush();
  const uint64_t hits_before = engine.cache_stats().hits;
  const auto stats_a = *scheduler.GetStats("a");
  EXPECT_EQ(stats_a.windows_emitted, 25u);  // (32-8)/1 + 1

  // A second subscriber to the same feed: every window is content-identical,
  // and the scheduler's *incrementally computed* hashes must land on the
  // exact cache keys the first pass filled.
  ASSERT_TRUE(scheduler.Open("b", config).ok());
  ASSERT_TRUE(scheduler.Append("b", series).ok());
  scheduler.Flush();
  const auto stats_b = *scheduler.GetStats("b");
  EXPECT_EQ(stats_b.windows_emitted, 25u);
  EXPECT_EQ(stats_b.cache_hits, 25u);
  EXPECT_EQ(engine.cache_stats().hits - hits_before, 25u);

  // And the cached results are the same objects a direct Detect would get:
  // submit the first window tensor through the plain engine path.
  serve::DiscoveryRequest request;
  request.model = "m";
  request.windows = Tensor::Zeros(Shape{1, 3, 8});
  float* p = request.windows.data();
  const float* src = series.data();
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 8; ++j) p[i * 8 + j] = src[i * 32 + j];
  }
  const auto response = engine.Discover(std::move(request));
  ASSERT_TRUE(response.status.ok());
  EXPECT_TRUE(response.cache_hit);
}

TEST_F(SchedulerTest, RingOverrunDropsWindowsLoudly) {
  serve::InferenceEngine engine(&registry());
  WindowScheduler scheduler(&engine);
  StreamConfig config = Config(/*stride=*/1);
  config.history = 12;      // tiny ring
  config.max_in_flight = 1; // force a backlog while detection runs
  ASSERT_TRUE(scheduler.Open("s", config).ok());

  // One big append: 64 samples into a 12-sample ring. Most windows' data is
  // overwritten before detection can get to them.
  const Tensor series = RandomSeries(3, 64, 9);
  ASSERT_TRUE(scheduler.Append("s", series).ok());
  scheduler.Flush();

  const auto stats = *scheduler.GetStats("s");
  // Every window either ran or was dropped — none silently vanished.
  EXPECT_EQ(stats.windows_emitted + stats.windows_dropped, 57u);  // (64-8)+1
  EXPECT_GT(stats.windows_dropped, 0u);
  EXPECT_EQ(stats.windows_completed, stats.windows_emitted);
  EXPECT_EQ(stats.pending, 0u);

  // Window indices stay contiguous with the drop accounting: the last
  // report's index is the total emission count minus one.
  const auto reports = *scheduler.Take("s");
  ASSERT_FALSE(reports.empty());
  EXPECT_EQ(reports.back().window_index,
            stats.windows_emitted + stats.windows_dropped - 1);
}

TEST_F(SchedulerTest, ClosingAStreamPrunesItsExpiredCacheEntries) {
  serve::EngineOptions eopts;
  eopts.cache_ttl_seconds = 1e-6;  // everything is stale almost immediately
  serve::InferenceEngine engine(&registry(), eopts);
  WindowScheduler scheduler(&engine);
  StreamConfig config = Config(/*stride=*/2);
  config.history = 32;
  ASSERT_TRUE(scheduler.Open("s", config).ok());
  ASSERT_TRUE(scheduler.Append("s", RandomSeries(3, 24, 19)).ok());
  scheduler.Flush();
  ASSERT_GT(engine.cache_stats().size, 0u);

  // The dead stream's windows are never probed again, so lazy expiry would
  // leave them resident; Close sweeps them eagerly.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_TRUE(scheduler.Close("s").ok());
  EXPECT_EQ(engine.cache_stats().size, 0u);
  EXPECT_GT(engine.cache_stats().expirations, 0u);
}

TEST_F(SchedulerTest, ReportBoundDropsOldestReports) {
  serve::InferenceEngine engine(&registry());
  WindowScheduler scheduler(&engine);
  StreamConfig config = Config(/*stride=*/1);
  config.history = 64;
  config.max_reports = 4;
  ASSERT_TRUE(scheduler.Open("s", config).ok());
  ASSERT_TRUE(scheduler.Append("s", RandomSeries(3, 24, 13)).ok());
  scheduler.Flush();

  const auto stats = *scheduler.GetStats("s");
  EXPECT_EQ(stats.windows_emitted, 17u);
  EXPECT_EQ(stats.reports_dropped, 13u);
  const auto reports = *scheduler.Take("s");
  ASSERT_EQ(reports.size(), 4u);
  EXPECT_EQ(reports.back().window_index, 16u);  // newest retained
}

TEST_F(SchedulerTest, InlineFailuresFoldWithoutRecursion) {
  // Every submit is rejected inline (max_queue = 0), so each window's
  // callback runs inside the engine call that submitted it, and each fold
  // frees the in-flight slot the next window needs. The folder must drain
  // those completions in a loop: recursing once per window would need a
  // stack frame chain 2^16 windows deep, which overflows under ASan.
  serve::EngineOptions eopts;
  eopts.batcher.max_queue = 0;
  serve::InferenceEngine engine(&registry(), eopts);
  WindowScheduler scheduler(&engine);
  constexpr int64_t kSamples = int64_t{1} << 16;
  StreamConfig config = Config(/*stride=*/1);
  config.history = kSamples;  // the ring retains every window
  ASSERT_TRUE(scheduler.Open("s", config).ok());

  const auto stats = scheduler.Append("s", RandomSeries(3, kSamples, 23));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->windows_emitted, static_cast<uint64_t>(kSamples - 8 + 1));
  EXPECT_EQ(stats->windows_failed, stats->windows_emitted);
  EXPECT_EQ(stats->windows_completed, stats->windows_emitted);
  EXPECT_EQ(stats->windows_dropped, 0u);
  EXPECT_EQ(stats->pending, 0u);
  EXPECT_TRUE(scheduler.Take("s")->empty());  // failures leave no reports
}

TEST_F(SchedulerTest, DestroyedWhileAGateHoldsItsWindows) {
  // The scheduler goes away while the engine still holds its windows
  // mid-detect; their callbacks run afterwards (on the executor, and in the
  // batcher's shutdown drain) and must touch nothing the scheduler freed.
  serve::testutil::DetectGate gate;
  serve::EngineOptions eopts;
  eopts.detect_observer_for_testing = gate.hook();
  serve::InferenceEngine engine(&registry(), eopts);
  auto scheduler = std::make_unique<WindowScheduler>(&engine);
  StreamConfig config = Config(/*stride=*/2);
  config.history = 64;
  config.max_in_flight = 16;
  ASSERT_TRUE(scheduler->Open("s", config).ok());

  gate.Close();
  const auto stats = scheduler->Append("s", RandomSeries(3, 24, 29));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->windows_emitted, 9u);
  while (gate.arrivals() < 1) std::this_thread::yield();
  scheduler.reset();
  gate.Release();
  // The engine's destructor (end of scope) joins the executors, so every
  // held and queued window has called back by the time the test ends.
}

// ---- Wire loopback ---------------------------------------------------------

TEST(StreamWireTest, EndToEndOverTcp) {
  serve::ModelRegistry registry;
  ASSERT_TRUE(registry.Register("m", TinyModel()).ok());
  serve::InferenceEngine engine(&registry);
  WindowScheduler scheduler(&engine);
  serve::WireServerOptions options;
  options.stream_backend = &scheduler;
  serve::WireServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  serve::WireClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  serve::wire::StreamOpenMsg open;
  open.stream = "tcp";
  open.model = "m";
  open.stride = 2;
  const auto opened = client.OpenStream(open);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->window, 8);
  EXPECT_EQ(opened->stride, 2);
  EXPECT_GE(opened->history, 10);

  // Re-opening the same name is a request-level error; the connection lives.
  EXPECT_EQ(client.OpenStream(open).status().code(),
            StatusCode::kFailedPrecondition);

  const Tensor series = RandomSeries(3, 24, 21);
  uint64_t emitted = 0;
  for (int64_t t = 0; t < 24; t += 4) {
    const auto ack = client.AppendSamples("tcp", Columns(series, t, t + 4));
    ASSERT_TRUE(ack.ok());
    EXPECT_EQ(ack->total_samples, static_cast<uint64_t>(t + 4));
    emitted = ack->windows_emitted;
  }
  // The ack is a point-in-time counter: windows beyond the in-flight bound
  // are emitted as completions free slots, so this is only a lower bound.
  EXPECT_GE(emitted, 1u);

  // Windows end at 8, 10, ..., 24 = 9 in total; drain reports until every
  // one arrived (detections are async).
  constexpr size_t kExpectedWindows = 9;
  std::vector<serve::wire::StreamReportMsg> all;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (all.size() < kExpectedWindows &&
         std::chrono::steady_clock::now() < deadline) {
    const auto reports = client.StreamReports("tcp");
    ASSERT_TRUE(reports.ok());
    all.insert(all.end(), reports->begin(), reports->end());
    if (all.size() < kExpectedWindows) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ASSERT_EQ(all.size(), kExpectedWindows);
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].window_index, i);
    EXPECT_EQ(all[i].window_start, static_cast<int64_t>(i) * 2);
    EXPECT_EQ(all[i].num_series, 3);
    EXPECT_EQ(all[i].has_baseline, i > 0);
  }

  // Unknown stream: request-level NOT_FOUND, connection still usable.
  EXPECT_EQ(client.AppendSamples("ghost", Columns(series, 0, 1))
                .status()
                .code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(client.CloseStream("tcp").ok());
  EXPECT_EQ(client.CloseStream("tcp").code(), StatusCode::kNotFound);
  ASSERT_TRUE(client.Ping(1).ok());
}

// The ISSUE-5 satellite fix: two streams replaying the same ring pattern
// used to double-run every overlapping window whose twin was still in
// flight (the cache only catches *completed* work). The precomputed
// incremental hash now feeds the engine's in-flight dedup table, so the
// second stream's identical windows park as followers instead — observable
// as StreamStats::windows_deduped, the per-report `deduped` flag and the
// AppendSamplesOk `deduped_windows` counter.
TEST_F(SchedulerTest, IdenticalWindowsAcrossStreamsDedupInFlight) {
  // The gate counts what the detector actually computes; disable the cache
  // so only in-flight dedup can coalesce the twin stream.
  serve::testutil::DetectGate gate;
  serve::EngineOptions eopts;
  eopts.cache_capacity = 0;
  eopts.detect_observer_for_testing = gate.hook();
  serve::InferenceEngine engine(&registry(), eopts);
  WindowScheduler scheduler(&engine);

  StreamConfig config = Config(/*stride=*/2);
  config.history = 64;
  config.max_in_flight = 16;  // hold every window of the feed in flight
  ASSERT_TRUE(scheduler.Open("a", config).ok());
  ASSERT_TRUE(scheduler.Open("b", config).ok());

  // 24 samples, width 8, stride 2: windows end at 8, 10, ..., 24 — nine per
  // stream, identical content across the two streams.
  const Tensor series = RandomSeries(3, 24, 77);

  gate.Close();
  ASSERT_TRUE(scheduler.Append("a", series).ok());
  const auto b_ack = scheduler.AppendSamples("b", series);  // wire adapter
  ASSERT_TRUE(b_ack.ok());
  EXPECT_EQ(b_ack->windows_emitted, 9u);

  // All 9 of a's windows are in flight; all 9 of b's parked on them.
  EXPECT_EQ(engine.cache_stats().followers, 9u);
  gate.Release();
  scheduler.Flush();

  EXPECT_EQ(gate.arrivals(), 9);  // b's feed cost zero detection passes
  const auto a_stats = *scheduler.GetStats("a");
  const auto b_stats = *scheduler.GetStats("b");
  EXPECT_EQ(a_stats.windows_completed, 9u);
  EXPECT_EQ(a_stats.windows_deduped, 0u);
  EXPECT_EQ(b_stats.windows_completed, 9u);
  EXPECT_EQ(b_stats.windows_deduped, 9u);
  EXPECT_EQ(b_stats.windows_failed, 0u);

  // The lifetime counter reaches the wire ack struct (a no-window append
  // returns the post-append counters without emitting anything new).
  const auto idle_ack =
      scheduler.AppendSamples("b", Tensor::Zeros(Shape{3, 1}));
  ASSERT_TRUE(idle_ack.ok());
  EXPECT_EQ(idle_ack->deduped_windows, 9u);

  // And the per-report flag survives the wire mapping: every one of b's
  // reports is marked deduped, with graphs identical to a's.
  const auto a_reports = *scheduler.Take("a");
  const auto b_reports = *scheduler.TakeReports("b", 0);
  ASSERT_EQ(a_reports.size(), 9u);
  ASSERT_EQ(b_reports.size(), 9u);
  for (size_t i = 0; i < b_reports.size(); ++i) {
    EXPECT_TRUE(b_reports[i].deduped) << "report " << i;
    EXPECT_FALSE(a_reports[i].deduped) << "report " << i;
    ASSERT_EQ(b_reports[i].edges.size(), a_reports[i].edges.size());
  }
}

TEST(StreamWireTest, StreamingDisabledWithoutBackend) {
  serve::ModelRegistry registry;
  ASSERT_TRUE(registry.Register("m", TinyModel()).ok());
  serve::InferenceEngine engine(&registry);
  serve::WireServer server(&engine);  // no stream backend
  ASSERT_TRUE(server.Start().ok());

  serve::WireClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  serve::wire::StreamOpenMsg open;
  open.stream = "s";
  open.model = "m";
  EXPECT_EQ(client.OpenStream(open).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(client.StreamReports("s").status().code(),
            StatusCode::kFailedPrecondition);
  // The connection survives the rejections.
  ASSERT_TRUE(client.Ping(7).ok());
}

}  // namespace
}  // namespace stream
}  // namespace causalformer

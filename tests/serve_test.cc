#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "core/detector.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "data/windowing.h"
#include "nn/serialize.h"
#include "serve/inference_engine.h"
#include "serve/model_registry.h"
#include "serve/score_cache.h"
#include "serve_test_util.h"

namespace causalformer {
namespace serve {
namespace {

using testutil::DetectGate;
using testutil::ExpectSameDetection;
using testutil::RandomWindows;
using testutil::TinyModel;
using testutil::TinyModelOptions;

TEST(ModelRegistryTest, LoadUnloadList) {
  Rng rng(3);
  auto model = TinyModel();
  const std::string path = testing::TempDir() + "/registry_roundtrip.cfpm";
  ASSERT_TRUE(nn::SaveParameters(*model, path).ok());

  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("m1", path, TinyModelOptions()).ok());
  EXPECT_TRUE(registry.Has("m1"));
  EXPECT_FALSE(registry.Has("m2"));
  // Names are unique.
  EXPECT_FALSE(registry.Load("m1", path, TinyModelOptions()).ok());

  const auto infos = registry.List();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].name, "m1");
  EXPECT_EQ(infos[0].checkpoint_path, path);
  EXPECT_EQ(infos[0].num_parameters, model->NumParameters());

  // A handle outlives Unload (in-flight queries keep the model alive).
  const auto handle = registry.Get("m1");
  ASSERT_NE(handle, nullptr);
  EXPECT_TRUE(registry.Unload("m1").ok());
  EXPECT_EQ(registry.Get("m1"), nullptr);
  EXPECT_EQ(registry.Unload("m1").code(), StatusCode::kNotFound);
  EXPECT_EQ(handle->options().num_series, 3);
  std::remove(path.c_str());
}

TEST(ModelRegistryTest, MissingCheckpointIsNotFound) {
  ModelRegistry registry;
  EXPECT_EQ(registry.Load("m", "/nonexistent/ck.cfpm", TinyModelOptions()).code(),
            StatusCode::kNotFound);
}

TEST(ModelRegistryTest, ArchitectureMismatchIsRejected) {
  auto model = TinyModel();
  const std::string path = testing::TempDir() + "/registry_arch.cfpm";
  ASSERT_TRUE(nn::SaveParameters(*model, path).ok());
  ModelRegistry registry;
  core::ModelOptions other = TinyModelOptions(/*num_series=*/5);
  EXPECT_FALSE(registry.Load("m", path, other).ok());
  std::remove(path.c_str());
}

// The serialize round-trip guarantee the serving story rests on: train a
// model, checkpoint it, reload through the registry, and the reloaded model
// must produce *bit-identical* detection scores.
TEST(ModelRegistryTest, TrainedRoundTripDetectsIdentically) {
  Rng rng(11);
  data::SyntheticOptions data_opt;
  data_opt.length = 160;
  const data::Dataset dataset =
      GenerateSynthetic(data::SyntheticStructure::kMediator, data_opt, &rng);

  core::ModelOptions mopt = TinyModelOptions(dataset.num_series(), 8);
  auto model = std::make_unique<core::CausalityTransformer>(mopt, &rng);
  core::TrainOptions topt;
  topt.max_epochs = 3;
  topt.stride = 2;
  Tensor windows;
  TrainCausalityTransformer(model.get(), dataset.series, topt, &rng, &windows);

  const std::string path = testing::TempDir() + "/registry_trained.cfpm";
  ASSERT_TRUE(nn::SaveParameters(*model, path).ok());

  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("trained", path, mopt).ok());
  const auto restored = registry.Get("trained");
  ASSERT_NE(restored, nullptr);

  const core::DetectorOptions dopt;
  const auto original =
      core::DetectCausalGraphBatched(*model, {windows}, dopt);
  const auto reloaded =
      core::DetectCausalGraphBatched(*restored, {windows}, dopt);
  ASSERT_EQ(original.size(), 1u);
  ASSERT_EQ(reloaded.size(), 1u);
  ExpectSameDetection(original[0], reloaded[0]);
  std::remove(path.c_str());
}

TEST(ScoreCacheTest, LruEvictionAndStats) {
  ScoreCache cache(/*capacity=*/2);
  auto result = [&](int n) {
    return std::make_shared<const core::DetectionResult>(n);
  };
  CacheKey a{"m", {1, 1}, "o"};
  CacheKey b{"m", {2, 2}, "o"};
  CacheKey c{"m", {3, 3}, "o"};

  EXPECT_EQ(cache.Get(a), nullptr);
  cache.Put(a, result(2));
  cache.Put(b, result(3));
  EXPECT_NE(cache.Get(a), nullptr);  // refreshes a; b is now LRU
  cache.Put(c, result(4));           // evicts b
  EXPECT_EQ(cache.Get(b), nullptr);
  EXPECT_NE(cache.Get(a), nullptr);
  EXPECT_NE(cache.Get(c), nullptr);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.capacity, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 2u);
}

TEST(ScoreCacheTest, EraseModelDropsOnlyThatModel) {
  ScoreCache cache(8);
  auto result = std::make_shared<const core::DetectionResult>(2);
  cache.Put({"m1", {1, 1}, "o"}, result);
  cache.Put({"m2", {1, 1}, "o"}, result);
  cache.EraseModel("m1");
  EXPECT_EQ(cache.Get({"m1", {1, 1}, "o"}), nullptr);
  EXPECT_NE(cache.Get({"m2", {1, 1}, "o"}), nullptr);
}

TEST(ScoreCacheTest, DifferentOptionsDifferentEntries) {
  core::DetectorOptions a;
  core::DetectorOptions b;
  b.use_relevance = false;
  EXPECT_NE(EncodeDetectorOptions(a), EncodeDetectorOptions(b));
  EXPECT_FALSE(SameDetectorOptions(a, b));
  EXPECT_TRUE(SameDetectorOptions(a, a));
}

TEST(ScoreCacheTest, WindowHashSensitivity) {
  Rng rng(5);
  Tensor w1 = Tensor::Randn(Shape{2, 3, 8}, &rng);
  Tensor w2 = w1.Clone();
  EXPECT_TRUE(HashWindows(w1) == HashWindows(w2));
  w2.data()[0] += 1.0f;
  EXPECT_FALSE(HashWindows(w1) == HashWindows(w2));
}

TEST(ScoreCacheTest, TtlExpiresIdleEntries) {
  // A controllable clock so the test ages entries deterministically.
  double now = 100.0;
  ScoreCacheOptions options;
  options.capacity = 8;
  options.ttl_seconds = 10.0;
  options.clock_for_testing = [&now] { return now; };
  ScoreCache cache(options);
  auto result = std::make_shared<const core::DetectionResult>(2);

  CacheKey a{"m", {1, 1}, "o"};
  CacheKey b{"m", {2, 2}, "o"};
  cache.Put(a, result);
  now += 6;
  cache.Put(b, result);
  EXPECT_NE(cache.Get(a), nullptr);  // age 6 < ttl; Get does not reset age
  now += 6;                          // a is 12 old, b is 6 old
  EXPECT_EQ(cache.Get(a), nullptr);  // expired, counted below
  EXPECT_NE(cache.Get(b), nullptr);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.expirations, 1u);
  EXPECT_EQ(stats.evictions, 0u);  // age-out is not an LRU eviction
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(stats.ttl_seconds, 10.0);

  // A Put refresh makes the entry young again.
  now += 6;  // b is 12 old
  cache.Put(b, result);
  now += 6;
  EXPECT_NE(cache.Get(b), nullptr);  // 6 since the refresh
}

TEST(ScoreCacheTest, PruneExpiredDropsEveryStaleEntry) {
  double now = 0.0;
  ScoreCacheOptions options;
  options.capacity = 8;
  options.ttl_seconds = 5.0;
  options.clock_for_testing = [&now] { return now; };
  ScoreCache cache(options);
  auto result = std::make_shared<const core::DetectionResult>(2);
  cache.Put({"m", {1, 1}, "o"}, result);
  cache.Put({"m", {2, 2}, "o"}, result);
  now = 4;
  cache.Put({"m", {3, 3}, "o"}, result);
  EXPECT_EQ(cache.PruneExpired(), 0u);  // nothing past 5s yet
  now = 7;
  EXPECT_EQ(cache.PruneExpired(), 2u);  // the two 7s-old entries
  const auto stats = cache.stats();
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(stats.expirations, 2u);
}

TEST(ScoreCacheTest, ZeroTtlNeverExpires) {
  double now = 0.0;
  ScoreCacheOptions options;
  options.capacity = 4;
  options.ttl_seconds = 0;
  options.clock_for_testing = [&now] { return now; };
  ScoreCache cache(options);
  auto result = std::make_shared<const core::DetectionResult>(2);
  cache.Put({"m", {1, 1}, "o"}, result);
  now = 1e9;
  EXPECT_NE(cache.Get({"m", {1, 1}, "o"}), nullptr);
  EXPECT_EQ(cache.PruneExpired(), 0u);
  EXPECT_EQ(cache.stats().expirations, 0u);
}

TEST(ScoreCacheTest, ColumnDigestsComposeToHashWindows) {
  // The incremental-hash identity at the score-cache level: folding
  // per-time-step column digests reproduces HashWindows of a [1, N, T]
  // tensor exactly.
  Rng rng(17);
  const Tensor window = Tensor::Randn(Shape{1, 4, 6}, &rng);
  std::vector<ColumnDigest> digests;
  for (int64_t t = 0; t < 6; ++t) {
    // Column t: the 4 series values, stride T apart in [1, N, T] layout.
    digests.push_back(HashWindowColumn(window.data() + t, 4, 6));
  }
  const WindowHash combined = CombineColumnDigests(digests, 4);
  const WindowHash direct = HashWindows(window);
  EXPECT_TRUE(combined == direct);
}

TEST(InferenceEngineTest, RejectsUnknownModelAndBadGeometry) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("m", TinyModel()).ok());
  InferenceEngine engine(&registry);

  DiscoveryRequest unknown;
  unknown.model = "nope";
  unknown.windows = RandomWindows(2, 1);
  EXPECT_EQ(engine.Discover(std::move(unknown)).status.code(),
            StatusCode::kNotFound);

  DiscoveryRequest bad;
  bad.model = "m";
  Rng rng(2);
  bad.windows = Tensor::Randn(Shape{2, 5, 8}, &rng);  // wrong N
  EXPECT_EQ(engine.Discover(std::move(bad)).status.code(),
            StatusCode::kInvalidArgument);

  DiscoveryRequest empty;
  empty.model = "m";
  EXPECT_EQ(engine.Discover(std::move(empty)).status.code(),
            StatusCode::kInvalidArgument);

  // Malformed detector options must be rejected up front — inside the batch
  // executor they would trip a CF_CHECK and abort the whole service.
  DiscoveryRequest bad_options;
  bad_options.model = "m";
  bad_options.windows = RandomWindows(2, 3);
  bad_options.options.max_windows = 0;
  EXPECT_EQ(engine.Discover(std::move(bad_options)).status.code(),
            StatusCode::kInvalidArgument);

  DiscoveryRequest bad_clusters;
  bad_clusters.model = "m";
  bad_clusters.windows = RandomWindows(2, 4);
  bad_clusters.options.top_clusters = 5;  // > num_clusters
  EXPECT_EQ(engine.Discover(std::move(bad_clusters)).status.code(),
            StatusCode::kInvalidArgument);
}

TEST(InferenceEngineTest, AnswersAndCachesRepeatQueries) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("m", TinyModel()).ok());
  InferenceEngine engine(&registry);

  DiscoveryRequest request;
  request.model = "m";
  request.windows = RandomWindows(4, 21);

  const DiscoveryResponse cold = engine.Discover(request);
  ASSERT_TRUE(cold.status.ok());
  ASSERT_NE(cold.result, nullptr);
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_GE(cold.batch_size, 1);

  const DiscoveryResponse warm = engine.Discover(request);
  ASSERT_TRUE(warm.status.ok());
  EXPECT_TRUE(warm.cache_hit);
  // The very same shared result object is handed back.
  EXPECT_EQ(warm.result.get(), cold.result.get());
  EXPECT_EQ(engine.cache_stats().hits, 1u);

  // A different window batch is a different key.
  DiscoveryRequest other;
  other.model = "m";
  other.windows = RandomWindows(4, 22);
  const DiscoveryResponse miss = engine.Discover(std::move(other));
  ASSERT_TRUE(miss.status.ok());
  EXPECT_FALSE(miss.cache_hit);
}

TEST(InferenceEngineTest, UnloadDropsCacheAndRejectsFutureQueries) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("m", TinyModel()).ok());
  InferenceEngine engine(&registry);

  DiscoveryRequest request;
  request.model = "m";
  request.windows = RandomWindows(2, 31);
  ASSERT_TRUE(engine.Discover(request).status.ok());

  ASSERT_TRUE(engine.UnloadModel("m").ok());
  EXPECT_EQ(engine.Discover(request).status.code(), StatusCode::kNotFound);
}

// Coalesced micro-batches must answer exactly what one-at-a-time requests
// answer. Hold detection so submissions pile up, then compare every batched
// response against a fresh sequential run (caching disabled so each run
// computes).
TEST(InferenceEngineTest, BatchedResultsMatchSequential) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("m", TinyModel()).ok());
  DetectGate gate;
  EngineOptions opts;
  opts.cache_capacity = 0;  // force full computation on every submit
  opts.batcher.max_in_flight_batches = 1;
  opts.detect_observer_for_testing = gate.hook();
  InferenceEngine engine(&registry, opts);

  constexpr int kRequests = 6;
  std::vector<Tensor> windows;
  for (int i = 0; i < kRequests; ++i) {
    windows.push_back(RandomWindows(2 + (i % 3), 100 + i));
  }

  // Hold the first batch at the gate so all submissions queue behind it and
  // must coalesce.
  gate.Close();

  std::vector<std::future<DiscoveryResponse>> futures;
  for (int i = 0; i < kRequests; ++i) {
    DiscoveryRequest request;
    request.model = "m";
    request.windows = windows[i];
    futures.push_back(engine.SubmitAsync(std::move(request)));
  }
  gate.Release();

  std::vector<DiscoveryResponse> batched;
  for (auto& f : futures) batched.push_back(f.get());

  int max_batch = 0;
  for (const auto& r : batched) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    max_batch = std::max(max_batch, r.batch_size);
  }
  // All submissions were queued before any batch could run, so at least one
  // dispatched batch carried several requests.
  EXPECT_GE(max_batch, 2);
  EXPECT_GE(engine.batcher_stats().coalesced, 2u);

  for (int i = 0; i < kRequests; ++i) {
    DiscoveryRequest request;
    request.model = "m";
    request.windows = windows[i];
    const DiscoveryResponse solo = engine.Discover(std::move(request));
    ASSERT_TRUE(solo.status.ok());
    ExpectSameDetection(*batched[i].result, *solo.result);
  }
}

TEST(InferenceEngineTest, ConcurrentSubmittersAllComplete) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("a", TinyModel(1)).ok());
  ASSERT_TRUE(registry.Register("b", TinyModel(2)).ok());
  InferenceEngine engine(&registry);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        DiscoveryRequest request;
        request.model = (t % 2 == 0) ? "a" : "b";
        request.windows = RandomWindows(2, 1000 + t * kPerThread + i % 3);
        if (engine.Discover(std::move(request)).status.ok()) ++ok;
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(ok.load(), kThreads * kPerThread);
}

TEST(InferenceEngineTest, HotSwapWhileQueuedRunsOnPinnedModel) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("m", TinyModel()).ok());
  DetectGate gate;
  EngineOptions opts;
  opts.detect_observer_for_testing = gate.hook();
  InferenceEngine engine(&registry, opts);

  // Hold detection so the executing batch cannot finish and submissions
  // stay queued while the model is swapped underneath them.
  gate.Close();

  std::vector<std::future<DiscoveryResponse>> futures;
  for (int i = 0; i < 6; ++i) {
    DiscoveryRequest request;
    request.model = "m";
    request.windows = RandomWindows(2, 500 + static_cast<uint64_t>(i));
    futures.push_back(engine.SubmitAsync(std::move(request)));
  }

  // Swap "m" to a different architecture while the requests are in flight.
  ASSERT_TRUE(engine.UnloadModel("m").ok());
  Rng rng(11);
  ASSERT_TRUE(registry
                  .Register("m", std::make_unique<core::CausalityTransformer>(
                                     TinyModelOptions(5, 12), &rng))
                  .ok());

  gate.Release();

  // Every queued request was validated against the old 3-series handle and
  // must execute on it: not fail NotFound after the unload, and never reach
  // the detector's geometry CF_CHECKs against the new 5-series model (which
  // would abort the process).
  for (auto& f : futures) {
    const DiscoveryResponse response = f.get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(response.result->scores.num_series(), 3);
  }
}

TEST(InferenceEngineTest, HotSwapDoesNotServeStaleCachedScores) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("m", TinyModel(1)).ok());
  DetectGate gate;
  EngineOptions opts;
  opts.detect_observer_for_testing = gate.hook();
  InferenceEngine engine(&registry, opts);

  // Hold detection so the request is still in flight when the swap happens.
  gate.Close();

  DiscoveryRequest request;
  request.model = "m";
  request.windows = RandomWindows(2, 600);
  auto queued = engine.SubmitAsync(request);

  // Swap "m" to a same-geometry model with different weights while queued.
  ASSERT_TRUE(engine.UnloadModel("m").ok());
  ASSERT_TRUE(registry.Register("m", TinyModel(2)).ok());

  gate.Release();

  // The queued request runs on the pinned old model and fills the cache —
  // after UnloadModel already erased "m".
  ASSERT_TRUE(queued.get().status.ok());

  // A same-window query against the swapped-in model must recompute, not be
  // served the old model's scores: its cache key carries the new registry
  // generation, so the stale entry cannot match.
  const DiscoveryResponse fresh = engine.Discover(request);
  ASSERT_TRUE(fresh.status.ok());
  EXPECT_FALSE(fresh.cache_hit);

  // The recomputed result is cached under the new generation as usual.
  EXPECT_TRUE(engine.Discover(request).cache_hit);
}

TEST(MicroBatcherTest, QueueFullRejectsAndShutdownDrains) {
  // An executor that blocks until released lets the queue fill.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  BatcherOptions opts;
  opts.max_batch_requests = 1;
  opts.max_queue = 2;
  opts.max_in_flight_batches = 1;
  auto executor = [&](std::vector<BatchItem> items) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
    }
    for (auto& item : items) {
      DiscoveryResponse response;
      response.batch_size = static_cast<int>(items.size());
      item.promise.set_value(std::move(response));
    }
  };

  std::vector<std::future<DiscoveryResponse>> futures;
  {
    MicroBatcher batcher(opts, executor);
    // Occupy the executor with the first request, then wait until it has
    // actually been dispatched so the queue drains no further.
    {
      DiscoveryRequest request;
      request.model = "m";
      request.windows = RandomWindows(1, 40);
      futures.push_back(
          batcher.Submit(std::move(request), CacheKey{}, nullptr));
    }
    while (batcher.stats().batches == 0) std::this_thread::yield();
    // With the dispatcher stalled (in-flight cap 1), max_queue accepts then a
    // rejection, deterministically.
    bool saw_rejection = false;
    for (int i = 0; i < 4 && !saw_rejection; ++i) {
      DiscoveryRequest request;
      request.model = "m";
      request.windows = RandomWindows(1, 41 + i);
      auto future = batcher.Submit(std::move(request), CacheKey{}, nullptr);
      if (future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        EXPECT_EQ(future.get().status.code(), StatusCode::kFailedPrecondition);
        saw_rejection = true;
      } else {
        futures.push_back(std::move(future));
      }
    }
    EXPECT_TRUE(saw_rejection);
    EXPECT_GE(batcher.stats().rejected, 1u);
    {
      std::lock_guard<std::mutex> lock(mu);
      release = true;
    }
    cv.notify_all();
    // Destructor drains: every accepted request resolves (possibly with a
    // shutdown status for still-queued ones).
  }
  for (auto& f : futures) {
    f.wait();  // must not hang
  }
}

}  // namespace
}  // namespace serve
}  // namespace causalformer

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "core/detector.h"
#include "serve/inference_engine.h"
#include "serve/model_registry.h"
#include "serve/score_cache.h"
#include "serve_test_util.h"

// The serving-layer concurrency/stress harness: K threads hammer one
// InferenceEngine with identical and near-identical (epsilon-perturbed)
// queries while a detector call-counting hook proves the dedup invariant —
// detector invocations equal *unique* (model generation, window hash,
// options) keys, never submissions — and every follower receives
// bit-identical scores. The leader-error, engine-teardown and
// unload-while-parked fan-in paths are exercised explicitly. Timing is
// controlled, not raced: testutil::Barrier lines submitters up on one
// instant, testutil::DetectGate freezes detection so submissions provably
// overlap in flight, and testutil::ScriptedClock makes TTL expiry a scripted
// event. Run under ThreadSanitizer in CI (the `tsan` job).

namespace causalformer {
namespace serve {
namespace {

using testutil::Barrier;
using testutil::DetectGate;
using testutil::ExpectSameDetection;
using testutil::FutureCallback;
using testutil::RandomWindows;
using testutil::ScriptedClock;
using testutil::TinyModel;
using testutil::TinyModelOptions;

// Thread-safe recorder behind EngineOptions::detect_observer_for_testing:
// one count per key the detector actually computed.
class DetectCounter {
 public:
  std::function<void(const CacheKey&)> hook() {
    return [this](const CacheKey& key) {
      std::lock_guard<std::mutex> lock(mu_);
      ++total_;
      keys_.insert(KeyString(key));
    };
  }

  int total() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_;
  }

  size_t unique_keys() const {
    std::lock_guard<std::mutex> lock(mu_);
    return keys_.size();
  }

 private:
  static std::string KeyString(const CacheKey& key) {
    return key.model + "/" + std::to_string(key.generation) + "/" +
           std::to_string(key.windows.lo) + ":" +
           std::to_string(key.windows.hi) + "/" +
           std::string(key.options.view());
  }

  mutable std::mutex mu_;
  int total_ = 0;
  std::set<std::string> keys_;
};

// Spin until `predicate` holds (bounded); the harness uses it to await
// asynchronous counters without sleeping fixed amounts.
template <typename Pred>
bool SpinUntil(Pred predicate,
               std::chrono::milliseconds budget = std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (!predicate()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(ServeStressTest, IdenticalConcurrentRequestsRunOnce) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("m", TinyModel()).ok());
  DetectCounter counter;
  DetectGate gate;
  EngineOptions opts;
  opts.cache_capacity = 0;  // no cache: only in-flight dedup can coalesce
  opts.detect_observer_for_testing = gate.hook(counter.hook());
  InferenceEngine engine(&registry, opts);

  constexpr int kThreads = 8;
  const Tensor windows = RandomWindows(2, 900);

  // Freeze detection so every submission provably overlaps in flight, then
  // release K submitters through one barrier.
  gate.Close();
  Barrier barrier(kThreads);
  std::vector<std::future<DiscoveryResponse>> futures(kThreads);
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      DiscoveryRequest request;
      request.model = "m";
      request.windows = windows;
      barrier.Wait();
      futures[static_cast<size_t>(t)] = engine.SubmitAsync(std::move(request));
    });
  }
  for (auto& c : clients) c.join();

  // All K submissions are in: exactly one leader, K-1 parked followers.
  const auto parked = engine.cache_stats();
  EXPECT_EQ(parked.leaders, 1u);
  EXPECT_EQ(parked.followers, static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(parked.running, 1u);

  gate.Release();
  std::vector<DiscoveryResponse> responses;
  for (auto& f : futures) responses.push_back(f.get());

  // The detector ran exactly once — one invocation, one unique key — and
  // every caller got the *same* shared result object: bit-identical scores
  // by construction (ExpectSameDetection double-checks the values).
  EXPECT_EQ(counter.total(), 1);
  EXPECT_EQ(counter.unique_keys(), 1u);
  int followers = 0;
  for (const auto& r : responses) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    ASSERT_NE(r.result, nullptr);
    EXPECT_EQ(r.result.get(), responses.front().result.get());
    ExpectSameDetection(*r.result, *responses.front().result);
    if (r.deduped) ++followers;
  }
  EXPECT_EQ(followers, kThreads - 1);

  // The engine-wide snapshot surfaces the same gauges the wire StatsResult
  // reports, and the table drained.
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.cache.followers, static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(stats.cache.running, 0u);
}

TEST(ServeStressTest, EpsilonPerturbedRequestsNeverCoalesce) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("m", TinyModel()).ok());
  DetectCounter counter;
  DetectGate gate;
  EngineOptions opts;
  opts.cache_capacity = 0;
  opts.detect_observer_for_testing = gate.hook(counter.hook());
  InferenceEngine engine(&registry, opts);

  constexpr int kThreads = 6;
  const Tensor windows = RandomWindows(2, 901);

  // Thread t perturbs either its options epsilon or one window value by the
  // smallest representable step — work the detector must NOT coalesce.
  gate.Close();
  Barrier barrier(kThreads);
  std::vector<std::future<DiscoveryResponse>> futures(kThreads);
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      DiscoveryRequest request;
      request.model = "m";
      request.windows = windows.Clone();
      if (t % 2 == 0) {
        float epsilon = request.options.epsilon;
        for (int step = 0; step <= t; ++step) {
          epsilon = std::nextafterf(epsilon, 1.0f);
        }
        request.options.epsilon = epsilon;
      } else {
        float& cell = request.windows.data()[t];
        cell = std::nextafterf(cell, 2.0f * cell + 1.0f);
      }
      barrier.Wait();
      futures[static_cast<size_t>(t)] = engine.SubmitAsync(std::move(request));
    });
  }
  for (auto& c : clients) c.join();

  // Every perturbed request is its own leader; nothing parked on anything.
  EXPECT_EQ(engine.cache_stats().leaders, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(engine.cache_stats().followers, 0u);

  gate.Release();
  for (auto& f : futures) {
    const DiscoveryResponse r = f.get();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_FALSE(r.deduped);
  }
  // K distinct keys, K distinct detector invocations.
  EXPECT_EQ(counter.total(), kThreads);
  EXPECT_EQ(counter.unique_keys(), static_cast<size_t>(kThreads));
}

// The leader-error fan-in path at the table level, fully deterministic: K
// followers park, the leader completes with an error, and every follower
// receives that same error (counted as failed fan-ins) — never a hang, never
// a broken promise.
TEST(ServeStressTest, FollowersFanInOnLeaderError) {
  ScoreCache table(/*capacity=*/16);
  CacheKey key{"m", {7, 9}, {}, 1};
  DiscoveryCallback leader_done = [](DiscoveryResponse) {};
  const uint64_t leader = table.Join(key, &leader_done).lead;
  ASSERT_NE(leader, 0u);

  constexpr int kFollowers = 5;
  Barrier barrier(kFollowers + 1);
  std::vector<std::future<DiscoveryResponse>> futures(kFollowers);
  std::vector<std::thread> threads;
  for (int t = 0; t < kFollowers; ++t) {
    threads.emplace_back([&, t] {
      barrier.Wait();
      DiscoveryCallback done =
          FutureCallback(&futures[static_cast<size_t>(t)]);
      const ScoreCache::Joined joined = table.Join(key, &done);
      EXPECT_EQ(joined.cached, nullptr);
      EXPECT_EQ(joined.lead, 0u);  // parked as a follower
    });
  }
  barrier.Wait();
  for (auto& t : threads) t.join();
  EXPECT_EQ(table.stats().followers, static_cast<uint64_t>(kFollowers));

  DiscoveryResponse failure;
  failure.status = Status::Internal("leader exploded");
  table.Complete(key, leader, failure);
  // Completion is idempotent: a second resolve must not double-fan.
  table.Complete(key, leader, failure);

  for (auto& f : futures) {
    const DiscoveryResponse r = f.get();
    EXPECT_EQ(r.status.code(), StatusCode::kInternal);
    EXPECT_TRUE(r.deduped);
  }
  EXPECT_EQ(table.stats().failed_fanins, static_cast<uint64_t>(kFollowers));
  EXPECT_EQ(table.stats().running, 0u);
  EXPECT_EQ(table.stats().size, 0u);  // a failed leader caches nothing
}

// The leader-cancelled path end to end: the engine shuts down while the
// leader is still queued behind a stuck batch and K followers are parked on
// it. Every caller — leader and followers alike — must resolve with the same
// deterministic shutdown error; nobody hangs on a dead leader.
TEST(ServeStressTest, EngineTeardownFailsParkedFollowersDeterministically) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("m", TinyModel()).ok());
  DetectGate gate;
  EngineOptions opts;
  opts.cache_capacity = 0;
  opts.batcher.max_in_flight_batches = 1;  // one stuck batch blocks the queue
  opts.detect_observer_for_testing = gate.hook();
  auto engine = std::make_unique<InferenceEngine>(&registry, opts);

  gate.Close();
  // Occupy the sole executor with an unrelated query, held at the gate.
  DiscoveryRequest occupier;
  occupier.model = "m";
  occupier.windows = RandomWindows(1, 910);
  auto occupier_future = engine->SubmitAsync(std::move(occupier));
  ASSERT_TRUE(SpinUntil([&] { return engine->batcher_stats().batches == 1; }));

  // The leader queues behind it; followers park on the leader.
  constexpr int kFollowers = 4;
  const Tensor windows = RandomWindows(2, 911);
  std::vector<std::future<DiscoveryResponse>> futures;
  for (int t = 0; t < kFollowers + 1; ++t) {
    DiscoveryRequest request;
    request.model = "m";
    request.windows = windows;
    futures.push_back(engine->SubmitAsync(std::move(request)));
  }
  EXPECT_EQ(engine->cache_stats().followers, static_cast<uint64_t>(kFollowers));

  // Tear the engine down on a side thread: its batcher marks shutdown and
  // orphans the queued leader immediately, then blocks joining the stuck
  // executor until the gate releases. The sleep biases the race heavily
  // toward the orphan path, but on a crawling host (TSan CI) the executor
  // may still win and run the leader's batch — so the hard assertion is
  // the consistency contract, not which path won: nobody hangs, and the
  // leader and every parked follower observe the *same* outcome.
  std::thread teardown([&] { engine.reset(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  gate.Release();
  teardown.join();

  // The occupier was mid-execution and completes normally.
  EXPECT_TRUE(occupier_future.get().status.ok());
  std::vector<DiscoveryResponse> responses;
  for (auto& f : futures) responses.push_back(f.get());  // must not hang
  for (const auto& r : responses) {
    EXPECT_EQ(r.status.code(), responses.front().status.code())
        << r.status.ToString();
    if (r.status.ok()) {
      // Executor won the race: everyone shares the leader's result.
      EXPECT_EQ(r.result.get(), responses.front().result.get());
    } else {
      // Orphan path (the overwhelmingly common case): the deterministic
      // shutdown rejection, fanned to every caller.
      EXPECT_EQ(r.status.code(), StatusCode::kFailedPrecondition)
          << r.status.ToString();
    }
  }
}

// The unload-while-parked path: followers park on a leader pinned to model
// generation G; the model is hot-swapped to a different architecture while
// everything is still queued. The leader runs on the pinned handle, and the
// followers fan in on that pinned result — same 3-series scores, no
// NotFound, no geometry abort against the 5-series successor.
TEST(ServeStressTest, UnloadWhileParkedFollowersGetPinnedModelResult) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("m", TinyModel()).ok());
  DetectCounter counter;
  DetectGate gate;
  EngineOptions opts;
  opts.cache_capacity = 0;
  opts.detect_observer_for_testing = gate.hook(counter.hook());
  InferenceEngine engine(&registry, opts);

  gate.Close();
  constexpr int kCallers = 5;
  const Tensor windows = RandomWindows(2, 912);
  std::vector<std::future<DiscoveryResponse>> futures;
  for (int t = 0; t < kCallers; ++t) {
    DiscoveryRequest request;
    request.model = "m";
    request.windows = windows;
    futures.push_back(engine.SubmitAsync(std::move(request)));
  }
  EXPECT_EQ(engine.cache_stats().followers,
            static_cast<uint64_t>(kCallers - 1));

  // Swap "m" to a different architecture while leader + followers are
  // parked/queued.
  ASSERT_TRUE(engine.UnloadModel("m").ok());
  Rng rng(13);
  ASSERT_TRUE(registry
                  .Register("m", std::make_unique<core::CausalityTransformer>(
                                     TinyModelOptions(5, 12), &rng))
                  .ok());
  gate.Release();

  std::vector<DiscoveryResponse> responses;
  for (auto& f : futures) responses.push_back(f.get());
  for (const auto& r : responses) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.result->scores.num_series(), 3);
    EXPECT_EQ(r.result.get(), responses.front().result.get());
  }
  EXPECT_EQ(counter.total(), 1);
}

// ScriptedClock-driven TTL: a cached result that just expired must NOT make
// K identical queries recompute K times — the first re-query leads, the rest
// coalesce in flight. Detector invocations stay at exactly two (initial fill
// + one re-lead).
TEST(ServeStressTest, ExpiredCacheEntryRefillsThroughDedupOnce) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("m", TinyModel()).ok());
  ScriptedClock clock(100.0);
  obs::ObservabilityOptions obs_options;
  obs_options.clock = obs::Clock(clock.fn());
  obs::Observability obs(obs_options);
  DetectCounter counter;
  DetectGate gate;
  EngineOptions opts;
  opts.cache_capacity = 16;
  opts.cache_ttl_seconds = 10.0;
  opts.obs = &obs;  // the bundle's scripted clock drives the cache TTL
  opts.detect_observer_for_testing = gate.hook(counter.hook());
  InferenceEngine engine(&registry, opts);

  DiscoveryRequest request;
  request.model = "m";
  request.windows = RandomWindows(2, 913);
  ASSERT_TRUE(engine.Discover(request).status.ok());
  EXPECT_EQ(counter.total(), 1);
  EXPECT_TRUE(engine.Discover(request).cache_hit);  // young entry: cached

  clock.Advance(11.0);  // scripted expiry: the entry is now stale

  constexpr int kThreads = 6;
  gate.Close();
  Barrier barrier(kThreads);
  std::vector<std::future<DiscoveryResponse>> futures(kThreads);
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      DiscoveryRequest copy = request;
      barrier.Wait();
      futures[static_cast<size_t>(t)] = engine.SubmitAsync(std::move(copy));
    });
  }
  for (auto& c : clients) c.join();
  gate.Release();
  for (auto& f : futures) ASSERT_TRUE(f.get().status.ok());

  // One expiry-triggered recompute total, not one per caller.
  EXPECT_EQ(counter.total(), 2);
  EXPECT_EQ(engine.cache_stats().expirations, 1u);
  EXPECT_EQ(engine.cache_stats().followers,
            static_cast<uint64_t>(kThreads - 1));
}

// Shape-bucketed batching: requests with two different detector-option sets
// arrive interleaved while the sole executor is stuck. Each option set must
// coalesce into one homogeneous full batch — riders join across the
// interleaving, which single-queue head-grouping could only do by scanning
// past incompatible traffic.
TEST(ServeStressTest, InterleavedOptionSetsFormHomogeneousFullBatches) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("m", TinyModel()).ok());
  DetectGate gate;
  EngineOptions opts;
  opts.cache_capacity = 0;
  opts.batcher.max_in_flight_batches = 1;
  opts.detect_observer_for_testing = gate.hook();
  InferenceEngine engine(&registry, opts);

  gate.Close();
  DiscoveryRequest occupier;
  occupier.model = "m";
  occupier.windows = RandomWindows(1, 920);
  auto occupier_future = engine.SubmitAsync(std::move(occupier));
  ASSERT_TRUE(SpinUntil([&] { return engine.batcher_stats().batches == 1; }));

  // 4 requests per option set, submitted alternating A, B, A, B, ...
  constexpr int kPerSet = 4;
  std::vector<std::future<DiscoveryResponse>> set_a;
  std::vector<std::future<DiscoveryResponse>> set_b;
  for (int i = 0; i < kPerSet; ++i) {
    DiscoveryRequest a;
    a.model = "m";
    a.windows = RandomWindows(2, 921 + static_cast<uint64_t>(i));
    set_a.push_back(engine.SubmitAsync(std::move(a)));

    DiscoveryRequest b;
    b.model = "m";
    b.windows = RandomWindows(2, 931 + static_cast<uint64_t>(i));
    b.options.num_clusters = 3;  // different options: must never share a batch
    set_b.push_back(engine.SubmitAsync(std::move(b)));
  }
  // Two pending shape buckets while everything is parked behind the
  // occupier.
  EXPECT_EQ(engine.batcher_stats().shape_buckets, 2);

  gate.Release();
  for (auto& f : set_a) {
    const DiscoveryResponse r = f.get();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.batch_size, kPerSet);  // A rode as one homogeneous batch
  }
  for (auto& f : set_b) {
    const DiscoveryResponse r = f.get();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.batch_size, kPerSet);  // so did B
  }
  EXPECT_TRUE(occupier_future.get().status.ok());
  EXPECT_EQ(engine.batcher_stats().shape_buckets, 0);
}

// Fixed admission at the MicroBatcher level, with a hand-driven executor
// (a DetectGate held inside the execute function): lone dispatches never
// park an executor — with one batch held, the next request runs on the idle
// executor at once — and riders queued behind busy executors fill a batch up
// to the summed-window budget, the rest dispatching as a later batch.
TEST(ServeStressTest, EveryExecutorTakesWorkAndRidersFillTheWindowBudget) {
  DetectGate gate;
  BatcherOptions opts;
  opts.max_in_flight_batches = 2;
  opts.max_batch_windows = 4;  // two 2-window requests fill a batch
  std::mutex mu;
  std::vector<int64_t> batch_windows;  // summed windows of each batch run
  const auto hold = gate.hook();
  MicroBatcher batcher(opts, [&](std::vector<BatchItem>& items) {
    hold(items.front().key);
    int64_t windows = 0;
    for (const auto& item : items) windows += item.request.windows.dim(0);
    {
      std::lock_guard<std::mutex> lock(mu);
      batch_windows.push_back(windows);
    }
    for (auto& item : items) {
      DiscoveryResponse response;
      response.batch_size = static_cast<int>(items.size());
      item.done(std::move(response));
    }
  });

  const auto submit = [&](int64_t b, uint64_t seed) {
    DiscoveryRequest request;
    request.model = "m";
    request.windows = RandomWindows(b, seed);
    std::future<DiscoveryResponse> future;
    batcher.Submit(std::move(request), CacheKey{}, nullptr,
                   FutureCallback(&future));
    return future;
  };

  // Two lone single-window dispatches: sparse batches leave every executor
  // admitted.
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(submit(1, 940 + static_cast<uint64_t>(i)).get().batch_size, 1);
  }
  EXPECT_EQ(batcher.stats().in_flight_limit, 2);

  // Hold one batch in the execute function; a second request must reach it
  // on the idle executor while the first is still held.
  gate.Close();
  auto held = submit(1, 950);
  ASSERT_TRUE(SpinUntil([&] { return gate.arrivals() == 3; }));
  auto second = submit(1, 951);
  EXPECT_TRUE(SpinUntil([&] { return gate.arrivals() == 4; }))
      << "the second request waited behind the held batch";

  // Three 2-window requests queue behind the two busy executors: the first
  // two fill the 4-window budget as one batch, the third rides alone later.
  std::vector<std::future<DiscoveryResponse>> riders;
  for (int i = 0; i < 3; ++i) {
    riders.push_back(submit(2, 952 + static_cast<uint64_t>(i)));
  }
  gate.Release();
  EXPECT_EQ(held.get().batch_size, 1);
  EXPECT_EQ(second.get().batch_size, 1);
  EXPECT_EQ(riders[0].get().batch_size, 2);
  EXPECT_EQ(riders[1].get().batch_size, 2);
  EXPECT_EQ(riders[2].get().batch_size, 1);

  const MicroBatcher::Stats stats = batcher.stats();
  EXPECT_EQ(stats.batches, 6u);
  EXPECT_EQ(stats.in_flight_limit, 2);
  std::lock_guard<std::mutex> lock(mu);
  std::sort(batch_windows.begin(), batch_windows.end());
  EXPECT_EQ(batch_windows, (std::vector<int64_t>{1, 1, 1, 1, 2, 4}));
}

// Mixed identical/perturbed sustained load: K threads × R rounds, half the
// submissions duplicates of a shared hot window, half unique per (thread,
// round). The invariant that matters under load: detector invocations ==
// unique keys, and every response carries the right scores for *its* window
// (spot-checked against a fresh engine).
TEST(ServeStressTest, SustainedMixedLoadComputesEachUniqueKeyOnce) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("m", TinyModel()).ok());
  DetectCounter counter;
  DetectGate gate;
  EngineOptions opts;
  opts.cache_capacity = 0;  // dedup only; no cache assistance
  opts.detect_observer_for_testing = gate.hook(counter.hook());
  InferenceEngine engine(&registry, opts);

  constexpr int kThreads = 4;
  constexpr int kRounds = 6;
  const Tensor hot = RandomWindows(2, 960);

  gate.Close();
  Barrier barrier(kThreads);
  std::vector<std::vector<std::future<DiscoveryResponse>>> futures(kThreads);
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      barrier.Wait();
      for (int round = 0; round < kRounds; ++round) {
        DiscoveryRequest request;
        request.model = "m";
        request.windows =
            (round % 2 == 0)
                ? hot
                : RandomWindows(2, 961 + static_cast<uint64_t>(t * kRounds +
                                                               round));
        futures[static_cast<size_t>(t)].push_back(
            engine.SubmitAsync(std::move(request)));
      }
    });
  }
  for (auto& c : clients) c.join();
  gate.Release();

  std::shared_ptr<const core::DetectionResult> hot_result;
  for (int t = 0; t < kThreads; ++t) {
    for (int round = 0; round < kRounds; ++round) {
      const DiscoveryResponse r =
          futures[static_cast<size_t>(t)][static_cast<size_t>(round)].get();
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      if (round % 2 == 0) {
        // Every duplicate of the hot window shares one result object.
        if (hot_result == nullptr) {
          hot_result = r.result;
        } else {
          EXPECT_EQ(r.result.get(), hot_result.get());
        }
      }
    }
  }

  // Unique keys: the hot window + one per (thread, odd round).
  const int unique =
      1 + kThreads * (kRounds / 2);
  EXPECT_EQ(counter.total(), unique);
  EXPECT_EQ(counter.unique_keys(), static_cast<size_t>(unique));
  EXPECT_EQ(engine.cache_stats().followers,
            static_cast<uint64_t>(kThreads * ((kRounds + 1) / 2) - 1));

  // Spot-check the hot window's scores against an independent engine.
  ModelRegistry fresh_registry;
  ASSERT_TRUE(fresh_registry.Register("m", TinyModel()).ok());
  InferenceEngine fresh(&fresh_registry);
  DiscoveryRequest check;
  check.model = "m";
  check.windows = hot;
  const DiscoveryResponse expected = fresh.Discover(std::move(check));
  ASSERT_TRUE(expected.status.ok());
  ExpectSameDetection(*hot_result, *expected.result);
}

}  // namespace
}  // namespace serve
}  // namespace causalformer

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "serve/engine_pool.h"
#include "serve/model_registry.h"
#include "serve_test_util.h"

// Shard fault-injection suite: kill and drain an EnginePool shard *mid-batch*
// — executing batch held at a DetectGate, a dedup leader queued behind
// it with followers parked on its InFlightTable — and prove the failure
// contract: every caller resolves (errors, never hangs), the ring re-homes
// the dead shard's key space immediately, drain completes with zero client
// errors, and a restarted shard comes back cold (generation-keyed cache, so
// a stale score can never be served). The choreography lever is
// testutil::FailpointShard; timing is controlled, not raced. Runs under
// ThreadSanitizer in CI (the `tsan` job).

namespace causalformer {
namespace serve {
namespace {

using testutil::DetectGate;
using testutil::ExpectSameDetection;
using testutil::FailpointShard;
using testutil::RandomWindows;
using testutil::TinyModel;

// Spin until `predicate` holds (bounded); awaits asynchronous state — ring
// rebuilds, drain flags — without sleeping fixed amounts.
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

// A two-shard pool whose shard batchers hold exactly one batch in flight, so
// a wedged batch deterministically pins everything submitted after it in the
// queue — the shape every kill/drain scene here wants.
EnginePoolOptions FaultPoolOptions(size_t num_shards = 2) {
  EnginePoolOptions popts;
  popts.num_shards = num_shards;
  popts.engine.cache_capacity = 0;  // dedup only; no cache assistance
  popts.engine.batcher.max_in_flight_batches = 1;
  popts.engine.batcher.adaptive_in_flight = false;
  return popts;
}

DiscoveryRequest Query(uint64_t seed, int64_t b = 1) {
  DiscoveryRequest request;
  request.model = "m";
  request.windows = RandomWindows(b, seed);
  return request;
}

// Kill mid-batch. The contract, caller by caller: the batch that was
// executing when the kill landed finishes normally (its work is already on
// the detector); the leader queued behind it and every follower parked on
// that leader's in-flight entry resolve with the deterministic shutdown
// error — not a hang; the ring drops the shard the moment the kill starts,
// so pool submissions land on the survivor and succeed; and the pinned
// frontend rejects immediately while the slot is down.
TEST(ShardFaultTest, KillMidBatchResolvesEveryCallerAndReroutes) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("m", TinyModel()).ok());
  DetectGate gate;
  EnginePoolOptions popts = FaultPoolOptions();
  popts.engine.detect_observer_for_testing = gate.hook();
  EnginePool pool(&registry, popts);

  FailpointShard fp(&pool, 0, &gate);
  auto executing = fp.SubmitStuck(Query(500));

  // A distinct leader queues behind the wedged batch; three duplicates park
  // on its in-flight entry as followers.
  auto leader = pool.shard_frontend(0)->SubmitAsync(Query(501, 2));
  std::vector<std::future<DiscoveryResponse>> followers;
  for (int i = 0; i < 3; ++i) {
    followers.push_back(pool.shard_frontend(0)->SubmitAsync(Query(501, 2)));
  }
  EXPECT_EQ(pool.shard_stats()[0].engine.dedup.hits, 3u);

  fp.KillAsync();
  // The ring re-homes shard 0's keys before the engine teardown blocks on
  // the wedged batch — the fault is visible to routing immediately.
  ASSERT_TRUE(SpinUntil([&] { return !pool.router().is_live(0); }));
  EXPECT_FALSE(pool.shard_stats()[0].live);

  // The pinned frontend fails fast while the slot is down...
  const DiscoveryResponse direct =
      pool.shard_frontend(0)->SubmitAsync(Query(502)).get();
  EXPECT_EQ(direct.status.code(), StatusCode::kFailedPrecondition);
  // ...while a pool submission routes to the survivor (it completes once
  // the gate is released; routing is checked now, the result later).
  auto rerouted = pool.SubmitAsync(Query(503));
  EXPECT_EQ(pool.shard_stats()[1].routed, 1u);
  EXPECT_EQ(pool.shard_stats()[0].routed, 0u);

  fp.Release();
  EXPECT_TRUE(fp.Join().ok());

  // The wedged batch was mid-execution: it completes normally.
  EXPECT_TRUE(executing.get().status.ok());
  // The queued leader and every parked follower fan in with the shutdown
  // rejection — same code for all, nobody hangs.
  const DiscoveryResponse leader_response = leader.get();
  EXPECT_EQ(leader_response.status.code(), StatusCode::kFailedPrecondition);
  for (auto& f : followers) {
    const DiscoveryResponse r = f.get();
    EXPECT_EQ(r.status.code(), StatusCode::kFailedPrecondition)
        << r.status.ToString();
    EXPECT_TRUE(r.deduped);
  }
  const DiscoveryResponse survivor = rerouted.get();
  ASSERT_TRUE(survivor.status.ok()) << survivor.status.ToString();

  // The dead slot reports zeroed engine counters — a killed engine's
  // counters die with it.
  const auto rows = pool.shard_stats();
  EXPECT_FALSE(rows[0].live);
  EXPECT_FALSE(rows[0].draining);
  EXPECT_EQ(rows[0].engine.batcher.requests, 0u);
  EXPECT_TRUE(rows[1].live);
}

// Drain mid-batch: same scene, graceful path. Drain re-homes the ring slice
// first, then quiesces — so the wedged batch, the queued leader and its
// followers all complete through the normal path with ZERO client errors,
// and only then is the engine destroyed.
TEST(ShardFaultTest, DrainMidBatchCompletesEveryCallerWithZeroErrors) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("m", TinyModel()).ok());
  DetectGate gate;
  EnginePoolOptions popts = FaultPoolOptions();
  popts.engine.detect_observer_for_testing = gate.hook();
  EnginePool pool(&registry, popts);

  FailpointShard fp(&pool, 0, &gate);
  auto executing = fp.SubmitStuck(Query(510));
  auto leader = pool.shard_frontend(0)->SubmitAsync(Query(511, 2));
  std::vector<std::future<DiscoveryResponse>> followers;
  for (int i = 0; i < 3; ++i) {
    followers.push_back(pool.shard_frontend(0)->SubmitAsync(Query(511, 2)));
  }

  fp.DrainAsync();
  // Draining is visible (flag + ring off) while the quiesce poll waits on
  // the wedged batch; the engine is still up, finishing its queue.
  ASSERT_TRUE(SpinUntil([&] { return pool.shard_stats()[0].draining; }));
  EXPECT_FALSE(pool.router().is_live(0));
  auto rerouted = pool.SubmitAsync(Query(512));
  EXPECT_EQ(pool.shard_stats()[1].routed, 1u);

  fp.Release();
  EXPECT_TRUE(fp.Join().ok());

  // Zero errors on the graceful path: everything the shard had accepted
  // completes, followers sharing the leader's result object.
  EXPECT_TRUE(executing.get().status.ok());
  const DiscoveryResponse leader_response = leader.get();
  ASSERT_TRUE(leader_response.status.ok()) << leader_response.status.ToString();
  for (auto& f : followers) {
    const DiscoveryResponse r = f.get();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_TRUE(r.deduped);
    EXPECT_EQ(r.result.get(), leader_response.result.get());
  }
  ASSERT_TRUE(rerouted.get().status.ok());

  // Quiesced, detached, destroyed: down and no longer draining.
  const auto rows = pool.shard_stats();
  EXPECT_FALSE(rows[0].live);
  EXPECT_FALSE(rows[0].draining);

  // The drained slot restarts clean.
  ASSERT_TRUE(pool.RestartShard(0).ok());
  EXPECT_TRUE(pool.shard_stats()[0].live);
  EXPECT_EQ(pool.shard_stats()[0].restarts, 1u);
  EXPECT_TRUE(pool.shard_frontend(0)->SubmitAsync(Query(513)).get().status.ok());
}

// The stale-score guard across a kill/restart cycle: a restarted shard gets
// a fresh engine (cold cache — the old engine's cache died with it), the
// recomputed scores are bit-identical for the same model generation, and a
// hot-swap bumps the generation so the old key can never be served again.
TEST(ShardFaultTest, RestartServesColdCacheAndGenerationKeyedScores) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("m", TinyModel()).ok());
  EnginePoolOptions popts;
  popts.num_shards = 2;
  popts.engine.cache_capacity = 16;
  EnginePool pool(&registry, popts);

  DiscoveryRequest query = Query(520, 2);
  const DiscoveryResponse first = pool.shard_frontend(0)->Discover(query);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(pool.shard_frontend(0)->Discover(query).cache_hit);
  EXPECT_EQ(pool.shard_stats()[0].engine.cache.size, 1u);

  ASSERT_TRUE(pool.KillShard(0).ok());
  EXPECT_EQ(pool.shard_frontend(0)->Discover(query).status.code(),
            StatusCode::kFailedPrecondition);
  // Repeated kill of a dead slot and restart of a live one both refuse.
  EXPECT_EQ(pool.KillShard(0).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(pool.RestartShard(1).code(), StatusCode::kFailedPrecondition);

  ASSERT_TRUE(pool.RestartShard(0).ok());
  EXPECT_EQ(pool.shard_stats()[0].restarts, 1u);
  EXPECT_TRUE(pool.shard_stats()[0].live);

  // Cold cache: the same query misses (nothing stale survived the kill),
  // recomputes, and — same weights, same generation — reproduces the
  // pre-kill scores bit for bit.
  const DiscoveryResponse recomputed = pool.shard_frontend(0)->Discover(query);
  ASSERT_TRUE(recomputed.status.ok()) << recomputed.status.ToString();
  EXPECT_FALSE(recomputed.cache_hit);
  ExpectSameDetection(*recomputed.result, *first.result);
  EXPECT_TRUE(pool.shard_frontend(0)->Discover(query).cache_hit);

  // Hot-swap "m": the registry generation bumps, so the cached pre-swap
  // result no longer matches any key — the swap can never serve stale.
  ASSERT_TRUE(pool.UnloadModel("m").ok());
  ASSERT_TRUE(registry.Register("m", TinyModel(/*seed=*/99)).ok());
  const DiscoveryResponse swapped = pool.shard_frontend(0)->Discover(query);
  ASSERT_TRUE(swapped.status.ok()) << swapped.status.ToString();
  EXPECT_FALSE(swapped.cache_hit);
  EXPECT_NE(swapped.result.get(), recomputed.result.get());
}

// The last live shard is load-bearing: kill and drain both refuse it, so an
// operator cannot fault the pool into "no live engine shard" — and after a
// restart elsewhere the refusal lifts.
TEST(ShardFaultTest, LastLiveShardCannotBeKilledOrDrained) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("m", TinyModel()).ok());
  EnginePool pool(&registry, FaultPoolOptions());

  ASSERT_TRUE(pool.KillShard(0).ok());
  EXPECT_EQ(pool.KillShard(1).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(pool.DrainShard(1).code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(pool.SubmitAsync(Query(530)).get().status.ok());

  ASSERT_TRUE(pool.RestartShard(0).ok());
  EXPECT_TRUE(pool.KillShard(1).ok());
  EXPECT_TRUE(pool.SubmitAsync(Query(531)).get().status.ok());
}

// Routing property at the pool level: with a shard down, a burst of distinct
// queries all succeed and none of them is ever routed to the dead slot.
TEST(ShardFaultTest, PoolNeverRoutesToADeadShard) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("m", TinyModel()).ok());
  EnginePool pool(&registry, FaultPoolOptions(/*num_shards=*/4));
  ASSERT_TRUE(pool.KillShard(2).ok());

  constexpr int kQueries = 24;
  std::vector<std::future<DiscoveryResponse>> futures;
  for (int i = 0; i < kQueries; ++i) {
    futures.push_back(pool.SubmitAsync(Query(540 + static_cast<uint64_t>(i))));
  }
  for (auto& f : futures) ASSERT_TRUE(f.get().status.ok());

  const auto rows = pool.shard_stats();
  EXPECT_EQ(rows[2].routed, 0u);
  uint64_t routed = 0;
  for (const auto& row : rows) routed += row.routed;
  EXPECT_EQ(routed, static_cast<uint64_t>(kQueries));
}

}  // namespace
}  // namespace serve
}  // namespace causalformer

#ifndef CAUSALFORMER_SERVE_INFERENCE_ENGINE_H_
#define CAUSALFORMER_SERVE_INFERENCE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/observability.h"
#include "serve/batcher.h"
#include "serve/engine_frontend.h"
#include "serve/inflight.h"
#include "serve/model_registry.h"
#include "serve/score_cache.h"
#include "serve/types.h"

/// \file
/// The batched causal-discovery inference engine: the long-lived service
/// object that turns "construct, train, detect inline" into "load once,
/// answer many queries concurrently".
///
/// Request path:
///   SubmitAsync -> validate against the registry -> ScoreCache probe
///     -> hit: resolved future, no model work at all
///     -> miss, identical query already in flight: park as a dedup follower
///        on the leader's InFlightTable entry — no model work of its own
///     -> miss, novel: lead an in-flight entry -> MicroBatcher shape bucket
///        -> coalesced DetectCausalGraphBatched on an executor thread
///        -> cache fill -> leader + parked followers resolve together.
///
/// Every layer below is immutable or internally synchronised, so any number
/// of client threads may submit concurrently, for any mix of models.

namespace causalformer {
namespace serve {

/// Per-op kernel timers ("kernel.matmul", …) record on 1 of every this-many
/// batches. Sampling keeps the hot tensor kernels' per-op clock reads off
/// most batches; per-op durations still populate the `kernel_seconds`
/// histograms with faithful quantiles, while their count/sum undercount by
/// this factor (docs/observability.md).
inline constexpr uint64_t kKernelSampleStride = 8;

/// InferenceEngine construction knobs.
struct EngineOptions {
  BatcherOptions batcher;  ///< micro-batching limits
  /// LRU entries kept per engine (0 disables caching).
  size_t cache_capacity = 256;
  /// Max age of a cached result in seconds (0 = never expires). Lets the
  /// windows of a dead stream age out even when capacity is never reached.
  double cache_ttl_seconds = 0;
  /// Coalesce identical in-flight queries: a query whose exact cache key
  /// (model generation, window hash, options fingerprint) is already running
  /// parks on the running query's result instead of recomputing. Off, every
  /// cache miss computes — the baseline the dedup bench compares against.
  bool dedup_in_flight = true;
  /// Test seam: seconds-valued monotonic clock driving the cache's TTL
  /// (ScoreCacheOptions::clock_for_testing). Null uses steady_clock.
  std::function<double()> cache_clock_for_testing;
  /// Test seam: invoked once per request the detector actually computes
  /// (inside the batch executor, per batch item, before the batch's detect
  /// runs and inside its log/trace context), with the request's cache key.
  /// The concurrency harness counts these to prove dedup — invocations must
  /// equal unique keys, never submissions — and blocks in it to hold a
  /// batch mid-execution. Null in production.
  std::function<void(const CacheKey&)> detect_observer_for_testing;
  /// Observability bundle (metrics + traces + clock), not owned; must
  /// outlive the engine. Null turns every instrumentation site into a
  /// pointer check — the obs-off baseline of the overhead bench. When set
  /// and `cache_clock_for_testing` is null, the cache TTL also reads the
  /// bundle's clock, so one injected clock drives expiry and spans alike.
  obs::Observability* obs = nullptr;
  /// Shard label spliced into every engine metric series (e.g.
  /// `serve_requests_total{shard="0"}`), so a pool's shards stay separable
  /// in one metrics registry. Empty (the default, and what a 1-shard pool
  /// configures) keeps the unsharded series names — existing dashboards and
  /// the CI scrape greps see no change until a deployment actually shards.
  std::string metrics_shard_label;
};

/// The long-lived service object answering discovery queries.
/// (EngineStats — the counter snapshot this engine reports — lives in
/// serve/engine_frontend.h with the interface that exposes it.)
class InferenceEngine : public EngineFrontend {
 public:
  /// `registry` must outlive the engine.
  explicit InferenceEngine(ModelRegistry* registry,
                           const EngineOptions& options = {});
  /// Drains the batcher (rejecting queued work, fanning followers in on the
  /// rejection) before members go away.
  ~InferenceEngine() override = default;

  InferenceEngine(const InferenceEngine&) = delete;             ///< not copyable
  InferenceEngine& operator=(const InferenceEngine&) = delete;  ///< not copyable

  /// Validates and enqueues one discovery query. Never blocks on model work:
  /// rejections and cache hits resolve immediately, dedup followers resolve
  /// with their leader, misses resolve when the request's micro-batch
  /// completes.
  std::future<DiscoveryResponse> SubmitAsync(DiscoveryRequest request) override;

  /// Unloads `name` from the registry and drops its cached scores.
  Status UnloadModel(const std::string& name) override;

  /// Drops `name`'s cached scores without touching the registry. The lever
  /// an EnginePool uses on an unload: the shared registry entry is dropped
  /// once, then every shard's private cache is purged through here.
  void EraseCachedModel(const std::string& name) { cache_.EraseModel(name); }

  /// Eagerly drops cached results older than the configured TTL, returning
  /// how many were dropped (0 when no TTL is set). TTL expiry is otherwise
  /// lazy — a dead stream's windows are never Get() again, so the streaming
  /// layer calls this when a stream closes.
  size_t PruneExpiredCache() override { return cache_.PruneExpired(); }

  /// The registry this engine validates queries against.
  ModelRegistry& registry() override { return *registry_; }
  /// Snapshot of the score-cache counters.
  ScoreCache::Stats cache_stats() const { return cache_.stats(); }
  /// Snapshot of the micro-batcher counters.
  MicroBatcher::Stats batcher_stats() const { return batcher_.stats(); }
  /// Snapshot of the in-flight dedup counters.
  InFlightTable::Stats dedup_stats() const { return inflight_.stats(); }
  /// One snapshot of every counter family.
  EngineStats stats() const override;

 private:
  /// Metric handles resolved once at construction (stable pointers into the
  /// bundle's registry), so the hot path never touches the registry map.
  /// All null when the engine runs without observability.
  struct ObsHandles {
    obs::Counter* requests = nullptr;         ///< serve_requests_total
    obs::Counter* cache_hits = nullptr;       ///< serve_cache_hits_total
    obs::Counter* dedup_followers = nullptr;  ///< serve_dedup_followers_total
    obs::Counter* batches = nullptr;          ///< serve_batches_total
    obs::Histogram* request_latency = nullptr;  ///< serve_request_latency_seconds
    obs::Histogram* queue_wait = nullptr;       ///< serve_queue_wait_seconds
    obs::Histogram* batch_occupancy = nullptr;  ///< serve_batch_occupancy
    /// Phase/kernel series pre-resolved by collector name
    /// (`detect_phase_seconds{phase="…"}`, `kernel_seconds{kernel="…"}`),
    /// so per-batch attribution skips the label-string build and registry
    /// lock. Unlisted phase names fall back to a registry lookup.
    std::vector<std::pair<std::string, obs::Histogram*>> phase_hists;
  };

  /// Batch executor: runs the coalesced detection and resolves every rider
  /// (and, through each rider's in-flight entry, its parked followers).
  void ExecuteBatch(std::vector<BatchItem> items);

  ModelRegistry* registry_;
  EngineOptions options_;
  ObsHandles obs_;
  /// Batch sequence for kernel-timer sampling: per-op kernel timers fire on
  /// 1 of every kKernelSampleStride batches (per-op durations keep faithful
  /// quantiles; `kernel_seconds` count/sum undercount by the stride). The
  /// always-on detector phase timers stay exact.
  std::atomic<uint64_t> kernel_sample_seq_{0};
  ScoreCache cache_;
  InFlightTable inflight_;
  MicroBatcher batcher_;  // last member: its threads touch the layers above,
                          // and its destructor resolves queued leaders while
                          // inflight_ is still alive to fan followers in
};

}  // namespace serve
}  // namespace causalformer

#endif  // CAUSALFORMER_SERVE_INFERENCE_ENGINE_H_

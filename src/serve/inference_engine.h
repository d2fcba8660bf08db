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
#include "serve/model_registry.h"
#include "serve/score_cache.h"
#include "serve/types.h"

/// \file
/// The batched causal-discovery inference engine: the long-lived service
/// object that turns "construct, train, detect inline" into "load once,
/// answer many queries concurrently".
///
/// Request path:
///   Submit -> validate against the registry -> ScoreCache::Join(key)
///     -> hit: called back inline, no model work at all
///     -> follow (an identical query is running): parked on the leader's
///        entry — no model work of its own
///     -> lead (novel, or the cached result expired): MicroBatcher shape
///        bucket -> coalesced DetectCausalGraphBatched on an executor thread
///        -> ScoreCache::Complete caches the result and calls the parked
///        followers, then the leader is called back.
///
/// Every request is answered through one callback, called exactly once; the
/// promise-returning SubmitAsync/Discover are thin adapters over it for
/// in-process callers. Every layer below is immutable or internally
/// synchronised, so any number of client threads may submit concurrently,
/// for any mix of models.

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
  /// Cached results kept per engine (0 disables caching; identical running
  /// queries still dedup).
  size_t cache_capacity = 256;
  /// Max age of a cached result in seconds (0 = never expires). Lets the
  /// windows of a dead stream age out even when capacity is never reached.
  double cache_ttl_seconds = 0;
  /// Test seam: invoked once per request the detector actually computes
  /// (inside the batch executor, per batch item, before the batch's detect
  /// runs and inside its log/trace context), with the request's cache key.
  /// The concurrency harness counts these to prove dedup — invocations must
  /// equal unique keys, never submissions — and blocks in it to hold a
  /// batch mid-execution. Null in production.
  std::function<void(const CacheKey&)> detect_observer_for_testing;
  /// Observability bundle (metrics + traces + clock), not owned; must
  /// outlive the engine. Null turns every instrumentation site into a
  /// pointer check — the off arm of `bench_obs_overhead`. When set, the
  /// cache TTL reads the bundle's clock, so one injected clock drives expiry
  /// and spans alike.
  obs::Observability* obs = nullptr;
};

/// One point-in-time snapshot of every engine counter family — the score
/// table (cache and in-flight dedup) and the batcher — taken for stats
/// endpoints and tests.
struct EngineStats {
  ScoreCache::Stats cache;      ///< score-table counters, cache and dedup
  MicroBatcher::Stats batcher;  ///< micro-batcher counters
};

/// The long-lived service object answering discovery queries.
class InferenceEngine {
 public:
  /// `registry` must outlive the engine.
  explicit InferenceEngine(ModelRegistry* registry,
                           const EngineOptions& options = {});
  /// Drains the batcher (rejecting queued work, fanning followers in on the
  /// rejection) before members go away.
  ~InferenceEngine() = default;

  InferenceEngine(const InferenceEngine&) = delete;             ///< not copyable
  InferenceEngine& operator=(const InferenceEngine&) = delete;  ///< not copyable

  /// Validates one discovery query and joins its key's entry in the score
  /// table (one ScoreCache::Join), calling `done` exactly once with the
  /// response. Never blocks on model work. `done` runs inline, before Submit
  /// returns, for rejections and cache hits; on the executor for results
  /// this request led; and wherever its leader resolves (ScoreCache::Complete)
  /// for a dedup follower. Callers must not hold a lock `done` takes.
  void Submit(DiscoveryRequest request, DiscoveryCallback done);

  /// Promise adapter over Submit for in-process callers.
  std::future<DiscoveryResponse> SubmitAsync(DiscoveryRequest request);

  /// Convenience synchronous wrapper around SubmitAsync.
  DiscoveryResponse Discover(DiscoveryRequest request) {
    return SubmitAsync(std::move(request)).get();
  }

  /// Unloads `name` from the registry and drops its cached scores.
  Status UnloadModel(const std::string& name);

  /// Eagerly drops cached results older than the configured TTL, returning
  /// how many were dropped (0 when no TTL is set). TTL expiry is otherwise
  /// lazy — a dead stream's windows are never joined again, so the streaming
  /// layer calls this when a stream closes.
  size_t PruneExpiredCache() { return cache_.PruneExpired(); }

  /// The registry this engine validates queries against.
  ModelRegistry& registry() { return *registry_; }
  /// Snapshot of the score-table counters (cache and in-flight dedup).
  ScoreCache::Stats cache_stats() const { return cache_.stats(); }
  /// Snapshot of the micro-batcher counters.
  MicroBatcher::Stats batcher_stats() const { return batcher_.stats(); }
  /// One snapshot of every counter family.
  EngineStats stats() const;

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
  /// (and, through each rider's score-table entry, its parked followers).
  void ExecuteBatch(std::vector<BatchItem>& items);

  ModelRegistry* registry_;
  EngineOptions options_;
  ObsHandles obs_;
  /// Batch sequence for kernel-timer sampling: per-op kernel timers fire on
  /// 1 of every kKernelSampleStride batches (per-op durations keep faithful
  /// quantiles; `kernel_seconds` count/sum undercount by the stride). The
  /// always-on detector phase timers stay exact.
  std::atomic<uint64_t> kernel_sample_seq_{0};
  ScoreCache cache_;
  MicroBatcher batcher_;  // last member: its threads touch the layers above,
                          // and its destructor resolves queued leaders while
                          // cache_ is still alive to fan followers in
};

}  // namespace serve
}  // namespace causalformer

#endif  // CAUSALFORMER_SERVE_INFERENCE_ENGINE_H_

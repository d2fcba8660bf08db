#ifndef CAUSALFORMER_SERVE_BATCHER_H_
#define CAUSALFORMER_SERVE_BATCHER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/causality_transformer.h"
#include "serve/inflight.h"
#include "serve/score_cache.h"
#include "serve/types.h"
#include "util/stopwatch.h"

/// \file
/// Micro-batching request queue: shape-bucketed pending work plus adaptive
/// executor admission.
///
/// Concurrent discovery queries against the same model are coalesced into one
/// batched forward + backward pass (core::DetectCausalGraphBatched), which
/// amortises the per-pass fixed cost (tape construction, n backward walks)
/// across every rider. Pending requests are kept in *shape buckets* — one
/// queue per (model handle, detector options, N×T window geometry) — so a
/// dispatch drains riders straight from the head of one bucket in O(batch)
/// instead of scanning the whole mixed queue for compatible entries, and any
/// compatible request can ride regardless of how much incompatible traffic
/// arrived between it and the batch head. Across buckets, the bucket whose
/// head request has waited longest dispatches first (no bucket starves).
///
/// Batching is adaptive with no timed linger: while every admitted executor
/// is busy, newly arriving requests pile up in their buckets, so batches grow
/// exactly when the service is saturated and a lone request is dispatched
/// immediately when it is not — the standard continuous-batching behaviour of
/// model servers. On top of that, the *admission limit* (how many executors
/// may run batches concurrently) adapts to observed batch occupancy — the
/// fill fraction against whichever cap binds, request count or the summed-
/// window budget: full batches grow the limit toward max_in_flight_batches
/// (demand saturates every pass, parallelism drains the backlog), while
/// sparse batches shrink it toward min_in_flight_batches so concurrent
/// arrivals coalesce into fewer, fuller passes instead of fragmenting
/// across executors. The limit never drops below one executor per pending
/// shape bucket: requests of different shapes can never share a batch, so
/// serializing them would cost latency and buy no coalescing.
///
/// Batches execute on dedicated executor threads (not on the global
/// ThreadPool): a pool worker running a batch would force every nested
/// ParallelFor in the tensor kernels to run inline, serialising the maths.
/// From an executor thread a kernel large enough to split fans out across
/// the whole pool (serving-size kernels run inline on the executor), and
/// the per-call latch in ParallelFor makes concurrent executors safe. Each
/// executor allocates from its own DetectArena().

namespace causalformer {
namespace serve {

/// One queued request plus its completion promise and bookkeeping.
struct BatchItem {
  DiscoveryRequest request;  ///< the query as submitted
  CacheKey key;  ///< precomputed by the engine; reused for the cache fill
  /// The validated model handle, pinned at submit. Executing against this
  /// handle (never re-resolving by name) means a same-name hot-swap or unload
  /// while the request is queued cannot change — or abort — what it runs
  /// against: the registry's "unloaded model stays alive for in-flight
  /// queries" contract extends to queued ones.
  std::shared_ptr<const core::CausalityTransformer> model;
  std::promise<DiscoveryResponse> promise;  ///< fulfilled by the executor
  Stopwatch since_submit;  ///< started at Submit() for end-to-end latency
  uint64_t seq = 0;  ///< admission order, for cross-bucket FIFO fairness
  /// Dedup lease: when this item leads an in-flight entry, resolving it
  /// (success, rejection and shutdown alike) fans the response out to the
  /// entry's parked followers before fulfilling the promise.
  InFlightTable* inflight_table = nullptr;
  std::shared_ptr<InFlightEntry> inflight;  ///< the led entry, if any

  /// The single completion path: fans out to dedup followers (when the item
  /// leads an entry), then fulfils the promise. Every resolver — executor,
  /// submit-time rejection, shutdown drain — must go through here so
  /// followers can never be left parked on a dead leader.
  void Resolve(DiscoveryResponse response);
};

/// MicroBatcher tuning knobs.
struct BatcherOptions {
  /// Most requests coalesced into one batched pass.
  int max_batch_requests = 16;
  /// Cap on the summed interpretation windows of one batch (memory bound:
  /// the combined tape holds activations for every row).
  int64_t max_batch_windows = 256;
  /// Queued (not yet dispatched) request bound; Submit rejects beyond it.
  size_t max_queue = 1024;
  /// Executor threads, i.e. the ceiling on batches executing concurrently.
  /// Safe at any value: batched detection is re-entrant per model.
  int max_in_flight_batches = 2;
  /// Adapt the admission limit between min_in_flight_batches and
  /// max_in_flight_batches from observed batch occupancy. When off, every
  /// executor is always admitted (the pre-adaptive behaviour).
  bool adaptive_in_flight = true;
  /// Floor of the adaptive admission limit (≥ 1 so a lone request always
  /// dispatches immediately).
  int min_in_flight_batches = 1;
  /// Batch fill fraction — against whichever cap binds, max_batch_requests
  /// or max_batch_windows — at or above which a dispatch grows the
  /// admission limit by one.
  double grow_occupancy = 0.75;
  /// Batch fill fraction at or below which a dispatch shrinks it by one
  /// (never below one executor per pending shape bucket).
  double shrink_occupancy = 0.25;
  /// Label spliced into the executor threads' profiling names:
  /// `cf-exec-<label>-<i>` (empty → `cf-exec-<i>`). The engine pool sets
  /// it to the shard index so profiles attribute samples to the right
  /// shard's executor lane (obs/profiler.h).
  std::string thread_label;
};

/// The adaptive micro-batching queue between the engine and the detector.
class MicroBatcher {
 public:
  /// Executes one coalesced batch and fulfils every item's promise. Runs on
  /// a dedicated executor thread.
  using ExecuteFn = std::function<void(std::vector<BatchItem>)>;

  /// Spawns `options.max_in_flight_batches` executor threads running
  /// `execute` on each coalesced batch.
  MicroBatcher(const BatcherOptions& options, ExecuteFn execute);
  /// Rejects queued requests, finishes in-flight batches, joins executors.
  ~MicroBatcher();

  MicroBatcher(const MicroBatcher&) = delete;             ///< not copyable
  MicroBatcher& operator=(const MicroBatcher&) = delete;  ///< not copyable

  /// Enqueues a request; the future resolves when its batch completes. A full
  /// queue or a shutting-down batcher resolves immediately with an error.
  /// `model` is the handle the request was validated against; the executor
  /// runs the batch on it directly. Deliberately no default: an executor that
  /// expects the handle (InferenceEngine) would otherwise abort at runtime on
  /// a call site that forgot it. Executors that resolve models themselves may
  /// pass nullptr explicitly. `inflight_table`/`inflight` (optional) attach
  /// the in-flight dedup entry this request leads; its followers fan in on
  /// whatever outcome the request reaches.
  std::future<DiscoveryResponse> Submit(
      DiscoveryRequest request, CacheKey key,
      std::shared_ptr<const core::CausalityTransformer> model,
      InFlightTable* inflight_table = nullptr,
      std::shared_ptr<InFlightEntry> inflight = nullptr);

  /// Point-in-time batching counters.
  struct Stats {
    uint64_t requests = 0;   ///< requests accepted into the queue
    uint64_t batches = 0;    ///< batches dispatched to executors
    uint64_t coalesced = 0;  ///< requests that rode in a batch of size > 1
    int max_batch = 0;       ///< largest batch dispatched so far
    uint64_t rejected = 0;   ///< requests refused (queue full / shutdown)
    int in_flight_limit = 0;  ///< current adaptive admission limit (gauge)
    int shape_buckets = 0;    ///< buckets holding pending requests (gauge)
    uint64_t limit_grows = 0;    ///< admission-limit increments so far
    uint64_t limit_shrinks = 0;  ///< admission-limit decrements so far
    /// Requests queued but not yet collected into a batch (gauge). With
    /// active_batches, the quiescence signal a graceful shard drain polls:
    /// both zero means nothing is pending inside this batcher.
    size_t queued = 0;
    int active_batches = 0;  ///< batches executing right now (gauge)
  };
  /// Snapshot of the batching counters.
  Stats stats() const;

 private:
  /// Identity of one shape bucket: requests in the same bucket are
  /// batch-compatible by construction (same pinned model handle — pointer
  /// identity, so hot-swapped instances of one name never merge — same
  /// registry name, identical detector options via their exact encoding, and
  /// the same N×T window geometry; batch length B may differ per rider).
  struct ShapeKey {
    const core::CausalityTransformer* model = nullptr;  ///< handle identity
    int64_t n = 0;        ///< window series count
    int64_t t = 0;        ///< window width
    std::string name;     ///< registry name the request addressed
    std::string options;  ///< EncodeDetectorOptions of the request
    /// Field-wise equality.
    bool operator==(const ShapeKey& o) const {
      return model == o.model && n == o.n && t == o.t && name == o.name &&
             options == o.options;
    }
  };
  /// Hash functor over ShapeKey.
  struct ShapeKeyHash {
    size_t operator()(const ShapeKey& key) const;
  };

  /// Executor loop: await admission + work, pop a coalesced batch, run
  /// execute_, repeat.
  void ExecutorLoop();
  /// Pops the head of the longest-waiting bucket plus every rider within the
  /// batch caps, and adapts the admission limit from the observed occupancy.
  /// Holds mu_.
  std::vector<BatchItem> CollectBatchLocked();

  BatcherOptions options_;
  ExecuteFn execute_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  /// Pending requests, one FIFO per compatibility shape.
  std::unordered_map<ShapeKey, std::deque<BatchItem>, ShapeKeyHash> buckets_;
  size_t queued_ = 0;      ///< total pending across buckets
  uint64_t next_seq_ = 0;  ///< admission counter feeding BatchItem::seq
  int admitted_ = 0;       ///< current adaptive admission limit
  int active_ = 0;         ///< batches executing right now
  bool shutdown_ = false;
  Stats stats_;

  std::vector<std::thread> executors_;
};

}  // namespace serve
}  // namespace causalformer

#endif  // CAUSALFORMER_SERVE_BATCHER_H_

#ifndef CAUSALFORMER_SERVE_BATCHER_H_
#define CAUSALFORMER_SERVE_BATCHER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/causality_transformer.h"
#include "serve/score_cache.h"
#include "serve/types.h"
#include "util/stopwatch.h"

/// \file
/// Micro-batching request queue: shape-bucketed pending work drained by a
/// fixed set of executor threads.
///
/// Concurrent discovery queries against the same model are coalesced into one
/// batched forward + backward pass (core::DetectCausalGraphBatched), which
/// amortises the per-pass fixed cost (tape construction, the gradient and
/// relevance walks) across every rider. Pending requests are kept in *shape
/// buckets* — one queue per (model handle, detector options, N×T window
/// geometry) — so a dispatch drains riders straight from the head of one
/// bucket in O(batch) instead of scanning the whole mixed queue for
/// compatible entries, and any compatible request can ride regardless of how
/// much incompatible traffic arrived between it and the batch head. Across
/// buckets, the bucket whose head request has waited longest dispatches
/// first (no bucket starves).
///
/// There is no timed linger and no admission limit: an idle executor takes
/// the longest-waiting bucket's head plus its riders whenever work is queued.
/// While every executor is busy, newly arriving requests pile up in their
/// buckets, so batches grow exactly when the service is saturated and a lone
/// request is dispatched immediately when it is not — the standard
/// continuous-batching behaviour of model servers.
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

/// One queued request plus its completion callback and bookkeeping.
struct BatchItem {
  DiscoveryRequest request;  ///< the query as submitted
  CacheKey key;  ///< the engine's score-table key (options feed the bucket)
  /// The validated model handle, pinned at submit. Executing against this
  /// handle (never re-resolving by name) means a same-name hot-swap or unload
  /// while the request is queued cannot change — or abort — what it runs
  /// against: the registry's "unloaded model stays alive for in-flight
  /// queries" contract extends to queued ones.
  std::shared_ptr<const core::CausalityTransformer> model;
  /// Called exactly once with the outcome: by the executor, a submit-time
  /// rejection or the shutdown drain.
  DiscoveryCallback done;
  Stopwatch since_submit;  ///< started at Submit() for end-to-end latency
  uint64_t seq = 0;  ///< submission order, for cross-bucket FIFO fairness
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
  /// Executor threads, i.e. the most batches executing concurrently. Every
  /// idle executor takes queued work. Safe at any value: batched detection is
  /// re-entrant per model.
  int max_in_flight_batches = 2;
};

/// The micro-batching queue between the engine and the detector.
class MicroBatcher {
 public:
  /// Executes one coalesced batch and resolves every item. Runs on a
  /// dedicated executor thread; the vector is that executor's own, reused
  /// for every batch it runs, and cleared (freeing the items) on return.
  using ExecuteFn = std::function<void(std::vector<BatchItem>&)>;

  /// Spawns `options.max_in_flight_batches` executor threads running
  /// `execute` on each coalesced batch.
  MicroBatcher(const BatcherOptions& options, ExecuteFn execute);
  /// Rejects queued requests, finishes in-flight batches, joins executors.
  ~MicroBatcher();

  MicroBatcher(const MicroBatcher&) = delete;             ///< not copyable
  MicroBatcher& operator=(const MicroBatcher&) = delete;  ///< not copyable

  /// Enqueues a request; `done` is called when its batch completes, on the
  /// executor. A full queue or a shutting-down batcher calls it immediately,
  /// on the calling thread, with an error. `model` is the handle the request
  /// was validated against; the executor runs the batch on it directly.
  /// Deliberately no default: an executor that expects the handle
  /// (InferenceEngine) would otherwise abort at runtime on a call site that
  /// forgot it. Executors that resolve models themselves may pass nullptr
  /// explicitly.
  void Submit(DiscoveryRequest request, CacheKey key,
              std::shared_ptr<const core::CausalityTransformer> model,
              DiscoveryCallback done);

  /// Point-in-time batching counters.
  struct Stats {
    uint64_t requests = 0;   ///< requests accepted into the queue
    uint64_t batches = 0;    ///< batches dispatched to executors
    uint64_t coalesced = 0;  ///< requests that rode in a batch of size > 1
    int max_batch = 0;       ///< largest batch dispatched so far
    uint64_t rejected = 0;   ///< requests refused (queue full / shutdown)
    int in_flight_limit = 0;  ///< executor count, max_in_flight_batches
    int shape_buckets = 0;    ///< buckets holding pending requests (gauge)
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
    OptionsKey options;   ///< EncodeDetectorOptions of the request
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

  /// Executor loop: await work, pop a coalesced batch, run execute_, repeat.
  void ExecutorLoop();
  /// Moves the head of the longest-waiting bucket plus every rider within
  /// the batch caps into the empty `batch`. Holds mu_.
  void CollectBatchLocked(std::vector<BatchItem>* batch);

  BatcherOptions options_;
  ExecuteFn execute_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  /// Pending requests, one FIFO per compatibility shape.
  std::unordered_map<ShapeKey, std::deque<BatchItem>, ShapeKeyHash> buckets_;
  size_t queued_ = 0;      ///< total pending across buckets
  uint64_t next_seq_ = 0;  ///< submission counter feeding BatchItem::seq
  bool shutdown_ = false;
  Stats stats_;

  std::vector<std::thread> executors_;
};

}  // namespace serve
}  // namespace causalformer

#endif  // CAUSALFORMER_SERVE_BATCHER_H_

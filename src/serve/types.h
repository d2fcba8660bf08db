#ifndef CAUSALFORMER_SERVE_TYPES_H_
#define CAUSALFORMER_SERVE_TYPES_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/detector.h"
#include "obs/trace.h"
#include "tensor/tensor.h"
#include "util/status.h"

/// \file
/// Request/response types of the causal-discovery inference service.
///
/// The serving access pattern is "one trained model, many windows/queries":
/// a checkpoint is loaded once into the ModelRegistry, and every
/// DiscoveryRequest names that model, carries a window batch, and gets back
/// the Section-4.2 decomposition result (score matrix, delays, graph edges).

/// The CausalFormer reproduction: tensors, autograd, the causality-aware
/// transformer, the decomposition-based detector, and the serving stack.
namespace causalformer {
/// The batched causal-discovery serving stack: model registry, inference
/// engine, micro-batcher, score cache, and the TCP wire protocol
/// (docs/architecture.md, docs/wire-protocol.md).
namespace serve {

/// 128-bit content hash of a window tensor (dims + raw float bit patterns),
/// the window component of a CacheKey (serve/score_cache.h computes it).
struct WindowHash {
  uint64_t lo = 0;  ///< the first lane's window hash
  uint64_t hi = 0;  ///< the second lane's (own seed and multiplier)
  /// Exact 128-bit equality.
  bool operator==(const WindowHash& o) const {
    return lo == o.lo && hi == o.hi;
  }
};

/// One causal-discovery query against a registered model.
struct DiscoveryRequest {
  std::string model;             ///< registry name of the loaded checkpoint
  Tensor windows;                ///< [B, N, T] window batch to interpret
  core::DetectorOptions options; ///< detector knobs (clusters, ablations, ...)
  /// Optional precomputed content hash of `windows`. When set, the engine
  /// uses it for the cache key instead of rehashing the tensor — the lever
  /// that lets the streaming layer's incremental (per-column-digest) hasher
  /// make an overlapping-window submission cost O(stride·N) instead of
  /// O(window·N). The caller vouches that the hash equals
  /// HashWindows(windows); trusted in-process callers only (the wire decoder
  /// never sets it).
  bool has_window_hash = false;  ///< window_hash is populated
  WindowHash window_hash;        ///< precomputed HashWindows(windows)
  /// Optional per-request trace, allocated at wire decode (or by any caller
  /// that wants span attribution) and carried through the whole pipeline:
  /// the engine marks enqueue/execute stage boundaries and the executor
  /// attaches per-phase detector timings. Null when tracing is off — every
  /// touch point is a pointer check.
  std::shared_ptr<obs::Trace> trace;
};

/// The answer to one DiscoveryRequest.
struct DiscoveryResponse {
  Status status;  ///< non-ok: rejected (unknown model, full queue, shutdown)

  /// The detection result (scores, delays, graph); shared because cached
  /// entries are handed to many callers. Null when !status.ok().
  std::shared_ptr<const core::DetectionResult> result;

  bool cache_hit = false;      ///< answered from the ScoreCache
  /// Answered by fanning in on an identical in-flight query: this caller was
  /// a dedup *follower* and shares the leader's result object (bit-identical
  /// scores) without a detection pass of its own. Mutually exclusive with
  /// cache_hit; batch_size/latency_seconds describe the leader's run.
  bool deduped = false;
  int batch_size = 0;          ///< requests coalesced into the executing batch
  double latency_seconds = 0;  ///< submit-to-completion wall time
};

/// Receives the outcome of one discovery query. The engine calls it exactly
/// once (InferenceEngine::Submit says on which thread), so it must not block
/// on further engine work of its own and must not throw.
using DiscoveryCallback = std::function<void(DiscoveryResponse)>;

}  // namespace serve
}  // namespace causalformer

#endif  // CAUSALFORMER_SERVE_TYPES_H_

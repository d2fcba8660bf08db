#ifndef CAUSALFORMER_CORE_DETECTOR_H_
#define CAUSALFORMER_CORE_DETECTOR_H_

#include <vector>

#include "core/causality_transformer.h"
#include "graph/causal_graph.h"
#include "graph/score_matrix.h"

/// \file
/// The decomposition-based causality detector (Section 4.2, Fig. 6).
///
/// The paper interprets each target series i on its own: it seeds the
/// trained model's output with the one-hot relevance
/// R^(L) = [0, ..., 1_i, ..., 0] ⊗ 1_T over a batch of windows. The detector
/// seeds all ones instead, which is every target's one-hot seed side by side:
/// no op between the output and A or K mixes target series, so row i of A
/// and target column i of K receive exactly what the target-i seed alone
/// would give them, bit for bit. It then
///   1. backward-propagates gradients (for Eq. 19) and relevance (RRP,
///      Eq. 15-18) from that seed down to the attention matrices A and the
///      causal convolution kernels K, one walk each for all targets,
///   2. forms causal scores S = E_{batch,heads}[ (|∇f| ⊙ R)_+ ],
///   3. clusters each target i's incoming scores S(A)_{i,:} with k-means and
///      keeps the top-m of n classes as causal edges (Section 4.2.3),
///   4. reads each edge's delay from the kernel scores (Eq. 20):
///      d(e_{j,i}) = T - argmax_t S(K)_{j,i,t} (plus one slot for
///      self-loops, whose convolution output is right-shifted).

namespace causalformer {
namespace core {

struct DetectorOptions {
  /// k-means classes n and selected top classes m (density m/n, Sec. 4.2.3).
  int num_clusters = 2;
  int top_clusters = 1;
  /// Number of windows used for interpretation (memory/time bound).
  int64_t max_windows = 32;
  /// Ablation switches (Table 3):
  bool use_interpretation = true;  ///< false: raw attention/kernel weights
  bool use_relevance = true;       ///< false: |gradient| only
  bool use_gradient = true;        ///< false: rectified relevance only
  bool bias_absorption = true;     ///< false: "w/o bias" RRP variant
  float epsilon = 1e-6f;           ///< RRP denominator stabiliser
};

struct DetectionResult {
  ScoreMatrix scores;                    ///< (from, to) causal scores
  std::vector<std::vector<int>> delays;  ///< [from][to] delay estimates
  CausalGraph graph;                     ///< the constructed causal graph

  DetectionResult(int n)
      : scores(n), delays(n, std::vector<int>(n, 0)), graph(n) {}
};

/// Runs detection on `windows` ([B, N, T]) with the trained model. A thin
/// wrapper over the single-request case of DetectCausalGraphBatched, sharing
/// its implementation and re-entrancy guarantees.
DetectionResult DetectCausalGraph(const CausalityTransformer& model,
                                  const Tensor& windows,
                                  const DetectorOptions& options = {});

/// Detection for several independent window batches (each [B_i, N, T])
/// against one trained model, coalesced into a single shared forward pass and
/// one backward + relevance walk for all targets. Used by the serving layer's
/// micro-batcher.
///
/// Guarantees:
///  * Exactness — element i of the result equals DetectCausalGraphBatched
///    (model, {window_batches[i]}, options) bit for bit, regardless of what
///    else rides in the batch: no model op mixes batch rows, and the grouped
///    kernel path (ForwardGrouped) keeps per-request parameter gradients and
///    relevance separate.
///  * Re-entrancy — gradients go to per-call walk values (ComputeGradients),
///    never into shared .grad buffers, and no model state is written, so any
///    number of threads may detect on the same model concurrently.
std::vector<DetectionResult> DetectCausalGraphBatched(
    const CausalityTransformer& model,
    const std::vector<Tensor>& window_batches,
    const DetectorOptions& options = {});

}  // namespace core
}  // namespace causalformer

#endif  // CAUSALFORMER_CORE_DETECTOR_H_

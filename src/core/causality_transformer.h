#ifndef CAUSALFORMER_CORE_CAUSALITY_TRANSFORMER_H_
#define CAUSALFORMER_CORE_CAUSALITY_TRANSFORMER_H_

#include <vector>

#include "nn/linear.h"
#include "nn/module.h"
#include "tensor/ops.h"
#include "util/rng.h"

/// \file
/// The causality-aware transformer (Section 4.1, Fig. 3a): time-series
/// embedding, multi-kernel causal convolution, multi-variate causal attention
/// with a learnable mask M and temperature τ, multi-head aggregation by W_O,
/// feed-forward layer and output layer.
///
/// Architectural notes matching the paper:
///  * The embedding feeds only Q and K; the value V is the causal convolution
///    output so the per-(source,target) temporal structure survives into the
///    attention combination (Eq. 5).
///  * The feed-forward and output layers act on the T axis — the paper's
///    Section 5.4 confirms the model "fairly employs the observations of the
///    whole time window", which is why its PoD trails cMLP/TCDF.
///  * The loss (Eq. 9) is the MSE over every slot except the first plus L1
///    penalties on the convolution kernels and the attention mask.

namespace causalformer {
namespace core {

struct ModelOptions {
  int64_t num_series = 0;   ///< N
  int64_t window = 16;      ///< T
  int64_t d_model = 32;     ///< embedding dim d (paper: 256-512)
  int64_t d_qk = 32;        ///< query/key dim
  int64_t heads = 2;        ///< h
  int64_t d_ffn = 64;       ///< feed-forward hidden dim
  float tau = 1.0f;         ///< softmax temperature
  float leaky_slope = 0.1f;
  /// Per-(source,target) kernels; false = the "w/o multi conv kernel"
  /// ablation (one kernel per source shared across targets).
  bool multi_kernel = true;
  /// Optional lag-weighted L1 on the kernels (the paper's future-work
  /// suggestion to improve delay precision); 0 disables.
  float lag_penalty = 0.0f;
};

/// Intermediates of one forward pass that the causality detector reads.
struct ForwardResult {
  Tensor prediction;              ///< [B, N, T]
  std::vector<Tensor> attention;  ///< per head: [B, N, N] (softmax output)
  Tensor conv;                    ///< [B, N, N, T] after diagonal shift
  /// Grouped forward only: the per-group tiled convolution kernel
  /// [G, N, N, T] (a shared kernel broadcast across targets). Gradients and
  /// relevance at [g, :, j, :] come exclusively from batch rows assigned to
  /// g and from target j, which is what lets the batched detector read
  /// per-request, per-target kernel scores out of one shared backward pass.
  Tensor kernel_groups;
};

class CausalityTransformer : public nn::Module {
 public:
  CausalityTransformer(const ModelOptions& options, Rng* rng);

  /// x: [B, N, T] -> prediction and interpretable intermediates.
  ForwardResult Forward(const Tensor& x) const;

  /// Forward for the serving detector: batch rows are partitioned into
  /// `num_groups` request groups (`row_groups[b]` = group of row b) and the
  /// convolution kernel is tiled per group (see ForwardResult::kernel_groups).
  /// Per-row predictions are identical to Forward(); only the tape differs.
  /// Const-correct and re-entrant: no member tensor is written, so any number
  /// of threads may run (grouped) forwards on one model concurrently.
  ForwardResult ForwardGrouped(const Tensor& x,
                               const std::vector<int>& row_groups,
                               int num_groups) const;

  /// Eq. (9): MSE over slots 1..T-1 plus L1 penalties.
  Tensor Loss(const ForwardResult& result, const Tensor& x, float lambda_k,
              float lambda_m) const;

  const ModelOptions& options() const { return options_; }
  const Tensor& kernel() const { return kernel_; }
  const Tensor& mask() const { return mask_; }

 private:
  /// Embedding + attention + FFN on top of an already-built convolution.
  ForwardResult ForwardFromConv(const Tensor& x, Tensor conv) const;

  ModelOptions options_;
  Tensor w_emb_, b_emb_;            // [T, d], [d]
  std::vector<Tensor> w_q_, b_q_;   // per head: [d, d_qk], [d_qk]
  std::vector<Tensor> w_k_, b_k_;
  Tensor mask_;                     // [N, N] learnable attention mask M
  Tensor kernel_;                   // [N, N, T] (or [N, 1, T] if shared)
  Tensor w_o_;                      // [h]
  nn::Linear ffn1_, ffn2_, output_;
};

}  // namespace core
}  // namespace causalformer

#endif  // CAUSALFORMER_CORE_CAUSALITY_TRANSFORMER_H_

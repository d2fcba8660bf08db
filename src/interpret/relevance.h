#ifndef CAUSALFORMER_INTERPRET_RELEVANCE_H_
#define CAUSALFORMER_INTERPRET_RELEVANCE_H_

#include <vector>

#include "tensor/autograd.h"
#include "tensor/tensor.h"

/// \file
/// Regression Relevance Propagation (RRP) — the decomposition-based
/// interpretation method of the paper (Section 4.2.1).
///
/// The paper derives, for any parametric layer f (Eq. 17):
///
///     R_i = Σ_j  x_i · ∂f_j/∂x_i · R_j / f_j
///
/// and the matmul variant (Eq. 18). Both are exactly
///
///     R_in = x ⊙ (∂f/∂x)ᵀ s,   with  s = R_out / f_out,
///
/// i.e. an input-weighted vector-Jacobian product. Every op on the autograd
/// tape already carries its VJP, so a single generic walker implements RRP
/// for the *whole* model — fully connected layers, activations, softmax,
/// matrix products, the causal convolution and attention combination — which
/// is the paper's "interpret the whole structure" claim made literal.
///
/// Bias handling (Eq. 15/16): a linear layer is recorded as Add(xW, b); the
/// denominator is the layer *output* (including bias), so the bias absorbs
///     R_[b] = b · R / (xW + b)
/// automatically. The "w/o bias" ablation disables this by routing all
/// relevance of a bias-add to the data operand.
///
/// Routing ops (reshape/slice/concat/transpose) are exact under the generic
/// rule because their outputs equal their inputs elementwise (x/f = 1).

namespace causalformer {
namespace interpret {

struct RelevanceOptions {
  /// Denominator stabiliser: f is replaced by f + eps·sign(f).
  float epsilon = 1e-6f;
  /// Eq. (16) bias absorption. When false ("w/o bias" ablation), a bias-add
  /// node passes all relevance to its data operand.
  bool bias_absorption = true;
};

/// Relevance per tape tensor (what the walk kept; see TapeValues).
using RelevanceMap = TapeValues;

/// Runs RRP from `output` seeded with `seed` (same shape; the one-hot row
/// selection of Fig. 6a, or all ones, which the detector uses to walk every
/// target's rows at once). Returns the relevance of every tensor the full
/// walk reaches (see PlanWalk): intermediates and every leaf that requires
/// grad, such as the causal convolution kernels. An input window receives
/// relevance only when marked requires_grad.
RelevanceMap PropagateRelevance(const Tensor& output, const Tensor& seed,
                                const RelevanceOptions& options = {});

/// As above, over a plan from PlanWalk(output, ...) — for callers (the
/// detector, whose plan is shared with its gradient walk) that reuse one
/// plan across walks and read only the plan's wanted tensors.
RelevanceMap PropagateRelevance(const WalkPlan& plan, const Tensor& seed,
                                const RelevanceOptions& options = {});

/// Looks up the relevance of `t`, or an undefined Tensor when none reached it.
Tensor RelevanceOf(const RelevanceMap& map, const Tensor& t);

}  // namespace interpret
}  // namespace causalformer

#endif  // CAUSALFORMER_INTERPRET_RELEVANCE_H_

#ifndef CAUSALFORMER_TENSOR_AUTOGRAD_H_
#define CAUSALFORMER_TENSOR_AUTOGRAD_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "tensor/tensor.h"

/// \file
/// Define-by-run reverse-mode automatic differentiation.
///
/// Each differentiable op calls MakeOp() with a vector-Jacobian-product (VJP)
/// closure: given the op's output value, an output cotangent and which inputs
/// need one, the closure returns one cotangent per input (an undefined Tensor
/// marks an input that gets none). A WalkPlan lists the part of the tape a
/// reverse walk must visit; RunBackward() walks the full plan and accumulates
/// gradients into every tensor that requires them — including intermediates.
///
/// The same tape and plans drive regression relevance propagation: Eq. (17)
/// of the paper, R_in = x ⊙ (∂f/∂x)ᵀ s with s = R_out / f_out, reuses exactly
/// these VJP closures (see interpret/relevance.h).

namespace causalformer {

/// VJP: (output value, output cotangent, needs) -> cotangent per input.
/// `needs` holds one flag per input (PyTorch's needs_input_grad); a VJP may
/// skip the work for an input whose flag is false and return an undefined
/// Tensor in its place.
using VjpFn = std::function<std::vector<Tensor>(
    const Tensor& out, const Tensor& cot, const std::vector<bool>& needs)>;

/// A recorded op on the tape, owned by its output tensor.
struct Node {
  std::string op;              ///< op name, for debugging and relevance hooks
  std::vector<Tensor> inputs;  ///< inputs in call order
  VjpFn vjp;                   ///< reverse rule
};

/// Wires `out` as the result of op `name` over `inputs`: if any input requires
/// grad, marks `out` as requiring grad and attaches a Node with the given VJP.
/// Returns `out` for chaining.
Tensor MakeOp(const std::string& name, std::vector<Tensor> inputs, Tensor out,
              VjpFn vjp);

/// Tensors reachable from `root` through grad_fn edges, in an order where
/// every tensor appears before any of its inputs (reverse topological order
/// of the data-flow DAG). `root` is first.
std::vector<Tensor> ReverseTopoOrder(const Tensor& root);

/// One tensor a reverse walk delivers a cotangent to.
struct WalkStep {
  Tensor tensor;
  /// One flag per input of tensor.grad_fn(): whether the walk needs that
  /// input's cotangent. Empty when the walk does not run this tensor's VJP:
  /// a leaf, or a wanted tensor with nothing wanted below it.
  std::vector<bool> needs;
  /// Whether the walk's result keeps this tensor's cotangent. A pruned walk
  /// drops an intermediate's cotangent as soon as its VJP has consumed it.
  bool keep = true;
};

/// The live part of the tape under `root`, root first: each step precedes
/// the steps of its inputs, in ReverseTopoOrder(root) order.
struct WalkPlan {
  Tensor root;
  std::vector<WalkStep> steps;
};

/// Plans a reverse walk from `root` for a caller that reads the cotangents of
/// `wanted` only.
///
/// With `wanted` empty this is the full walk: an input is needed when it
/// requires grad or has a grad_fn, and the result keeps every cotangent.
/// Otherwise the plan keeps only the nodes whose VJP feeds a path to a wanted
/// tensor, flags only the inputs on such a path, and the result holds the
/// wanted tensors alone. Every consumer of a kept node is itself kept, in
/// the same relative order, so each wanted cotangent sums the same terms in
/// the same order as under the full walk: the two agree bit for bit.
WalkPlan PlanWalk(const Tensor& root, const std::vector<Tensor>& wanted = {});

/// Gradient per tape tensor, keyed by tensor identity (same convention as
/// interpret::RelevanceMap).
using GradientMap = std::unordered_map<internal::TensorImpl*, Tensor>;

/// A walk's per-node rule: given a step whose tensor has a grad_fn and that
/// tensor's complete cotangent, returns one contribution per grad_fn input
/// (undefined for none; flags false in step.needs are ignored).
using WalkRule =
    std::function<std::vector<Tensor>(const WalkStep& step, const Tensor& cot)>;

/// The one reverse walk: seeds plan.root with a copy of `seed`, then visits
/// the plan's steps in order, summing each rule contribution into its input's
/// entry. Returns the entries of the steps marked keep.
GradientMap WalkTape(const WalkPlan& plan, const Tensor& seed,
                     const WalkRule& rule);

/// Pure variant of RunBackward: returns the cotangent of every tensor reached
/// on the tape instead of accumulating into shared impl->grad buffers. Because
/// nothing on the tape (or in the model that built it) is written, any number
/// of threads may differentiate forward passes of the *same* model
/// concurrently — the property the serving layer's detector relies on.
GradientMap ComputeGradients(const Tensor& root, const Tensor& seed);

/// As above, over a plan from PlanWalk — for callers that walk one tape more
/// than once (the detector shares its plan with the relevance walk) or read
/// only a few tensors.
GradientMap ComputeGradients(const WalkPlan& plan, const Tensor& seed);

/// Looks up the gradient of `t`, or an undefined Tensor when none reached it.
Tensor GradientOf(const GradientMap& map, const Tensor& t);

/// Runs reverse-mode accumulation from `root` seeded with `seed` (same shape
/// as `root`). Gradients are accumulated into impl->grad of every tensor with
/// requires_grad — leaves and intermediates alike.
void RunBackward(const Tensor& root, const Tensor& seed);

}  // namespace causalformer

#endif  // CAUSALFORMER_TENSOR_AUTOGRAD_H_

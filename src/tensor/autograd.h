#ifndef CAUSALFORMER_TENSOR_AUTOGRAD_H_
#define CAUSALFORMER_TENSOR_AUTOGRAD_H_

#include <initializer_list>
#include <type_traits>
#include <utility>
#include <vector>

#include "tensor/tensor.h"
#include "util/function_ref.h"

/// \file
/// Define-by-run reverse-mode automatic differentiation.
///
/// Each differentiable op calls MakeOp() with a vector-Jacobian-product (VJP)
/// function (see VjpFn in tensor/tensor.h): given the op's node, output value,
/// an output cotangent and which inputs need one, it writes one cotangent per
/// needed input. The node lives inline in the output tensor and holds the
/// inputs, the op's constants and any side data, so recording an op takes
/// nothing from the heap. A WalkPlan lists the part of the tape a reverse
/// walk must visit, numbered by plan step; RunBackward() walks the full plan
/// and accumulates gradients into every tensor that requires them —
/// including intermediates.
///
/// The same tape and plans drive regression relevance propagation: Eq. (17)
/// of the paper, R_in = x ⊙ (∂f/∂x)ᵀ s with s = R_out / f_out, reuses exactly
/// these VJP functions (see interpret/relevance.h).

namespace causalformer {

/// Wires `out` as the result of op `name` (a static string) over the
/// `num_inputs` (<= kMaxNodeInputs) tensors at `inputs`: if any input
/// requires grad, marks `out` as requiring grad and fills its node with the
/// inputs, the VJP, `attr_bytes` bytes of constants from `attrs` and the side
/// tensor `aux`. Returns `out` for chaining.
Tensor MakeOp(const char* name, const Tensor* inputs, int num_inputs,
              Tensor out, VjpFn vjp, const void* attrs, size_t attr_bytes,
              Tensor aux);

/// An op without constants.
inline Tensor MakeOp(const char* name, std::initializer_list<Tensor> inputs,
                     Tensor out, VjpFn vjp) {
  return MakeOp(name, inputs.begin(), static_cast<int>(inputs.size()),
                std::move(out), vjp, nullptr, 0, Tensor());
}

/// An op whose VJP reads `attrs` back through Node::attr<Attrs>().
template <typename Attrs>
Tensor MakeOp(const char* name, std::initializer_list<Tensor> inputs,
              Tensor out, VjpFn vjp, const Attrs& attrs,
              Tensor aux = Tensor()) {
  static_assert(std::is_trivially_copyable<Attrs>::value &&
                    sizeof(Attrs) <= kNodeAttrBytes && alignof(Attrs) <= 8,
                "node attributes must be small trivially copyable values");
  return MakeOp(name, inputs.begin(), static_cast<int>(inputs.size()),
                std::move(out), vjp, &attrs, sizeof(Attrs), std::move(aux));
}

/// Tensors reachable from `root` through grad_fn edges, in an order where
/// every tensor appears before any of its inputs (reverse topological order
/// of the data-flow DAG). `root` is first.
std::vector<Tensor> ReverseTopoOrder(const Tensor& root);

/// One tensor a reverse walk delivers a cotangent to.
struct WalkStep {
  Tensor tensor;
  /// The inputs of tensor.grad_fn() whose cotangent the walk needs. Zero
  /// when the walk does not run this tensor's VJP: a leaf, or a wanted
  /// tensor with nothing wanted below it.
  InputMask needs = 0;
  /// Whether the walk's result keeps this tensor's cotangent. A pruned walk
  /// drops an intermediate's cotangent as soon as its VJP has consumed it.
  bool keep = true;
  /// The plan step of each input in `needs`; -1 for the others.
  int input_steps[kMaxNodeInputs] = {-1, -1, -1, -1};
};

/// The live part of the tape under `root`, root first: each step precedes
/// the steps of its inputs, in ReverseTopoOrder(root) order. A walk keeps
/// its values in a vector indexed by step.
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

/// What a walk hands back: the cotangent (or relevance) of each tensor its
/// plan keeps and the walk reached, in plan-step order.
class TapeValues {
 public:
  /// The value of `t`, or an undefined Tensor when the walk kept none.
  Tensor Of(const Tensor& t) const;
  /// Number of tensors holding a value.
  size_t size() const { return entries_.size(); }

  /// (tensor identity, value) pairs in plan-step order.
  auto begin() const { return entries_.begin(); }
  auto end() const { return entries_.end(); }

 private:
  friend TapeValues CollectKept(const WalkPlan& plan,
                                std::vector<Tensor> values);
  std::vector<std::pair<const internal::TensorImpl*, Tensor>> entries_;
};

/// Gradient per tape tensor (same convention as interpret::RelevanceMap).
using GradientMap = TapeValues;

/// A walk's per-node rule: given a step whose tensor has a grad_fn and that
/// tensor's complete cotangent, writes the contribution of each input in
/// step.needs into contributions[i] (kMaxNodeInputs undefined tensors on
/// entry; one left undefined contributes nothing).
using WalkRule = FunctionRef<void(const WalkStep& step, const Tensor& cot,
                                  Tensor* contributions)>;

/// The one reverse walk: seeds plan.root with a copy of `seed`, then visits
/// the plan's steps in order, summing each rule contribution into its input's
/// step. Returns the values of the steps marked keep.
TapeValues WalkTape(const WalkPlan& plan, const Tensor& seed, WalkRule rule);

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

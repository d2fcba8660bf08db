#include "interpret/relevance.h"

#include <cmath>
#include <cstring>

#include "tensor/ops.h"
#include "tensor/simd.h"
#include "util/logging.h"

namespace causalformer {
namespace interpret {

namespace {

// cot = R / (f + eps * sign(f)), with sign(0) := +1, so the ratio never
// divides by zero. Fused into one vectorized pass, off-tape.
Tensor SafeRatio(const Tensor& relevance, const Tensor& f, float eps) {
  Tensor out = Tensor::Empty(f.shape());
  simd::Active().stab_ratio(relevance.data(), f.data(), eps, out.data(),
                            f.numel());
  return out;
}

// a ⊙ b elementwise on raw buffers (same shape), off-tape.
Tensor HadamardRaw(const Tensor& a, const Tensor& b) {
  CF_CHECK(a.shape() == b.shape());
  Tensor out = Tensor::Empty(a.shape());
  simd::Active().binary_tiled(simd::ArithOp::kMul, a.data(), b.data(),
                              a.numel(), out.data(), a.numel());
  return out;
}

// A "bias add": Add(h, b) where b is a leaf parameter broadcast against h.
// Used by the w/o-bias ablation to route relevance past biases.
bool IsBiasAdd(const Node& node) {
  if (std::strcmp(node.op, "add") != 0 || node.num_inputs != 2) return false;
  const Tensor& data = node.inputs[0];
  const Tensor& bias = node.inputs[1];
  if (!bias.defined() || !data.defined()) return false;
  // A computed activation plus a leaf parameter — the Linear layout.
  return data.grad_fn() != nullptr && bias.grad_fn() == nullptr &&
         bias.requires_grad() && bias.numel() <= data.numel();
}

}  // namespace

RelevanceMap PropagateRelevance(const Tensor& output, const Tensor& seed,
                                const RelevanceOptions& options) {
  return PropagateRelevance(PlanWalk(output), seed, options);
}

RelevanceMap PropagateRelevance(const WalkPlan& plan, const Tensor& seed,
                                const RelevanceOptions& options) {
  return WalkTape(plan, seed, [&options](const WalkStep& step,
                                         const Tensor& r_out,
                                         Tensor* contributions) {
    const Node& fn = *step.tensor.grad_fn();
    if (!options.bias_absorption && IsBiasAdd(fn)) {
      // Route everything through the data operand; the bias gets nothing.
      if (HasInput(step.needs, 0)) {
        contributions[0] = ReduceToShape(r_out, fn.inputs[0].shape());
      }
      return;
    }
    // Generic Eq. (17)/(18): R_in = x ⊙ vjp(R_out / f_out).
    const Tensor s = SafeRatio(r_out, step.tensor, options.epsilon);
    fn.vjp(fn, step.tensor, s, step.needs, contributions);
    for (int i = 0; i < fn.num_inputs; ++i) {
      if (!HasInput(step.needs, i) || !contributions[i].defined()) continue;
      contributions[i] = HadamardRaw(fn.inputs[i], contributions[i]);
    }
  });
}

Tensor RelevanceOf(const RelevanceMap& map, const Tensor& t) {
  return map.Of(t);
}

}  // namespace interpret
}  // namespace causalformer

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/causal_conv.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace causalformer {
namespace {

TEST(AutogradTest, NoGradWithoutRequiresGrad) {
  Tensor a = Tensor::Ones(Shape{2});
  Tensor b = Tensor::Ones(Shape{2});
  Tensor c = Add(a, b);
  EXPECT_FALSE(c.requires_grad());
  EXPECT_EQ(c.grad_fn(), nullptr);
}

TEST(AutogradTest, GradPropagatesThroughAdd) {
  Tensor a = Tensor::Ones(Shape{2}).set_requires_grad(true);
  Tensor b = Tensor::Ones(Shape{2}).set_requires_grad(true);
  Tensor c = Sum(Add(a, b));
  c.Backward();
  ASSERT_TRUE(a.grad().defined());
  EXPECT_FLOAT_EQ(a.grad().at({0}), 1.0f);
  EXPECT_FLOAT_EQ(b.grad().at({1}), 1.0f);
}

TEST(AutogradTest, MulProductRule) {
  Tensor a = Tensor::FromVector(Shape{2}, {2, 3}).set_requires_grad(true);
  Tensor b = Tensor::FromVector(Shape{2}, {5, 7}).set_requires_grad(true);
  Sum(Mul(a, b)).Backward();
  EXPECT_FLOAT_EQ(a.grad().at({0}), 5.0f);
  EXPECT_FLOAT_EQ(a.grad().at({1}), 7.0f);
  EXPECT_FLOAT_EQ(b.grad().at({0}), 2.0f);
}

TEST(AutogradTest, DiamondGraphAccumulates) {
  // y = x*x + x  => dy/dx = 2x + 1.
  Tensor x = Tensor::FromVector(Shape{1}, {3}).set_requires_grad(true);
  Tensor y = Sum(Add(Mul(x, x), x));
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad().at({0}), 7.0f);
}

TEST(AutogradTest, GradAccumulatesAcrossBackwardCalls) {
  Tensor x = Tensor::Ones(Shape{1}).set_requires_grad(true);
  Tensor y1 = Sum(Scale(x, 2.0f));
  y1.Backward();
  Tensor y2 = Sum(Scale(x, 3.0f));
  y2.Backward();
  EXPECT_FLOAT_EQ(x.grad().at({0}), 5.0f);
  x.ZeroGrad();
  EXPECT_FLOAT_EQ(x.grad().at({0}), 0.0f);
}

TEST(AutogradTest, BroadcastAddReducesGrad) {
  Tensor a = Tensor::Ones(Shape{2, 3}).set_requires_grad(true);
  Tensor b = Tensor::Ones(Shape{3}).set_requires_grad(true);
  Sum(Add(a, b)).Backward();
  EXPECT_EQ(b.grad().shape(), (Shape{3}));
  EXPECT_FLOAT_EQ(b.grad().at({0}), 2.0f);  // summed over the broadcast rows
}

TEST(AutogradTest, MatMulGradShapes) {
  Rng rng(3);
  Tensor a = Tensor::Randn(Shape{3, 4}, &rng, true);
  Tensor b = Tensor::Randn(Shape{4, 5}, &rng, true);
  Sum(MatMul(a, b)).Backward();
  EXPECT_EQ(a.grad().shape(), (Shape{3, 4}));
  EXPECT_EQ(b.grad().shape(), (Shape{4, 5}));
}

TEST(AutogradTest, BatchedMatMulWithSharedRhsReducesGrad) {
  Rng rng(4);
  Tensor a = Tensor::Randn(Shape{6, 3, 4}, &rng, true);
  Tensor b = Tensor::Randn(Shape{4, 5}, &rng, true);
  Sum(MatMul(a, b)).Backward();
  EXPECT_EQ(a.grad().shape(), (Shape{6, 3, 4}));
  EXPECT_EQ(b.grad().shape(), (Shape{4, 5}));
}

TEST(AutogradTest, IntermediateTensorsRetainGrad) {
  // The causality detector reads gradients of intermediates (attention).
  Tensor x = Tensor::FromVector(Shape{2}, {1, 2}).set_requires_grad(true);
  Tensor mid = Mul(x, x);
  Tensor y = Sum(mid);
  y.Backward();
  ASSERT_TRUE(mid.grad().defined());
  EXPECT_FLOAT_EQ(mid.grad().at({0}), 1.0f);
}

TEST(AutogradTest, ReverseTopoOrderStartsAtRoot) {
  Tensor x = Tensor::Ones(Shape{1}).set_requires_grad(true);
  Tensor y = Mul(Add(x, x), x);
  const auto order = ReverseTopoOrder(y);
  ASSERT_FALSE(order.empty());
  EXPECT_EQ(order.front().impl(), y.impl());
  // Leaf appears after everything that consumes it.
  EXPECT_EQ(order.back().impl(), x.impl());
}

TEST(AutogradTest, BackwardWithExplicitSeed) {
  Tensor x = Tensor::Ones(Shape{2, 2}).set_requires_grad(true);
  Tensor y = Scale(x, 3.0f);
  Tensor seed = Tensor::FromVector(Shape{2, 2}, {1, 0, 0, 2});
  y.Backward(seed);
  EXPECT_FLOAT_EQ(x.grad().at({0, 0}), 3.0f);
  EXPECT_FLOAT_EQ(x.grad().at({0, 1}), 0.0f);
  EXPECT_FLOAT_EQ(x.grad().at({1, 1}), 6.0f);
}

TEST(AutogradTest, DetachStopsGradient) {
  Tensor x = Tensor::FromVector(Shape{1}, {2}).set_requires_grad(true);
  Tensor y = Mul(x, x).Detach();
  EXPECT_FALSE(y.requires_grad());
  Tensor z = Sum(Mul(y, x));
  z.Backward();
  // Only the direct x factor contributes: dz/dx = y = 4.
  EXPECT_FLOAT_EQ(x.grad().at({0}), 4.0f);
}

TEST(AutogradTest, SliceConcatRoundTripGradient) {
  Tensor x = Tensor::FromVector(Shape{4}, {1, 2, 3, 4}).set_requires_grad(true);
  Tensor a = Slice(x, 0, 0, 2);
  Tensor b = Slice(x, 0, 2, 4);
  Tensor y = Sum(Concat({Scale(a, 2.0f), Scale(b, 3.0f)}, 0));
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad().at({0}), 2.0f);
  EXPECT_FLOAT_EQ(x.grad().at({3}), 3.0f);
}

TEST(AutogradTest, LongChainDeepGraph) {
  // Deep graphs must not overflow the stack (iterative DFS).
  Tensor x = Tensor::Ones(Shape{1}).set_requires_grad(true);
  Tensor y = x;
  for (int i = 0; i < 2000; ++i) y = AddScalar(y, 0.001f);
  Sum(y).Backward();
  EXPECT_FLOAT_EQ(x.grad().at({0}), 1.0f);
}

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.defined() && b.defined() && a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

TEST(WalkPlanTest, PrunedPlanStopsAtWantedTensor) {
  Rng rng(5);
  Tensor x = Tensor::Randn(Shape{2, 3}, &rng, true);
  Tensor w = Tensor::Randn(Shape{3, 4}, &rng, true);
  Tensor mid = MatMul(x, w);
  Tensor y = Scale(Tanh(mid), 2.0f);
  const Tensor seed = Tensor::Randn(y.shape(), &rng);

  const WalkPlan plan = PlanWalk(y, {mid});
  // Root first; mid is the last step and its matmul never runs, so neither
  // x nor w appears in the plan.
  ASSERT_EQ(plan.steps.size(), 3u);
  EXPECT_EQ(plan.steps.front().tensor.impl(), y.impl());
  EXPECT_EQ(plan.steps.back().tensor.impl(), mid.impl());
  EXPECT_EQ(plan.steps.back().needs, 0u);
  EXPECT_TRUE(plan.steps.back().keep);
  for (const WalkStep& step : plan.steps) {
    EXPECT_NE(step.tensor.impl(), x.impl());
    EXPECT_NE(step.tensor.impl(), w.impl());
  }

  const GradientMap pruned = ComputeGradients(plan, seed);
  const GradientMap full = ComputeGradients(y, seed);
  EXPECT_EQ(pruned.size(), 1u);  // intermediates are dropped once consumed
  EXPECT_TRUE(SameBits(GradientOf(pruned, mid), GradientOf(full, mid)));
  EXPECT_FALSE(GradientOf(pruned, x).defined());
  EXPECT_TRUE(GradientOf(full, x).defined());
}

TEST(WalkPlanTest, FullPlanFlagsOnlyInputsThatCarryGradients) {
  Tensor a = Tensor::Ones(Shape{2, 2}).set_requires_grad(true);
  Tensor data = Tensor::Ones(Shape{2, 2});  // plain input, no gradient
  Tensor y = Mul(a, data);
  const WalkPlan plan = PlanWalk(y);
  ASSERT_EQ(plan.steps.size(), 2u);  // y and a; never the plain input
  EXPECT_EQ(plan.steps[0].needs, 0b01u);  // input 0 only
  EXPECT_EQ(plan.steps[1].tensor.impl(), a.impl());
}

// Runs out's vjp once with every input flagged and once with input `skip`
// unflagged: the skipped cotangent must be undefined and the others
// unchanged bit for bit.
void ExpectVjpSkipsInput(const Tensor& out, int skip) {
  SCOPED_TRACE(std::string(out.grad_fn()->op) + " skip=" +
               std::to_string(skip));
  Rng rng(9);
  const Tensor cot = Tensor::Randn(out.shape(), &rng);
  const Node& fn = *out.grad_fn();
  const InputMask all = (InputMask{1} << fn.num_inputs) - 1;
  const InputMask some = all & ~(InputMask{1} << skip);
  Tensor full[kMaxNodeInputs];
  Tensor part[kMaxNodeInputs];
  fn.vjp(fn, out, cot, all, full);
  fn.vjp(fn, out, cot, some, part);
  for (int i = 0; i < fn.num_inputs; ++i) {
    if (i == skip) {
      EXPECT_FALSE(part[i].defined());
    } else {
      EXPECT_TRUE(SameBits(part[i], full[i]));
    }
  }
}

TEST(WalkPlanTest, VjpsSkipUnneededInputs) {
  Rng rng(7);
  // Batched lhs against a shared rhs, and broadcast right operands, so the
  // skipped halves include batch and broadcast reductions.
  Tensor a = Tensor::Randn(Shape{3, 2, 4}, &rng, true);
  Tensor b = Tensor::Randn(Shape{4, 5}, &rng, true);
  Tensor row = Tensor::Randn(Shape{4}, &rng, true);
  for (int skip : {0, 1}) {
    ExpectVjpSkipsInput(MatMul(a, b), skip);
    ExpectVjpSkipsInput(Add(a, row), skip);
    ExpectVjpSkipsInput(Mul(a, row), skip);
  }

  Tensor x = Tensor::Randn(Shape{3, 2, 5}, &rng, true);
  Tensor kernel = Tensor::Randn(Shape{2, 2, 2, 5}, &rng, true);
  const Tensor conv = core::GroupedMultiKernelCausalConv(x, kernel, {0, 1, 1});
  for (int skip : {0, 1}) ExpectVjpSkipsInput(conv, skip);
}

}  // namespace
}  // namespace causalformer

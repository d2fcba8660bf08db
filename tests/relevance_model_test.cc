#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/causality_transformer.h"
#include "interpret/relevance.h"
#include "tensor/ops.h"
#include "tensor/simd.h"

/// Integration coverage for the paper's central mechanism: regression
/// relevance propagation through the *entire* causality-aware transformer —
/// output layer, feed-forward, multi-head aggregation, attention softmax,
/// attention combination, causal convolution — down to the attention
/// matrices, the convolution kernels, and the input window.

namespace causalformer {
namespace {

using core::CausalityTransformer;
using core::ForwardResult;
using core::ModelOptions;
using interpret::PropagateRelevance;
using interpret::RelevanceMap;
using interpret::RelevanceOf;

ModelOptions TinyOptions() {
  ModelOptions opt;
  opt.num_series = 3;
  opt.window = 6;
  opt.d_model = 8;
  opt.d_qk = 8;
  opt.heads = 2;
  opt.d_ffn = 8;
  return opt;
}

Tensor OneHotSeed(const Shape& shape, int64_t target) {
  Tensor seed = Tensor::Zeros(shape);
  const int64_t batch = shape[0];
  const int64_t t = shape[2];
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t k = 0; k < t; ++k) seed.at({b, target, k}) = 1.0f;
  }
  return seed;
}

double AbsSum(const Tensor& t) {
  double s = 0.0;
  for (int64_t i = 0; i < t.numel(); ++i) s += std::fabs(t.data()[i]);
  return s;
}

class FullModelRelevanceTest : public testing::TestWithParam<int> {};

TEST_P(FullModelRelevanceTest, RelevanceReachesEveryInterpretedTensor) {
  Rng rng(GetParam());
  CausalityTransformer model(TinyOptions(), &rng);
  Tensor x = Tensor::Randn(Shape{4, 3, 6}, &rng).set_requires_grad(true);
  const ForwardResult fwd = model.Forward(x);
  const Tensor seed = OneHotSeed(fwd.prediction.shape(), /*target=*/1);
  const RelevanceMap map = PropagateRelevance(fwd.prediction, seed);

  // The detector reads the attention matrices and the kernel parameter;
  // relevance must reach all of them with nonzero mass.
  for (const Tensor& a : fwd.attention) {
    const Tensor r = RelevanceOf(map, a);
    ASSERT_TRUE(r.defined());
    EXPECT_EQ(r.shape(), a.shape());
    EXPECT_GT(AbsSum(r), 0.0);
  }
  const Tensor rk = RelevanceOf(map, model.kernel());
  ASSERT_TRUE(rk.defined());
  EXPECT_EQ(rk.shape(), model.kernel().shape());
  EXPECT_GT(AbsSum(rk), 0.0);

  // The input window itself also receives relevance (complete decomposition).
  const Tensor rx = RelevanceOf(map, x);
  ASSERT_TRUE(rx.defined());
  EXPECT_GT(AbsSum(rx), 0.0);

  // Every propagated value is finite.
  for (const auto& [impl, r] : map) {
    (void)impl;
    for (int64_t i = 0; i < r.numel(); ++i) {
      ASSERT_TRUE(std::isfinite(r.data()[i]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FullModelRelevanceTest,
                         testing::Values(1, 2, 3, 4));

TEST(FullModelRelevanceTest, DifferentTargetsGiveDifferentDecompositions) {
  Rng rng(9);
  CausalityTransformer model(TinyOptions(), &rng);
  Tensor x = Tensor::Randn(Shape{2, 3, 6}, &rng);
  const ForwardResult fwd = model.Forward(x);
  const RelevanceMap m0 = PropagateRelevance(
      fwd.prediction, OneHotSeed(fwd.prediction.shape(), 0));
  const RelevanceMap m2 = PropagateRelevance(
      fwd.prediction, OneHotSeed(fwd.prediction.shape(), 2));
  const Tensor r0 = RelevanceOf(m0, model.kernel());
  const Tensor r2 = RelevanceOf(m2, model.kernel());
  ASSERT_TRUE(r0.defined());
  ASSERT_TRUE(r2.defined());
  double diff = 0.0;
  for (int64_t i = 0; i < r0.numel(); ++i) {
    diff += std::fabs(r0.data()[i] - r2.data()[i]);
  }
  EXPECT_GT(diff, 1e-6);
}

TEST(FullModelRelevanceTest, ZeroSeedGivesZeroRelevance) {
  Rng rng(10);
  CausalityTransformer model(TinyOptions(), &rng);
  Tensor x = Tensor::Randn(Shape{2, 3, 6}, &rng);
  const ForwardResult fwd = model.Forward(x);
  const RelevanceMap map = PropagateRelevance(
      fwd.prediction, Tensor::Zeros(fwd.prediction.shape()));
  const Tensor rk = RelevanceOf(map, model.kernel());
  ASSERT_TRUE(rk.defined());
  EXPECT_NEAR(AbsSum(rk), 0.0, 1e-9);
}

TEST(FullModelRelevanceTest, SeedScalesRelevanceLinearly) {
  // RRP is linear in the seed: doubling R^(L) doubles every decomposition.
  Rng rng(11);
  CausalityTransformer model(TinyOptions(), &rng);
  Tensor x = Tensor::Randn(Shape{2, 3, 6}, &rng);
  const ForwardResult fwd = model.Forward(x);
  const Tensor seed = OneHotSeed(fwd.prediction.shape(), 1);
  Tensor seed2 = seed.Clone();
  for (int64_t i = 0; i < seed2.numel(); ++i) seed2.data()[i] *= 2.0f;

  const Tensor r1 = RelevanceOf(PropagateRelevance(fwd.prediction, seed),
                                model.kernel());
  const Tensor r2 = RelevanceOf(PropagateRelevance(fwd.prediction, seed2),
                                model.kernel());
  for (int64_t i = 0; i < r1.numel(); ++i) {
    EXPECT_NEAR(r2.data()[i], 2.0f * r1.data()[i],
                1e-4f + 1e-3f * std::fabs(r1.data()[i]));
  }
}

TEST(FullModelRelevanceTest, RepeatedPropagationIsDeterministic) {
  Rng rng(12);
  CausalityTransformer model(TinyOptions(), &rng);
  Tensor x = Tensor::Randn(Shape{2, 3, 6}, &rng);
  const ForwardResult fwd = model.Forward(x);
  const Tensor seed = OneHotSeed(fwd.prediction.shape(), 0);
  const Tensor a = RelevanceOf(PropagateRelevance(fwd.prediction, seed),
                               model.kernel());
  const Tensor b = RelevanceOf(PropagateRelevance(fwd.prediction, seed),
                               model.kernel());
  for (int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_EQ(a.data()[i], b.data()[i]);
  }
}

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.defined() && b.defined() && a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// The detector walks a plan pruned to the attention matrices and the grouped
// kernels. On a grouped forward of two requests with different window
// counts, every gradient and relevance it reads must equal the full walk's
// bit for bit, at every kernel table and in both bias-absorption modes.
TEST(WalkPlanTest, PrunedPlanMatchesFullWalkBitForBit) {
  std::vector<simd::IsaLevel> levels;
  for (const simd::IsaLevel level :
       {simd::IsaLevel::kScalar, simd::IsaLevel::kAvx2}) {
    if (simd::TableForLevel(level) != nullptr) levels.push_back(level);
  }
  const simd::IsaLevel saved = simd::ActiveLevel();
  Rng rng(13);
  CausalityTransformer model(TinyOptions(), &rng);
  const Tensor x = Tensor::Randn(Shape{8, 3, 6}, &rng);
  const std::vector<int> row_groups = {0, 0, 0, 1, 1, 1, 1, 1};

  for (const simd::IsaLevel level : levels) {
    simd::SetLevelForTesting(level);
    const ForwardResult fwd = model.ForwardGrouped(x, row_groups, 2);
    std::vector<Tensor> wanted = fwd.attention;
    wanted.push_back(fwd.kernel_groups);
    const WalkPlan full = PlanWalk(fwd.prediction);
    const WalkPlan pruned = PlanWalk(fwd.prediction, wanted);

    // Only the nodes on a path to A or K run their vjp. Per head: the
    // attention combination, its W_O weighting and (past the first head) the
    // head sum; then the shift and the grouped convolution; plus the seven
    // nodes of the output, FFN and LeakyReLU layers.
    int live = 0;
    for (const WalkStep& step : pruned.steps) live += step.needs != 0;
    EXPECT_EQ(live, 14);

    for (const bool absorb : {true, false}) {
      interpret::RelevanceOptions ropts;
      ropts.bias_absorption = absorb;
      for (int64_t target = 0; target < 3; ++target) {
        SCOPED_TRACE(std::string(simd::LevelName(level)) + " absorb=" +
                     std::to_string(absorb) + " target=" +
                     std::to_string(target));
        const Tensor seed = OneHotSeed(fwd.prediction.shape(), target);
        const GradientMap g_full = ComputeGradients(full, seed);
        const GradientMap g_pruned = ComputeGradients(pruned, seed);
        const RelevanceMap r_full = PropagateRelevance(full, seed, ropts);
        const RelevanceMap r_pruned = PropagateRelevance(pruned, seed, ropts);
        // A pruned walk hands back the wanted tensors and nothing else.
        EXPECT_EQ(g_pruned.size(), wanted.size());
        EXPECT_EQ(r_pruned.size(), wanted.size());
        for (const Tensor& w : wanted) {
          EXPECT_TRUE(SameBits(GradientOf(g_pruned, w), GradientOf(g_full, w)));
          EXPECT_TRUE(
              SameBits(RelevanceOf(r_pruned, w), RelevanceOf(r_full, w)));
        }
      }
    }
  }
  simd::SetLevelForTesting(saved);
}

// Bitwise equality of a and b over the elements whose index along `axis` is
// `index`.
bool SameBitsAt(const Tensor& a, const Tensor& b, int axis, int64_t index) {
  if (!a.defined() || !b.defined() || a.shape() != b.shape()) return false;
  int64_t inner = 1;
  for (int d = axis + 1; d < a.ndim(); ++d) inner *= a.dim(d);
  const int64_t extent = a.dim(axis);
  const int64_t outer = a.numel() / (extent * inner);
  for (int64_t o = 0; o < outer; ++o) {
    const int64_t off = (o * extent + index) * inner;
    if (std::memcmp(a.data() + off, b.data() + off,
                    static_cast<size_t>(inner) * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

// The detector seeds its walks with all ones instead of one one-hot seed per
// target. That is exact because no live node mixes target series: the output
// and FFN Linears and the LeakyReLU act within one series' T-row, the head
// weighting and head sum are elementwise, AttentionCombine sends output row i
// only to row i of A and to target column i of the convolution, the diagonal
// shift stays within one (source, target) row, and the grouped convolution
// sends target column i only to kernel column i. So for every target i the
// all-ones walk must equal the target-i one-hot walk bit for bit at row i of
// each attention matrix and at target column i of the grouped kernels, in
// both walks. A live-path op that mixes series (a norm across N, say) fails
// here.
TEST(WalkPlanTest, OnesSeedEqualsEveryOneHotSeedBitForBit) {
  std::vector<simd::IsaLevel> levels;
  for (const simd::IsaLevel level :
       {simd::IsaLevel::kScalar, simd::IsaLevel::kAvx2}) {
    if (simd::TableForLevel(level) != nullptr) levels.push_back(level);
  }
  const simd::IsaLevel saved = simd::ActiveLevel();
  const std::vector<int> row_groups = {0, 0, 0, 1, 1, 1, 1, 1};

  for (const bool multi_kernel : {true, false}) {
    ModelOptions opt = TinyOptions();
    opt.multi_kernel = multi_kernel;
    Rng rng(14);
    CausalityTransformer model(opt, &rng);
    // Nonzero biases, so the two bias-absorption modes route differently.
    for (auto& [name, p] : model.NamedParameters()) {
      if (name.find("bias") == std::string::npos) continue;
      for (int64_t i = 0; i < p.numel(); ++i) {
        p.data()[i] = 0.1f * static_cast<float>(rng.Normal());
      }
    }
    const Tensor x = Tensor::Randn(Shape{8, 3, 6}, &rng);

    for (const simd::IsaLevel level : levels) {
      simd::SetLevelForTesting(level);
      const ForwardResult fwd = model.ForwardGrouped(x, row_groups, 2);
      EXPECT_EQ(fwd.kernel_groups.shape(), (Shape{2, 3, 3, 6}));
      std::vector<Tensor> wanted = fwd.attention;
      wanted.push_back(fwd.kernel_groups);
      const WalkPlan plan = PlanWalk(fwd.prediction, wanted);
      const Tensor ones = Tensor::Ones(fwd.prediction.shape());
      const GradientMap g_ones = ComputeGradients(plan, ones);

      for (const bool absorb : {true, false}) {
        interpret::RelevanceOptions ropts;
        ropts.bias_absorption = absorb;
        const RelevanceMap r_ones = PropagateRelevance(plan, ones, ropts);
        for (int64_t target = 0; target < 3; ++target) {
          SCOPED_TRACE(std::string(simd::LevelName(level)) +
                       " multi_kernel=" + std::to_string(multi_kernel) +
                       " absorb=" + std::to_string(absorb) +
                       " target=" + std::to_string(target));
          const Tensor seed = OneHotSeed(fwd.prediction.shape(), target);
          const GradientMap g_one = ComputeGradients(plan, seed);
          const RelevanceMap r_one = PropagateRelevance(plan, seed, ropts);
          for (const Tensor& a : fwd.attention) {
            EXPECT_TRUE(SameBitsAt(GradientOf(g_ones, a), GradientOf(g_one, a),
                                   /*axis=*/1, target));
            EXPECT_TRUE(SameBitsAt(RelevanceOf(r_ones, a), RelevanceOf(r_one, a),
                                   /*axis=*/1, target));
          }
          const Tensor& k = fwd.kernel_groups;
          EXPECT_TRUE(SameBitsAt(GradientOf(g_ones, k), GradientOf(g_one, k),
                                 /*axis=*/2, target));
          EXPECT_TRUE(SameBitsAt(RelevanceOf(r_ones, k), RelevanceOf(r_one, k),
                                 /*axis=*/2, target));
        }
      }
    }
  }
  simd::SetLevelForTesting(saved);
}

}  // namespace
}  // namespace causalformer

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace causalformer {
namespace {

TEST(ShapeTest, NumelAndDims) {
  Shape s{2, 3, 4};
  EXPECT_EQ(s.ndim(), 3);
  EXPECT_EQ(s.numel(), 24);
  EXPECT_EQ(s[1], 3);
  EXPECT_EQ(s.dim(-1), 4);
}

TEST(ShapeTest, ScalarShape) {
  Shape s{};
  EXPECT_EQ(s.ndim(), 0);
  EXPECT_EQ(s.numel(), 1);
}

TEST(ShapeTest, BroadcastRules) {
  EXPECT_EQ(BroadcastShapes(Shape{3, 1}, Shape{1, 4}), (Shape{3, 4}));
  EXPECT_EQ(BroadcastShapes(Shape{5}, Shape{2, 5}), (Shape{2, 5}));
  EXPECT_EQ(BroadcastShapes(Shape{}, Shape{2, 3}), (Shape{2, 3}));
  EXPECT_TRUE(BroadcastableTo(Shape{1, 4}, Shape{3, 4}));
  EXPECT_FALSE(BroadcastableTo(Shape{2, 4}, Shape{3, 4}));
}

TEST(TensorTest, FactoriesFillValues) {
  Tensor z = Tensor::Zeros(Shape{2, 2});
  Tensor o = Tensor::Ones(Shape{2, 2});
  Tensor f = Tensor::Full(Shape{2, 2}, 3.5f);
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(z.data()[i], 0.0f);
    EXPECT_EQ(o.data()[i], 1.0f);
    EXPECT_EQ(f.data()[i], 3.5f);
  }
}

TEST(TensorTest, FromVectorAndAt) {
  Tensor t = Tensor::FromVector(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(t.at({0, 0}), 1.0f);
  EXPECT_EQ(t.at({1, 2}), 6.0f);
  t.at({1, 0}) = 9.0f;
  EXPECT_EQ(t.at({1, 0}), 9.0f);
}

TEST(TensorTest, EyeIsIdentity) {
  Tensor e = Tensor::Eye(3);
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      EXPECT_EQ(e.at({i, j}), i == j ? 1.0f : 0.0f);
    }
  }
}

TEST(TensorTest, HandleSharesStorageCloneDoesNot) {
  Tensor a = Tensor::Zeros(Shape{2});
  Tensor b = a;           // shares
  Tensor c = a.Clone();   // deep copy
  a.data()[0] = 5.0f;
  EXPECT_EQ(b.data()[0], 5.0f);
  EXPECT_EQ(c.data()[0], 0.0f);
}

TEST(TensorTest, ScalarItem) {
  EXPECT_FLOAT_EQ(Tensor::Scalar(2.5f).item(), 2.5f);
}

TEST(TensorTest, RandnIsSeeded) {
  Rng r1(5), r2(5);
  Tensor a = Tensor::Randn(Shape{10}, &r1);
  Tensor b = Tensor::Randn(Shape{10}, &r2);
  for (int64_t i = 0; i < 10; ++i) EXPECT_EQ(a.data()[i], b.data()[i]);
}

TEST(OpsTest, AddSubMulDivElementwise) {
  Tensor a = Tensor::FromVector(Shape{2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector(Shape{2, 2}, {4, 3, 2, 1});
  EXPECT_EQ(Add(a, b).at({0, 0}), 5.0f);
  EXPECT_EQ(Sub(a, b).at({0, 1}), -1.0f);
  EXPECT_EQ(Mul(a, b).at({1, 0}), 6.0f);
  EXPECT_EQ(Div(a, b).at({1, 1}), 4.0f);
}

TEST(OpsTest, BroadcastRowVector) {
  Tensor a = Tensor::FromVector(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector(Shape{3}, {10, 20, 30});
  Tensor c = Add(a, b);
  EXPECT_EQ(c.at({0, 0}), 11.0f);
  EXPECT_EQ(c.at({1, 2}), 36.0f);
}

TEST(OpsTest, BroadcastColumnVector) {
  Tensor a = Tensor::FromVector(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector(Shape{2, 1}, {10, 100});
  Tensor c = Mul(a, b);
  EXPECT_EQ(c.at({0, 2}), 30.0f);
  EXPECT_EQ(c.at({1, 0}), 400.0f);
}

TEST(OpsTest, BroadcastScalarOperand) {
  Tensor a = Tensor::FromVector(Shape{3}, {1, 2, 3});
  Tensor s = Tensor::Scalar(2.0f);
  Tensor c = Mul(a, s);
  EXPECT_EQ(c.at({2}), 6.0f);
}

// Elementwise reference for a op b under NumPy broadcasting: maps each output
// element to its a and b elements through right-aligned indices.
Tensor BroadcastReference(const Tensor& a, const Tensor& b,
                          const std::function<float(float, float)>& op) {
  const Shape out_shape = BroadcastShapes(a.shape(), b.shape());
  Tensor out = Tensor::Zeros(out_shape);
  const int nd = out_shape.ndim();
  const auto offset = [nd](const Shape& s, const std::vector<int64_t>& idx) {
    int64_t off = 0;
    for (int d = 0; d < s.ndim(); ++d) {
      const size_t out_d = static_cast<size_t>(nd - s.ndim() + d);
      off = off * s[d] + (s[d] == 1 ? 0 : idx[out_d]);
    }
    return off;
  };
  std::vector<int64_t> idx(static_cast<size_t>(nd), 0);
  for (int64_t i = 0; i < out_shape.numel(); ++i) {
    int64_t rest = i;
    for (int d = nd - 1; d >= 0; --d) {
      idx[static_cast<size_t>(d)] = rest % out_shape[d];
      rest /= out_shape[d];
    }
    out.data()[i] = op(a.data()[offset(a.shape(), idx)],
                       b.data()[offset(b.shape(), idx)]);
  }
  return out;
}

TEST(OpsTest, BroadcastMatchesElementwiseReferenceBitForBit) {
  // b broadcast along a's leading dims (the bias and mask shapes), with and
  // without leading 1s, plus a middle-axis broadcast that takes the general
  // path: every arithmetic op must equal the scalar reference exactly.
  Rng rng(5);
  const Tensor a = Tensor::Randn(Shape{3, 4, 5}, &rng);
  for (const Shape& b_shape : {Shape{5}, Shape{1, 5}, Shape{4, 5},
                               Shape{1, 4, 5}, Shape{1, 1, 4, 5},
                               Shape{4, 1}}) {
    Tensor b = Tensor::Randn(b_shape, &rng);
    for (int64_t i = 0; i < b.numel(); ++i) {
      b.data()[i] += b.data()[i] < 0 ? -0.5f : 0.5f;  // keep Div finite
    }
    const std::vector<std::pair<Tensor, Tensor>> cases = {
        {Add(a, b), BroadcastReference(a, b, std::plus<float>())},
        {Sub(a, b), BroadcastReference(a, b, std::minus<float>())},
        {Mul(a, b), BroadcastReference(a, b, std::multiplies<float>())},
        {Div(a, b), BroadcastReference(a, b, std::divides<float>())}};
    for (size_t op = 0; op < cases.size(); ++op) {
      const Tensor& got = cases[op].first;
      const Tensor& want = cases[op].second;
      ASSERT_EQ(got.shape(), want.shape()) << b_shape.ToString();
      for (int64_t i = 0; i < got.numel(); ++i) {
        ASSERT_EQ(got.data()[i], want.data()[i])
            << "op " << op << " b " << b_shape.ToString() << " at " << i;
      }
    }
  }
}

TEST(OpsTest, UnaryFunctions) {
  Tensor x = Tensor::FromVector(Shape{4}, {-2, -0.5, 0.5, 2});
  EXPECT_FLOAT_EQ(Relu(x).at({0}), 0.0f);
  EXPECT_FLOAT_EQ(Relu(x).at({3}), 2.0f);
  EXPECT_FLOAT_EQ(LeakyRelu(x, 0.1f).at({0}), -0.2f);
  EXPECT_FLOAT_EQ(Abs(x).at({1}), 0.5f);
  EXPECT_NEAR(Sigmoid(x).at({3}), 1.0f / (1.0f + std::exp(-2.0f)), 1e-6);
  EXPECT_NEAR(Tanh(x).at({2}), std::tanh(0.5f), 1e-6);
  EXPECT_NEAR(Exp(x).at({0}), std::exp(-2.0f), 1e-6);
  EXPECT_FLOAT_EQ(Square(x).at({3}), 4.0f);
  EXPECT_FLOAT_EQ(Neg(x).at({0}), 2.0f);
  EXPECT_FLOAT_EQ(Scale(x, 3.0f).at({2}), 1.5f);
  EXPECT_FLOAT_EQ(AddScalar(x, 1.0f).at({0}), -1.0f);
}

TEST(OpsTest, MatMul2d) {
  Tensor a = Tensor::FromVector(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector(Shape{3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  // [[58, 64], [139, 154]]
  EXPECT_FLOAT_EQ(c.at({0, 0}), 58.0f);
  EXPECT_FLOAT_EQ(c.at({0, 1}), 64.0f);
  EXPECT_FLOAT_EQ(c.at({1, 0}), 139.0f);
  EXPECT_FLOAT_EQ(c.at({1, 1}), 154.0f);
}

TEST(OpsTest, MatMulBatchedLhs) {
  // [2, 2, 2] @ [2, 2]
  Tensor a = Tensor::FromVector(Shape{2, 2, 2}, {1, 0, 0, 1, 2, 0, 0, 2});
  Tensor b = Tensor::FromVector(Shape{2, 2}, {1, 2, 3, 4});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2, 2}));
  EXPECT_FLOAT_EQ(c.at({0, 0, 1}), 2.0f);
  EXPECT_FLOAT_EQ(c.at({1, 1, 0}), 6.0f);
}

TEST(OpsTest, MatMul2dLhsBatchedRhs) {
  Tensor a = Tensor::Eye(2);
  Tensor b = Tensor::FromVector(Shape{3, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{3, 2, 2}));
  for (int64_t i = 0; i < 12; ++i) EXPECT_FLOAT_EQ(c.data()[i], b.data()[i]);
}

TEST(OpsTest, SumMeanAll) {
  Tensor x = Tensor::FromVector(Shape{2, 2}, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(Sum(x).item(), 10.0f);
  EXPECT_FLOAT_EQ(Mean(x).item(), 2.5f);
  EXPECT_FLOAT_EQ(L1Norm(Neg(x)).item(), 10.0f);
}

TEST(OpsTest, SumAlongAxis) {
  Tensor x = Tensor::FromVector(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor s0 = Sum(x, 0);
  EXPECT_EQ(s0.shape(), (Shape{3}));
  EXPECT_FLOAT_EQ(s0.at({0}), 5.0f);
  Tensor s1 = Sum(x, 1, /*keepdim=*/true);
  EXPECT_EQ(s1.shape(), (Shape{2, 1}));
  EXPECT_FLOAT_EQ(s1.at({1, 0}), 15.0f);
  Tensor m1 = Mean(x, -1);
  EXPECT_FLOAT_EQ(m1.at({0}), 2.0f);
}

TEST(OpsTest, ReshapeTransposeSliceConcat) {
  Tensor x = Tensor::FromVector(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = Reshape(x, Shape{3, 2});
  EXPECT_FLOAT_EQ(r.at({2, 1}), 6.0f);
  Tensor t = Transpose(x, 0, 1);
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(t.at({2, 0}), 3.0f);
  EXPECT_FLOAT_EQ(t.at({1, 1}), 5.0f);
  Tensor s = Slice(x, 1, 1, 3);
  EXPECT_EQ(s.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(s.at({0, 0}), 2.0f);
  Tensor c = Concat({x, x}, 0);
  EXPECT_EQ(c.shape(), (Shape{4, 3}));
  EXPECT_FLOAT_EQ(c.at({3, 2}), 6.0f);
  Tensor c1 = Concat({x, s}, 1);
  EXPECT_EQ(c1.shape(), (Shape{2, 5}));
  EXPECT_FLOAT_EQ(c1.at({0, 4}), 3.0f);
}

TEST(OpsTest, Transpose3dMiddleDims) {
  Tensor x = Tensor::FromVector(Shape{2, 2, 2}, {0, 1, 2, 3, 4, 5, 6, 7});
  Tensor t = Transpose(x, 1, 2);
  EXPECT_FLOAT_EQ(t.at({0, 1, 0}), x.at({0, 0, 1}));
  EXPECT_FLOAT_EQ(t.at({1, 0, 1}), x.at({1, 1, 0}));
}

TEST(OpsTest, UnsqueezeSqueeze) {
  Tensor x = Tensor::FromVector(Shape{3}, {1, 2, 3});
  Tensor u = Unsqueeze(x, 0);
  EXPECT_EQ(u.shape(), (Shape{1, 3}));
  Tensor s = Squeeze(u, 0);
  EXPECT_EQ(s.shape(), (Shape{3}));
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Tensor x = Tensor::FromVector(Shape{2, 3}, {1, 2, 3, 0, 0, 0});
  Tensor y = Softmax(x, 1);
  for (int64_t i = 0; i < 2; ++i) {
    float sum = 0.0f;
    for (int64_t j = 0; j < 3; ++j) sum += y.at({i, j});
    EXPECT_NEAR(sum, 1.0f, 1e-6);
  }
  // Uniform logits -> uniform distribution.
  EXPECT_NEAR(y.at({1, 0}), 1.0f / 3.0f, 1e-6);
  // Monotonicity.
  EXPECT_GT(y.at({0, 2}), y.at({0, 1}));
}

TEST(OpsTest, SoftmaxIsNumericallyStableForLargeLogits) {
  Tensor x = Tensor::FromVector(Shape{1, 3}, {1000.0f, 1000.0f, 1000.0f});
  Tensor y = Softmax(x, 1);
  EXPECT_NEAR(y.at({0, 0}), 1.0f / 3.0f, 1e-6);
}

TEST(OpsTest, SoftmaxAlongNonTrailingAxis) {
  Tensor x = Tensor::FromVector(Shape{2, 2}, {0, 10, 0, 10});
  Tensor y = Softmax(x, 0);
  EXPECT_NEAR(y.at({0, 0}) + y.at({1, 0}), 1.0f, 1e-6);
  EXPECT_NEAR(y.at({0, 0}), 0.5f, 1e-6);
}

TEST(OpsTest, SoftmaxFullyMaskedRowIsUniformNotNaN) {
  // Regression: an axis that is entirely -inf (a fully masked attention row)
  // used to produce exp(-inf - -inf) = NaN across the row. It must yield the
  // uniform distribution, and unmasked rows must be unaffected.
  const float ninf = -std::numeric_limits<float>::infinity();
  Tensor x = Tensor::FromVector(Shape{2, 4},
                                {ninf, ninf, ninf, ninf, 1.0f, 2.0f, 3.0f, 4.0f});
  Tensor y = Softmax(x, 1);
  for (int64_t j = 0; j < 4; ++j) {
    EXPECT_FALSE(std::isnan(y.at({0, j})));
    EXPECT_FLOAT_EQ(y.at({0, j}), 0.25f);
  }
  float sum = 0.0f;
  for (int64_t j = 0; j < 4; ++j) sum += y.at({1, j});
  EXPECT_NEAR(sum, 1.0f, 1e-6);
  EXPECT_GT(y.at({1, 3}), y.at({1, 2}));
}

TEST(OpsTest, SoftmaxPartiallyMaskedRowIgnoresMaskedEntries) {
  const float ninf = -std::numeric_limits<float>::infinity();
  Tensor x = Tensor::FromVector(Shape{1, 4}, {ninf, 0.0f, 0.0f, ninf});
  Tensor y = Softmax(x, 1);
  EXPECT_FLOAT_EQ(y.at({0, 0}), 0.0f);
  EXPECT_FLOAT_EQ(y.at({0, 3}), 0.0f);
  EXPECT_NEAR(y.at({0, 1}), 0.5f, 1e-6);
  EXPECT_NEAR(y.at({0, 2}), 0.5f, 1e-6);
}

TEST(OpsTest, SoftmaxFullyMaskedStridedAxisIsUniform) {
  // Same regression along a non-trailing (strided) axis: lane 0 fully masked,
  // lane 1 ordinary.
  const float ninf = -std::numeric_limits<float>::infinity();
  Tensor x = Tensor::FromVector(Shape{2, 2}, {ninf, 5.0f, ninf, 7.0f});
  Tensor y = Softmax(x, 0);
  EXPECT_FLOAT_EQ(y.at({0, 0}), 0.5f);
  EXPECT_FLOAT_EQ(y.at({1, 0}), 0.5f);
  EXPECT_NEAR(y.at({0, 1}) + y.at({1, 1}), 1.0f, 1e-6);
  EXPECT_GT(y.at({1, 1}), y.at({0, 1}));
}

TEST(TensorTest, OversizedShapeDiesAtConstruction) {
  // Index-arithmetic overflow must be caught at tensor construction (the
  // TensorBuffer byte cap), not surface as a wild pointer inside a kernel.
  EXPECT_DEATH(Tensor::Zeros(Shape{int64_t{1} << 30, int64_t{1} << 30}),
               "size cap");
  // numel() itself refuses products that overflow int64.
  EXPECT_DEATH(Shape({int64_t{1} << 40, int64_t{1} << 40}).numel(),
               "overflows");
}

TEST(OpsTest, ArgMaxIndex) {
  Tensor x = Tensor::FromVector(Shape{5}, {1, 9, 3, 9, 2});
  EXPECT_EQ(ArgMaxIndex(x), 1);  // first max wins
}

TEST(OpsTest, ReduceToShapeSumsBroadcastAxes) {
  Tensor t = Tensor::Ones(Shape{2, 3, 4});
  Tensor r = ReduceToShape(t, Shape{3, 1});
  EXPECT_EQ(r.shape(), (Shape{3, 1}));
  EXPECT_FLOAT_EQ(r.at({0, 0}), 8.0f);  // 2 * 4
  Tensor r2 = ReduceToShape(t, Shape{});
  EXPECT_FLOAT_EQ(r2.item(), 24.0f);
}

}  // namespace
}  // namespace causalformer

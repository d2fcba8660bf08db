#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "tensor/ops.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"

// Exhaustive tail sweep: every kernel in each built vectorized table is
// compared against the scalar reference over sizes 1..67, so every
// vector-width remainder path (0..width-1 tail lanes, the blocked and
// unblocked main loops) is exercised. Elementwise/accumulate/max kernels must
// match the scalar table exactly; horizontal reductions and the polynomial
// exp carry the tolerance documented in tensor/simd.h.

namespace causalformer {
namespace {

constexpr int64_t kMaxN = 67;

// Deterministic LCG fill in roughly [-2, 2); avoids RNG coupling to the
// tensor library under test.
void Fill(std::vector<float>* v, uint32_t seed) {
  uint32_t s = seed * 2654435761u + 12345u;
  for (float& x : *v) {
    s = s * 1664525u + 1013904223u;
    x = static_cast<float>((s >> 8) & 0xFFFF) / 16384.0f - 2.0f;
  }
}

std::vector<std::pair<std::string, const simd::KernelTable*>> VectorTables() {
  std::vector<std::pair<std::string, const simd::KernelTable*>> tables;
  if (const auto* t = simd::TableForLevel(simd::IsaLevel::kAvx2)) {
    tables.emplace_back("avx2", t);
  }
  return tables;
}

const simd::KernelTable& Scalar() {
  return *simd::TableForLevel(simd::IsaLevel::kScalar);
}

// Reassociation tolerance for a horizontal reduction: proportional to the L1
// mass of the summands, so near-cancelling sums don't trip a relative check.
void ExpectReduction(float ref, float got, double l1) {
  ASSERT_NEAR(got, ref, 64.0 * std::numeric_limits<float>::epsilon() * l1 +
                            1e-6);
}

// Polynomial exp vs std::exp: <= ~4 ulp relative; the absolute floor covers
// the documented flush-to-zero below -87.33 (scalar yields a subnormal).
void ExpectExp(float ref, float got) {
  ASSERT_NEAR(got, ref, 1e-5 * std::fabs(ref) + 1e-37);
}

class SimdKernelTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_level_ = simd::ActiveLevel(); }
  void TearDown() override { simd::SetLevelForTesting(saved_level_); }
  simd::IsaLevel saved_level_ = simd::IsaLevel::kScalar;
};

TEST_F(SimdKernelTest, ExactKernelsMatchScalarAtEverySize) {
  for (const auto& [name, vec] : VectorTables()) {
    const simd::KernelTable& ref = Scalar();
    for (int64_t n = 1; n <= kMaxN; ++n) {
      SCOPED_TRACE(name + " n=" + std::to_string(n));
      std::vector<float> a(n), b(n), base(n);
      Fill(&a, static_cast<uint32_t>(n));
      Fill(&b, static_cast<uint32_t>(n) + 1000);
      Fill(&base, static_cast<uint32_t>(n) + 2000);

      std::vector<float> want(n), got(n);

      ref.add(a.data(), b.data(), want.data(), n);
      vec->add(a.data(), b.data(), got.data(), n);
      for (int64_t i = 0; i < n; ++i) ASSERT_EQ(got[i], want[i]) << "add " << i;

      ref.sub(a.data(), b.data(), want.data(), n);
      vec->sub(a.data(), b.data(), got.data(), n);
      for (int64_t i = 0; i < n; ++i) ASSERT_EQ(got[i], want[i]) << "sub " << i;

      ref.mul(a.data(), b.data(), want.data(), n);
      vec->mul(a.data(), b.data(), got.data(), n);
      for (int64_t i = 0; i < n; ++i) ASSERT_EQ(got[i], want[i]) << "mul " << i;

      ref.div(a.data(), b.data(), want.data(), n);
      vec->div(a.data(), b.data(), got.data(), n);
      for (int64_t i = 0; i < n; ++i) ASSERT_EQ(got[i], want[i]) << "div " << i;

      ref.scale(-1.5f, a.data(), want.data(), n);
      vec->scale(-1.5f, a.data(), got.data(), n);
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], want[i]) << "scale " << i;
      }

      // scale must be in-place safe (Neg/Scale write through their input).
      want = a;
      ref.scale(0.5f, want.data(), want.data(), n);
      got = a;
      vec->scale(0.5f, got.data(), got.data(), n);
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], want[i]) << "scale-inplace " << i;
      }

      ref.add_scalar(0.75f, a.data(), want.data(), n);
      vec->add_scalar(0.75f, a.data(), got.data(), n);
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], want[i]) << "add_scalar " << i;
      }

      want = base;
      ref.accumulate(want.data(), a.data(), n);
      got = base;
      vec->accumulate(got.data(), a.data(), n);
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], want[i]) << "accumulate " << i;
      }

      want = base;
      ref.max_into(want.data(), a.data(), n);
      got = base;
      vec->max_into(got.data(), a.data(), n);
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], want[i]) << "max_into " << i;
      }

      want = base;
      ref.fma_into(want.data(), a.data(), b.data(), n);
      got = base;
      vec->fma_into(got.data(), a.data(), b.data(), n);
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], want[i]) << "fma_into " << i;
      }

      for (const float alpha : {0.0f, 1.0f, -2.25f}) {
        want = base;
        ref.axpy(alpha, a.data(), want.data(), n);
        got = base;
        vec->axpy(alpha, a.data(), got.data(), n);
        for (int64_t i = 0; i < n; ++i) {
          ASSERT_EQ(got[i], want[i]) << "axpy(" << alpha << ") " << i;
        }
      }

      ASSERT_EQ(vec->max(a.data(), n), ref.max(a.data(), n)) << "max";

      ref.mul_sub(a.data(), b.data(), base.data(), want.data(), n);
      vec->mul_sub(a.data(), b.data(), base.data(), got.data(), n);
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], want[i]) << "mul_sub " << i;
      }

      ref.mul_sub_scalar(a.data(), b.data(), 0.3f, want.data(), n);
      vec->mul_sub_scalar(a.data(), b.data(), 0.3f, got.data(), n);
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], want[i]) << "mul_sub_scalar " << i;
      }
    }
  }
}

TEST_F(SimdKernelTest, StabRatioMatchesScalarIncludingSignedZero) {
  for (const auto& [name, vec] : VectorTables()) {
    const simd::KernelTable& ref = Scalar();
    for (int64_t n = 1; n <= kMaxN; ++n) {
      SCOPED_TRACE(name + " n=" + std::to_string(n));
      std::vector<float> r(n), f(n);
      Fill(&r, static_cast<uint32_t>(n) + 3000);
      Fill(&f, static_cast<uint32_t>(n) + 4000);
      // Force the sign-branch edge cases into the lane mix: +0, -0, and
      // values straddling zero land at different tail positions as n varies.
      f[0] = 0.0f;
      if (n > 1) f[n - 1] = -0.0f;
      if (n > 2) f[n / 2] = -1e-8f;

      std::vector<float> want(n), got(n);
      ref.stab_ratio(r.data(), f.data(), 1e-6f, want.data(), n);
      vec->stab_ratio(r.data(), f.data(), 1e-6f, got.data(), n);
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], want[i]) << "stab_ratio " << i << " f=" << f[i];
      }
    }
  }
}

TEST_F(SimdKernelTest, ReductionsWithinReassociationTolerance) {
  for (const auto& [name, vec] : VectorTables()) {
    const simd::KernelTable& ref = Scalar();
    for (int64_t n = 1; n <= kMaxN; ++n) {
      SCOPED_TRACE(name + " n=" + std::to_string(n));
      std::vector<float> a(n), b(n), base(n);
      Fill(&a, static_cast<uint32_t>(n) + 5000);
      Fill(&b, static_cast<uint32_t>(n) + 6000);
      Fill(&base, static_cast<uint32_t>(n) + 7000);

      double l1_dot = 0, l1_sum = 0;
      for (int64_t i = 0; i < n; ++i) {
        l1_dot += std::fabs(static_cast<double>(a[i]) * b[i]);
        l1_sum += std::fabs(a[i]);
      }

      ExpectReduction(ref.dot(a.data(), b.data(), n),
                      vec->dot(a.data(), b.data(), n), l1_dot);
      ExpectReduction(ref.sum(a.data(), n), vec->sum(a.data(), n), l1_sum);

      // axpy_dot: the y update is exact, the returned dot reassociates.
      std::vector<float> want = base, got = base;
      const float want_dot =
          ref.axpy_dot(1.25f, a.data(), want.data(), b.data(), n);
      const float got_dot =
          vec->axpy_dot(1.25f, a.data(), got.data(), b.data(), n);
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], want[i]) << "axpy_dot y " << i;
      }
      ExpectReduction(want_dot, got_dot, l1_dot);
    }
  }
}

TEST_F(SimdKernelTest, GemmRowSweepContiguousAndStrided) {
  for (const auto& [name, vec] : VectorTables()) {
    const simd::KernelTable& ref = Scalar();
    // n sweeps the tail dimension (the vectorized axis); k and the A stride
    // cover the contiguous-row and strided-column (transpose_a) forms.
    for (int64_t n = 1; n <= kMaxN; ++n) {
      for (const int64_t k : {int64_t{1}, int64_t{7}, int64_t{17}}) {
        for (const int64_t a_stride : {int64_t{1}, int64_t{5}}) {
          SCOPED_TRACE(name + " n=" + std::to_string(n) +
                       " k=" + std::to_string(k) +
                       " stride=" + std::to_string(a_stride));
          std::vector<float> a(k * a_stride), b(k * n);
          Fill(&a, static_cast<uint32_t>(n * 31 + k));
          Fill(&b, static_cast<uint32_t>(n * 37 + k) + 8000);

          // Pre-poison the outputs: gemm_row owns the full row and must
          // overwrite it, not accumulate.
          std::vector<float> want(n, 1e30f), got(n, -1e30f);
          ref.gemm_row(a.data(), a_stride, b.data(), want.data(), k, n);
          vec->gemm_row(a.data(), a_stride, b.data(), got.data(), k, n);
          for (int64_t j = 0; j < n; ++j) {
            double l1 = 0;
            for (int64_t kk = 0; kk < k; ++kk) {
              l1 += std::fabs(static_cast<double>(a[kk * a_stride]) *
                              b[kk * n + j]);
            }
            ExpectReduction(want[j], got[j], l1);
          }
        }
      }
    }
  }
}

TEST_F(SimdKernelTest, ExpKernelsWithinUlpBoundAndFlushNegInfToZero) {
  const float neg_inf = -std::numeric_limits<float>::infinity();
  for (const auto& [name, vec] : VectorTables()) {
    const simd::KernelTable& ref = Scalar();
    for (int64_t n = 1; n <= kMaxN; ++n) {
      SCOPED_TRACE(name + " n=" + std::to_string(n));
      std::vector<float> x(n), m(n, 0.0f);
      Fill(&x, static_cast<uint32_t>(n) + 9000);
      for (int64_t i = 0; i < n; ++i) x[i] *= 4.0f;  // spread to [-8, 8)
      // Masked-attention edge cases at tail-sensitive positions: -inf must
      // come out exactly 0 at every level, deep-negative values flush.
      x[0] = neg_inf;
      if (n > 1) x[n - 1] = -100.0f;
      if (n > 2) x[n / 2] = neg_inf;

      std::vector<float> want(n), got(n);
      const float want_sum = ref.exp_shift_sum(x.data(), 0.5f, want.data(), n);
      const float got_sum = vec->exp_shift_sum(x.data(), 0.5f, got.data(), n);
      double l1 = 0;
      for (int64_t i = 0; i < n; ++i) {
        ExpectExp(want[i], got[i]);
        l1 += want[i];
      }
      ASSERT_EQ(got[0], 0.0f) << "exp(-inf) must flush to exactly 0";
      if (n > 2) ASSERT_EQ(got[n / 2], 0.0f);
      ExpectReduction(want_sum, got_sum, l1 + 1.0);

      ref.exp_sub(x.data(), m.data(), want.data(), n);
      vec->exp_sub(x.data(), m.data(), got.data(), n);
      for (int64_t i = 0; i < n; ++i) ExpectExp(want[i], got[i]);
      ASSERT_EQ(got[0], 0.0f);
    }
  }
}

// Op-level cross-check on a strided (non-trailing) softmax axis: the scalar
// and vectorized tables must agree within the exp tolerance for every odd
// axis length, including length-1 axes.
TEST_F(SimdKernelTest, SoftmaxStridedAxisAgreesAcrossLevels) {
  if (VectorTables().empty()) GTEST_SKIP() << "scalar-only build";
  const simd::IsaLevel best = simd::ActiveLevel();
  if (best == simd::IsaLevel::kScalar) GTEST_SKIP() << "no vector CPU support";

  for (const int64_t axis_len : {1, 2, 3, 5, 9, 17, 33}) {
    Tensor x = Tensor::Zeros(Shape{3, axis_len, 7});
    uint32_t s = static_cast<uint32_t>(axis_len) * 2654435761u;
    for (int64_t i = 0; i < x.numel(); ++i) {
      s = s * 1664525u + 1013904223u;
      x.data()[i] = static_cast<float>((s >> 8) & 0xFFFF) / 8192.0f - 4.0f;
    }

    simd::SetLevelForTesting(simd::IsaLevel::kScalar);
    const Tensor want = Softmax(x, 1);
    simd::SetLevelForTesting(best);
    const Tensor got = Softmax(x, 1);

    ASSERT_EQ(want.numel(), got.numel());
    for (int64_t i = 0; i < want.numel(); ++i) {
      ASSERT_NEAR(got.data()[i], want.data()[i],
                  1e-5 * std::fabs(want.data()[i]) + 1e-7)
          << "axis_len=" << axis_len << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace causalformer

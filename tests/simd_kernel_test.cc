#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "tensor/ops.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"
#include "util/rng.h"

// Exhaustive tail sweep: every kernel in each built vectorized table is
// compared against the scalar reference over sizes 1..67, so every
// vector-width remainder path (0..width-1 tail lanes, the blocked and
// unblocked main loops) is exercised. Elementwise/accumulate/max kernels,
// the leaky ReLU, the causal-conv rows and the attention combine must match
// the scalar table exactly; horizontal reductions, the matmul rows and the
// polynomial exp carry the tolerance documented in tensor/simd.h, and the
// row-batched entries (gemm_rows, softmax_rows) equal their own table's
// row-at-a-time form bit for bit.

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

// ---- Causal-conv rows ---------------------------------------------------------

// Row lengths of the conv sweeps: every tail at 1..67, plus the 128-step rows
// bench_perf_micro times.
std::vector<int64_t> ConvSteps() {
  std::vector<int64_t> steps;
  for (int64_t n = 1; n <= kMaxN; ++n) steps.push_back(n);
  steps.push_back(128);
  return steps;
}

// Same bits, or NaN on both sides (NaN payloads are not part of the contract).
bool SameFloat(float a, float b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

// A row with kGuard canary floats on each side; a write outside the row
// changes a canary. Input rows use NaN canaries, so a read outside the row
// that reached a result would show up as a NaN there.
class GuardedRow {
 public:
  static constexpr int64_t kGuard = 16;

  GuardedRow(int64_t n, float canary)
      : n_(n), canary_(canary), buf_(n + 2 * kGuard, canary) {}

  float* data() { return buf_.data() + kGuard; }
  const float* data() const { return buf_.data() + kGuard; }
  float& operator[](int64_t i) { return data()[i]; }
  float operator[](int64_t i) const { return data()[i]; }

  bool CanariesIntact() const {
    for (int64_t i = 0; i < kGuard; ++i) {
      if (!SameFloat(buf_[i], canary_) ||
          !SameFloat(buf_[kGuard + n_ + i], canary_)) {
        return false;
      }
    }
    return true;
  }

 private:
  int64_t n_;
  float canary_;
  std::vector<float> buf_;
};

constexpr float kOutCanary = 123.25f;
constexpr float kInCanary = std::numeric_limits<float>::quiet_NaN();

GuardedRow FilledRow(int64_t n, uint32_t seed, float canary) {
  GuardedRow row(n, canary);
  std::vector<float> v(n);
  Fill(&v, seed);
  for (int64_t i = 0; i < n; ++i) row[i] = v[i];
  return row;
}

// One conv row's inputs: kernel taps k, inputs x, cotangent c.
struct ConvCase {
  GuardedRow k, x, c;
};

ConvCase MakeConvCase(int64_t steps, uint32_t seed) {
  ConvCase cc{FilledRow(steps, seed, kInCanary),
              FilledRow(steps, seed + 100, kInCanary),
              FilledRow(steps, seed + 200, kInCanary)};
  // Zero cotangents, both signs, at tail-sensitive positions: those steps
  // must add nothing.
  cc.c[0] = 0.0f;
  if (steps > 2) cc.c[steps / 2] = -0.0f;
  if (steps > 9) cc.c[9] = 0.0f;
  if (steps > 1) cc.c[steps - 1] = 0.0f;
  return cc;
}

// Runs conv_row and conv_row_vjp (with each half on or off) through `got`
// and the scalar table, and requires the same bits everywhere.
void ExpectConvRowsExact(const simd::KernelTable& got, const ConvCase& cc,
                         int64_t steps, uint32_t seed) {
  const simd::KernelTable& ref = Scalar();
  GuardedRow want_o(steps, kOutCanary), got_o(steps, kOutCanary);
  ref.conv_row(cc.k.data(), cc.x.data(), want_o.data(), steps);
  got.conv_row(cc.k.data(), cc.x.data(), got_o.data(), steps);
  ASSERT_TRUE(got_o.CanariesIntact()) << "conv_row wrote outside its row";
  for (int64_t t = 0; t < steps; ++t) {
    ASSERT_TRUE(SameFloat(got_o[t], want_o[t]))
        << "conv_row t=" << t << " got " << got_o[t] << " want " << want_o[t];
  }

  for (const bool with_gx : {true, false}) {
    for (const bool with_gk : {true, false}) {
      SCOPED_TRACE(std::string("gx ") + (with_gx ? "on" : "null") + ", gk " +
                   (with_gk ? "on" : "null"));
      GuardedRow want_gx = FilledRow(steps, seed + 300, kOutCanary);
      GuardedRow got_gx = want_gx;
      GuardedRow want_gk = FilledRow(steps, seed + 400, kOutCanary);
      GuardedRow got_gk = want_gk;
      // A -0 accumulator must survive every step that does not touch it.
      want_gx[steps - 1] = got_gx[steps - 1] = -0.0f;
      want_gk[0] = got_gk[0] = -0.0f;
      ref.conv_row_vjp(cc.k.data(), cc.x.data(), cc.c.data(),
                       with_gx ? want_gx.data() : nullptr,
                       with_gk ? want_gk.data() : nullptr, steps);
      got.conv_row_vjp(cc.k.data(), cc.x.data(), cc.c.data(),
                       with_gx ? got_gx.data() : nullptr,
                       with_gk ? got_gk.data() : nullptr, steps);
      ASSERT_TRUE(got_gx.CanariesIntact()) << "gx written outside its row";
      ASSERT_TRUE(got_gk.CanariesIntact()) << "gk written outside its row";
      for (int64_t t = 0; t < steps; ++t) {
        ASSERT_TRUE(SameFloat(got_gx[t], want_gx[t]))
            << "gx " << t << " got " << got_gx[t] << " want " << want_gx[t];
        ASSERT_TRUE(SameFloat(got_gk[t], want_gk[t]))
            << "gk " << t << " got " << got_gk[t] << " want " << want_gk[t];
      }
    }
  }
}

std::vector<std::pair<std::string, const simd::KernelTable*>> AllTables() {
  auto tables = VectorTables();
  tables.emplace_back("scalar", &Scalar());
  return tables;
}

TEST_F(SimdKernelTest, ConvRowsMatchScalarExactly) {
  for (const auto& [name, table] : AllTables()) {
    for (const int64_t steps : ConvSteps()) {
      SCOPED_TRACE(name + " steps=" + std::to_string(steps));
      const uint32_t seed = static_cast<uint32_t>(steps) * 7919u;
      ExpectConvRowsExact(*table, MakeConvCase(steps, seed), steps, seed);
    }
  }
}

TEST_F(SimdKernelTest, ConvRowsMatchScalarExactlyWithNonFiniteValues) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const auto& [name, table] : AllTables()) {
    for (const int64_t steps : ConvSteps()) {
      for (const float bad : {inf, -inf, nan}) {
        for (const char* row_name : {"x", "k", "c"}) {
          // One non-finite value in x, k or the cotangent, at the first, a
          // middle and the last position in turn.
          for (const int64_t pos : {int64_t{0}, steps / 2, steps - 1}) {
            SCOPED_TRACE(name + " steps=" + std::to_string(steps) + " " +
                         row_name + "[" + std::to_string(pos) +
                         "]=" + std::to_string(bad));
            const uint32_t seed = static_cast<uint32_t>(steps * 31 + pos);
            ConvCase cc = MakeConvCase(steps, seed);
            GuardedRow& row = *row_name == 'x'   ? cc.x
                              : *row_name == 'k' ? cc.k
                                                 : cc.c;
            row[pos] = bad;
            ExpectConvRowsExact(*table, cc, steps, seed);
          }
        }
      }
    }
  }
}

// The scalar rows give the seed's bits: a per-step dot then one divide pass
// for the forward, and per-step axpys (skipping zero steps) for the adjoint,
// all through the scalar table's own dot, divide and axpy.
TEST_F(SimdKernelTest, ScalarConvRowsMatchTheSeedLoops) {
  const simd::KernelTable& ref = Scalar();
  for (const int64_t steps : ConvSteps()) {
    SCOPED_TRACE("steps=" + std::to_string(steps));
    const uint32_t seed = static_cast<uint32_t>(steps) * 104729u;
    const ConvCase cc = MakeConvCase(steps, seed);
    std::vector<float> denom(steps);
    for (int64_t t = 0; t < steps; ++t) denom[t] = static_cast<float>(t + 1);

    std::vector<float> want_o(steps), got_o(steps);
    for (int64_t t = 0; t < steps; ++t) {
      want_o[t] = ref.dot(cc.k.data() + steps - 1 - t, cc.x.data(), t + 1);
    }
    ref.binary_tiled(simd::ArithOp::kDiv, want_o.data(), denom.data(), steps,
                     want_o.data(), steps);
    ref.conv_row(cc.k.data(), cc.x.data(), got_o.data(), steps);

    std::vector<float> cs(steps);
    ref.binary_tiled(simd::ArithOp::kDiv, cc.c.data(), denom.data(), steps,
                     cs.data(), steps);
    std::vector<float> want_gx(steps), want_gk(steps);
    Fill(&want_gx, seed + 1);
    Fill(&want_gk, seed + 2);
    std::vector<float> got_gx = want_gx, got_gk = want_gk;
    for (int64_t t = 0; t < steps; ++t) {
      if (cs[t] == 0.0f) continue;
      ref.axpy(cs[t], cc.k.data() + steps - 1 - t, want_gx.data(), t + 1);
      ref.axpy(cs[t], cc.x.data(), want_gk.data() + steps - 1 - t, t + 1);
    }
    ref.conv_row_vjp(cc.k.data(), cc.x.data(), cc.c.data(), got_gx.data(),
                     got_gk.data(), steps);

    for (int64_t t = 0; t < steps; ++t) {
      ASSERT_TRUE(SameFloat(got_o[t], want_o[t])) << "conv_row " << t;
      ASSERT_TRUE(SameFloat(got_gx[t], want_gx[t])) << "gx " << t;
      ASSERT_TRUE(SameFloat(got_gk[t], want_gk[t])) << "gk " << t;
    }
  }
}

// ---- Entries of the serving detect ---------------------------------------------

// Row counts of the row-block sweeps: every count up to 9 (one partial and
// one full four-row block, one partial and one full group of eight lanes),
// then counts on both sides of 16 and the sweep's end.
std::vector<int64_t> RowCounts() {
  std::vector<int64_t> rows;
  for (int64_t r = 1; r <= 9; ++r) rows.push_back(r);
  for (const int64_t r : {15, 16, 17, 33, 67}) rows.push_back(r);
  return rows;
}

// A guarded row of n values in [-2, 2) with +0, -0, +inf, -inf and NaN
// spread over it (every `gap`-th position from `phase`) when `specials`.
GuardedRow SpecialRow(int64_t n, uint32_t seed, bool specials,
                      int64_t gap = 7, int64_t phase = 0) {
  GuardedRow row = FilledRow(n, seed, kInCanary);
  if (!specials) return row;
  const float inf = std::numeric_limits<float>::infinity();
  const float values[] = {0.0f, -0.0f, inf, -inf,
                          std::numeric_limits<float>::quiet_NaN()};
  for (int64_t i = phase; i < n; i += gap) row[i] = values[(i / gap) % 5];
  return row;
}

// `got` equals `want` bit for bit (NaN payloads aside) and kept its
// canaries.
void ExpectSameRow(const GuardedRow& want, const GuardedRow& got, int64_t n,
                   const char* what) {
  ASSERT_TRUE(got.CanariesIntact()) << what << " wrote outside its output";
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(SameFloat(got[i], want[i]))
        << what << " [" << i << "] got " << got[i] << " want " << want[i];
  }
}

constexpr simd::ArithOp kArithOps[] = {simd::ArithOp::kAdd,
                                       simd::ArithOp::kSub,
                                       simd::ArithOp::kMul,
                                       simd::ArithOp::kDiv};

float Arith(simd::ArithOp op, float x, float y) {
  switch (op) {
    case simd::ArithOp::kAdd:
      return x + y;
    case simd::ArithOp::kSub:
      return x - y;
    case simd::ArithOp::kMul:
      return x * y;
    case simd::ArithOp::kDiv:
      return x / y;
  }
  return 0.0f;
}

TEST_F(SimdKernelTest, BinaryTiledMatchesScalarAndPerRepeatCalls) {
  for (const auto& [name, table] : AllTables()) {
    for (int64_t period = 1; period <= kMaxN; ++period) {
      for (const int64_t repeats : {1, 2, 3, 7}) {
        for (const bool specials : {false, true}) {
          const int64_t n = period * repeats;
          SCOPED_TRACE(name + " period=" + std::to_string(period) +
                       " repeats=" + std::to_string(repeats) +
                       (specials ? " specials" : ""));
          const uint32_t seed = static_cast<uint32_t>(n * 13 + period);
          const GuardedRow a = SpecialRow(n, seed, specials);
          const GuardedRow b = SpecialRow(period, seed + 1, specials, 5, 2);
          for (const simd::ArithOp op : kArithOps) {
            // The scalar table, and this table's elementwise pass run once
            // per repeat of b (the trailing-broadcast loop it replaces).
            GuardedRow want(n, kOutCanary), per_repeat(n, kOutCanary);
            GuardedRow got(n, kOutCanary);
            Scalar().binary_tiled(op, a.data(), b.data(), period, want.data(),
                                  n);
            for (int64_t off = 0; off < n; off += period) {
              table->binary_tiled(op, a.data() + off, b.data(), period,
                                  per_repeat.data() + off, period);
            }
            table->binary_tiled(op, a.data(), b.data(), period, got.data(),
                                n);
            ExpectSameRow(want, got, n, "binary_tiled vs scalar");
            ExpectSameRow(per_repeat, got, n, "binary_tiled vs per repeat");
            // The reference is the plain a[i] op b[i % period].
            GuardedRow direct(n, kOutCanary);
            for (int64_t i = 0; i < n; ++i) {
              direct[i] = Arith(op, a[i], b[i % period]);
            }
            ExpectSameRow(direct, want, n, "scalar binary_tiled vs a op b");
            // In place (o == a), as the strided softmax scales its rows.
            GuardedRow in_place = a;
            table->binary_tiled(op, in_place.data(), b.data(), period,
                                in_place.data(), n);
            ExpectSameRow(want, in_place, n, "binary_tiled in place");
          }
        }
      }
    }
  }
}

TEST_F(SimdKernelTest, LeakyReluAndAdjointMatchScalarExactly) {
  std::vector<int64_t> sizes;
  for (int64_t n = 1; n <= kMaxN; ++n) sizes.push_back(n);
  sizes.push_back(64 * 4 * 16);  // the cold batch's ffn1 output
  for (const auto& [name, table] : VectorTables()) {
    for (const int64_t n : sizes) {
      for (const bool specials : {false, true}) {
        for (const float slope : {0.01f, 0.3f}) {
          SCOPED_TRACE(name + " n=" + std::to_string(n) +
                       (specials ? " specials" : "") +
                       " slope=" + std::to_string(slope));
          const uint32_t seed = static_cast<uint32_t>(n * 17);
          const GuardedRow x = SpecialRow(n, seed, specials);
          const GuardedRow c = SpecialRow(n, seed + 1, specials, 6, 3);
          GuardedRow want(n, kOutCanary), got(n, kOutCanary);
          Scalar().leaky_relu(slope, x.data(), want.data(), n);
          table->leaky_relu(slope, x.data(), got.data(), n);
          ExpectSameRow(want, got, n, "leaky_relu");
          GuardedRow want_g(n, kOutCanary), got_g(n, kOutCanary);
          Scalar().leaky_relu_vjp(slope, x.data(), c.data(), want_g.data(), n);
          table->leaky_relu_vjp(slope, x.data(), c.data(), got_g.data(), n);
          ExpectSameRow(want_g, got_g, n, "leaky_relu_vjp");
        }
      }
    }
  }
}

// gemm_rows, block by block: every table's block call equals its one-row
// gemm_row calls, so row blocks are invisible. Under a vector table each
// element of an 8-column block is one FMA chain over ascending k from +0
// (std::fma rounds once, as the vector FMA does), and every tail column
// equals the scalar table's multiply-then-add sum.
void ExpectGemmRowsExact(const std::string& name, const simd::KernelTable& t,
                         int64_t rows, int64_t k, int64_t n, bool transpose_a) {
  SCOPED_TRACE(name + " rows=" + std::to_string(rows) + " k=" +
               std::to_string(k) + " n=" + std::to_string(n) +
               (transpose_a ? " A^T" : ""));
  const bool fused = &t != &Scalar();
  // Row r of A at a + r * row_step, its terms a_stride apart.
  const int64_t row_step = transpose_a ? 1 : k;
  const int64_t a_stride = transpose_a ? rows : 1;
  const uint32_t seed = static_cast<uint32_t>((rows * 71 + k) * 67 + n);
  const GuardedRow a = FilledRow(rows * k, seed, kInCanary);
  const GuardedRow b = FilledRow(k * n, seed + 1, kInCanary);
  GuardedRow got(rows * n, kOutCanary), one_row(rows * n, kOutCanary);
  GuardedRow scalar(rows * n, kOutCanary);
  t.gemm_rows(a.data(), row_step, a_stride, b.data(), got.data(), rows, k, n);
  Scalar().gemm_rows(a.data(), row_step, a_stride, b.data(), scalar.data(),
                     rows, k, n);
  for (int64_t r = 0; r < rows; ++r) {
    t.gemm_row(a.data() + r * row_step, a_stride, b.data(),
               one_row.data() + r * n, k, n);
  }
  ExpectSameRow(one_row, got, rows * n, "gemm_rows vs gemm_row");
  ASSERT_TRUE(scalar.CanariesIntact());
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t j = 0; j < n; ++j) {
      float want = scalar[r * n + j];
      if (fused && j < n / 8 * 8) {
        want = 0.0f;
        for (int64_t kk = 0; kk < k; ++kk) {
          want = std::fma(a[r * row_step + kk * a_stride], b[kk * n + j],
                          want);
        }
      }
      ASSERT_TRUE(SameFloat(got[r * n + j], want))
          << "c[" << r << "," << j << "] got " << got[r * n + j] << " want "
          << want;
    }
  }
}

TEST_F(SimdKernelTest, GemmRowsEqualOneRowCallsBitForBit) {
  for (const auto& [name, table] : AllTables()) {
    for (int64_t n = 1; n <= kMaxN; ++n) {
      for (const int64_t rows : RowCounts()) {
        for (const int64_t k : {int64_t{1}, int64_t{7}, int64_t{16}}) {
          for (const bool transpose_a : {false, true}) {
            ExpectGemmRowsExact(name, *table, rows, k, n, transpose_a);
          }
        }
      }
    }
    for (int64_t rows = 1; rows <= kMaxN; ++rows) {
      for (const int64_t n : {int64_t{4}, int64_t{8}, int64_t{15}}) {
        ExpectGemmRowsExact(name, *table, rows, 17, n, false);
      }
    }
    // The cold batch: the folded Linear rows and a logits matrix.
    ExpectGemmRowsExact(name, *table, 256, 8, 16, false);
    ExpectGemmRowsExact(name, *table, 256, 16, 16, false);
    ExpectGemmRowsExact(name, *table, 4, 16, 4, false);
    ExpectGemmRowsExact(name, *table, 16, 256, 8, true);
  }
}

// softmax_rows equals its table's row-at-a-time form: max, exp_shift_sum
// and scale per row, with degenerate rows made uniform, as the contiguous
// softmax ran it before it took all rows in one call.
void ExpectSoftmaxRowsExact(const std::string& name,
                            const simd::KernelTable& t, int64_t rows,
                            int64_t len) {
  SCOPED_TRACE(name + " rows=" + std::to_string(rows) +
               " len=" + std::to_string(len));
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  GuardedRow x = FilledRow(rows * len, static_cast<uint32_t>(rows * 97 + len),
                           kInCanary);
  for (int64_t i = 0; i < rows * len; ++i) x[i] *= 4.0f;  // [-8, 8)
  // Degenerate and edge rows at lane positions that move with `rows`: all
  // -inf, one +inf, one NaN, some -inf entries, signed zeros, deep
  // negatives that flush to 0.
  for (int64_t r = 0; r < rows; ++r) {
    float* row = x.data() + r * len;
    switch (r % 7) {
      case 1:
        for (int64_t l = 0; l < len; ++l) row[l] = -inf;
        break;
      case 2:
        row[len / 2] = inf;
        break;
      case 3:
        row[len - 1] = nan;
        break;
      case 4:
        for (int64_t l = 0; l < len; l += 2) row[l] = -inf;
        break;
      case 5:
        row[0] = -0.0f;
        row[len - 1] = 0.0f;
        break;
      case 6:
        for (int64_t l = 1; l < len; l += 2) row[l] = -200.0f;
        break;
      default:
        break;
    }
  }
  GuardedRow want(rows * len, kOutCanary), got(rows * len, kOutCanary);
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = x.data() + r * len;
    float* orow = want.data() + r * len;
    const float max_v = t.max(row, len);
    float sum = 0.0f;
    if (std::isfinite(max_v)) sum = t.exp_shift_sum(row, max_v, orow, len);
    if (!std::isfinite(max_v) || sum == 0.0f || !std::isfinite(sum)) {
      for (int64_t l = 0; l < len; ++l) {
        orow[l] = 1.0f / static_cast<float>(len);
      }
    } else {
      t.scale(1.0f / sum, orow, orow, len);
    }
  }
  t.softmax_rows(x.data(), got.data(), rows, len);
  ExpectSameRow(want, got, rows * len, "softmax_rows");
}

TEST_F(SimdKernelTest, SoftmaxRowsEqualTheRowAtATimeForm) {
  for (const auto& [name, table] : AllTables()) {
    for (int64_t len = 1; len <= kMaxN; ++len) {
      for (const int64_t rows : RowCounts()) {
        ExpectSoftmaxRowsExact(name, *table, rows, len);
      }
    }
    for (int64_t rows = 1; rows <= kMaxN; ++rows) {
      for (const int64_t len : {int64_t{4}, int64_t{7}, int64_t{8}}) {
        ExpectSoftmaxRowsExact(name, *table, rows, len);
      }
    }
    ExpectSoftmaxRowsExact(name, *table, 64 * 4, 4);    // the cold batch
    ExpectSoftmaxRowsExact(name, *table, 6 * 15, 15);  // the stream
  }
}

// One attention-combine case: a [batch, n, n] with exact zeros of both
// signs among its weights, v [batch, n, n, steps], cotangent [batch, n,
// steps]; with `specials`, +-inf and NaN too.
struct AttentionCase {
  int64_t batch, n, steps;
  GuardedRow a, v, c;
};

AttentionCase MakeAttentionCase(int64_t batch, int64_t n, int64_t steps,
                                bool specials) {
  const uint32_t seed = static_cast<uint32_t>((batch * 89 + n) * 83 + steps);
  AttentionCase ac{batch,
                   n,
                   steps,
                   SpecialRow(batch * n * n, seed, specials, 5, 1),
                   SpecialRow(batch * n * n * steps, seed + 1, specials, 11, 4),
                   SpecialRow(batch * n * steps, seed + 2, specials, 9, 2)};
  for (int64_t i = 0; i < batch * n * n; i += 3) {
    ac.a[i] = i % 2 == 0 ? 0.0f : -0.0f;
  }
  return ac;
}

void ExpectAttentionExact(const std::string& name, const simd::KernelTable& t,
                          const AttentionCase& ac) {
  SCOPED_TRACE(name + " batch=" + std::to_string(ac.batch) +
               " n=" + std::to_string(ac.n) +
               " steps=" + std::to_string(ac.steps));
  const simd::KernelTable& ref = Scalar();
  const int64_t out_n = ac.batch * ac.n * ac.steps;
  const int64_t ga_n = ac.batch * ac.n * ac.n;
  const int64_t gv_n = ga_n * ac.steps;
  GuardedRow want_o(out_n, kOutCanary), got_o(out_n, kOutCanary);
  ref.attention_combine(ac.a.data(), ac.v.data(), want_o.data(), ac.batch,
                        ac.n, ac.steps);
  t.attention_combine(ac.a.data(), ac.v.data(), got_o.data(), ac.batch, ac.n,
                      ac.steps);
  ExpectSameRow(want_o, got_o, out_n, "attention_combine");
  GuardedRow want_ga(ga_n, kOutCanary), got_ga(ga_n, kOutCanary);
  GuardedRow want_gv(gv_n, kOutCanary), got_gv(gv_n, kOutCanary);
  ref.attention_combine_vjp(ac.a.data(), ac.v.data(), ac.c.data(),
                            want_ga.data(), want_gv.data(), ac.batch, ac.n,
                            ac.steps);
  t.attention_combine_vjp(ac.a.data(), ac.v.data(), ac.c.data(),
                          got_ga.data(), got_gv.data(), ac.batch, ac.n,
                          ac.steps);
  ExpectSameRow(want_ga, got_ga, ga_n, "attention_combine_vjp ga");
  ExpectSameRow(want_gv, got_gv, gv_n, "attention_combine_vjp gv");
}

TEST_F(SimdKernelTest, AttentionCombineMatchesScalarExactly) {
  for (const auto& [name, table] : VectorTables()) {
    for (const bool specials : {false, true}) {
      for (int64_t steps = 1; steps <= kMaxN; ++steps) {
        for (const int64_t n : {1, 3, 4, 8, 9, 15, 16}) {
          ExpectAttentionExact(name, *table,
                               MakeAttentionCase(2, n, steps, specials));
        }
      }
      for (int64_t n = 1; n <= kMaxN; ++n) {
        for (const int64_t steps : {1, 4, 8, 15, 16}) {
          ExpectAttentionExact(name, *table,
                               MakeAttentionCase(1, n, steps, specials));
        }
      }
      ExpectAttentionExact(name, *table,
                           MakeAttentionCase(64, 4, 8, specials));  // cold
      ExpectAttentionExact(name, *table,
                           MakeAttentionCase(6, 15, 16, specials));  // stream
    }
  }
}

// The scalar entries keep the seed's AttentionCombine loops: outputs that
// start at zero, an axpy per nonzero weight in ascending j, and in the
// adjoint one pass over t per (b, i, j) adding into zeros.
TEST_F(SimdKernelTest, ScalarAttentionCombineMatchesTheSeedLoops) {
  for (const auto& [batch, n, steps] :
       std::vector<std::tuple<int64_t, int64_t, int64_t>>{
           {1, 1, 1}, {2, 3, 5}, {64, 4, 8}, {3, 15, 16}, {2, 9, 67}}) {
    for (const bool specials : {false, true}) {
      SCOPED_TRACE("batch=" + std::to_string(batch) + " n=" +
                   std::to_string(n) + " steps=" + std::to_string(steps));
      const AttentionCase ac = MakeAttentionCase(batch, n, steps, specials);
      std::vector<float> want_o(batch * n * steps, 0.0f);
      std::vector<float> want_ga(batch * n * n, 0.0f);
      std::vector<float> want_gv(batch * n * n * steps, 0.0f);
      for (int64_t b = 0; b < batch; ++b) {
        for (int64_t i = 0; i < n; ++i) {
          const float* crow = ac.c.data() + (b * n + i) * steps;
          float* orow = want_o.data() + (b * n + i) * steps;
          for (int64_t j = 0; j < n; ++j) {
            const float aw = ac.a[(b * n + i) * n + j];
            const float* vrow = ac.v.data() + ((b * n + j) * n + i) * steps;
            float* gvrow = want_gv.data() + ((b * n + j) * n + i) * steps;
            if (aw != 0.0f) {
              for (int64_t t = 0; t < steps; ++t) orow[t] += aw * vrow[t];
            }
            float acc = 0.0f;
            for (int64_t t = 0; t < steps; ++t) {
              acc += crow[t] * vrow[t];
              gvrow[t] += aw * crow[t];
            }
            want_ga[(b * n + i) * n + j] += acc;
          }
        }
      }
      std::vector<float> got_o(want_o.size()), got_ga(want_ga.size());
      std::vector<float> got_gv(want_gv.size());
      Scalar().attention_combine(ac.a.data(), ac.v.data(), got_o.data(),
                                 batch, n, steps);
      Scalar().attention_combine_vjp(ac.a.data(), ac.v.data(), ac.c.data(),
                                     got_ga.data(), got_gv.data(), batch, n,
                                     steps);
      for (size_t i = 0; i < want_o.size(); ++i) {
        ASSERT_TRUE(SameFloat(got_o[i], want_o[i])) << "o " << i;
      }
      for (size_t i = 0; i < want_ga.size(); ++i) {
        ASSERT_TRUE(SameFloat(got_ga[i], want_ga[i])) << "ga " << i;
      }
      for (size_t i = 0; i < want_gv.size(); ++i) {
        ASSERT_TRUE(SameFloat(got_gv[i], want_gv[i])) << "gv " << i;
      }
    }
  }
}

// ---- MatMul adjoint -------------------------------------------------------------

// dA = cot @ B^T against the dot form (one scalar dot per element, B's rows
// contiguous): the same bits under the scalar table, within the reduction
// tolerance under a vector table. `batched_b` gives every batch its own B.
void ExpectMatMulGradMatchesDotForm(bool batched_b, simd::IsaLevel level) {
  const int64_t batch = 3, m = 5, k = 19, n = 13;
  Rng rng(batched_b ? 11 : 7);
  Tensor a = Tensor::Randn(Shape{batch, m, k}, &rng, /*requires_grad=*/true);
  Tensor b = batched_b ? Tensor::Randn(Shape{batch, k, n}, &rng)
                       : Tensor::Randn(Shape{k, n}, &rng);
  Tensor cot = Tensor::Randn(Shape{batch, m, n}, &rng);

  simd::SetLevelForTesting(level);
  MatMul(a, b).Backward(cot);
  const Tensor ga = a.grad();
  ASSERT_TRUE(ga.defined());

  const simd::KernelTable& ref = Scalar();
  for (int64_t bi = 0; bi < batch; ++bi) {
    const float* bb = b.data() + (batched_b ? bi * k * n : 0);
    for (int64_t i = 0; i < m; ++i) {
      const float* crow = cot.data() + (bi * m + i) * n;
      for (int64_t j = 0; j < k; ++j) {
        const float want = ref.dot(crow, bb + j * n, n);
        const float got = ga.data()[(bi * m + i) * k + j];
        if (level == simd::IsaLevel::kScalar) {
          ASSERT_TRUE(SameFloat(got, want))
              << "dA[" << bi << "," << i << "," << j << "]";
        } else {
          double l1 = 0;
          for (int64_t jj = 0; jj < n; ++jj) {
            l1 += std::fabs(static_cast<double>(crow[jj]) * bb[j * n + jj]);
          }
          ExpectReduction(want, got, l1);
        }
      }
    }
  }
}

TEST_F(SimdKernelTest, MatMulGradOfAMatchesTheDotForm) {
  std::vector<simd::IsaLevel> levels = {simd::IsaLevel::kScalar};
  if (simd::TableForLevel(simd::IsaLevel::kAvx2) != nullptr) {
    levels.push_back(simd::IsaLevel::kAvx2);
  }
  for (const simd::IsaLevel level : levels) {
    for (const bool batched_b : {false, true}) {
      SCOPED_TRACE(std::string(simd::LevelName(level)) +
                   (batched_b ? " batched B" : " shared B"));
      ExpectMatMulGradMatchesDotForm(batched_b, level);
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
      if (n > 2) {
        ASSERT_EQ(got[n / 2], 0.0f);
      }
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

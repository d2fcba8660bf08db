#ifdef CF_HAVE_AVX2

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <type_traits>

#include "tensor/simd_tables.h"

// AVX2+FMA kernel table. This translation unit is compiled with
// -mavx2 -mfma -ffp-contract=off; the dispatcher only selects it after
// __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma").
//
// Contraction is disabled so the *scalar tail* loops here round exactly like
// the scalar reference table (separate multiply and add), keeping the exact
// elementwise kernels bit-identical across vector body and tail. Fused
// multiply-adds are used only through explicit intrinsics, and only inside
// the horizontal reductions whose reassociation tolerance is already
// documented in simd.h.

namespace causalformer {
namespace simd {
namespace {

inline float Hsum(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_add_ss(lo, _mm_shuffle_ps(lo, lo, 1));
  return _mm_cvtss_f32(lo);
}

inline float Hmax(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_max_ps(lo, hi);
  lo = _mm_max_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_max_ss(lo, _mm_shuffle_ps(lo, lo, 1));
  return _mm_cvtss_f32(lo);
}

// Cephes-style polynomial exp. Relative error <= ~4 ulp on the clamped
// range; inputs below kExpLoF (incl. -inf) flush to exactly 0, inputs above
// kExpHiF saturate to exp(kExpHiF). NaN propagates.
constexpr float kExpHiF = 88.3762626647949f;
constexpr float kExpLoF = -87.3365478515625f;
constexpr float kLog2eF = 1.44269504088896341f;
constexpr float kLn2HiF = 0.693359375f;
constexpr float kLn2LoF = -2.12194440e-4f;
constexpr float kExpC0 = 1.9875691500e-4f;
constexpr float kExpC1 = 1.3981999507e-3f;
constexpr float kExpC2 = 8.3334519073e-3f;
constexpr float kExpC3 = 4.1665795894e-2f;
constexpr float kExpC4 = 1.6666665459e-1f;
constexpr float kExpC5 = 5.0000001201e-1f;

inline __m256 ExpPs(__m256 x) {
  // Lanes below the cutoff (including -inf) become exactly 0 at the end.
  const __m256 flush = _mm256_cmp_ps(x, _mm256_set1_ps(kExpLoF), _CMP_LT_OQ);
  // Operand order keeps NaN lanes as NaN (min/max return the second operand
  // when either input is NaN).
  __m256 xc = _mm256_min_ps(_mm256_set1_ps(kExpHiF), x);
  xc = _mm256_max_ps(_mm256_set1_ps(kExpLoF), xc);

  const __m256 fx = _mm256_round_ps(
      _mm256_mul_ps(xc, _mm256_set1_ps(kLog2eF)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  // r = xc - fx * ln2, split into hi/lo parts for extra precision.
  __m256 r = _mm256_fnmadd_ps(fx, _mm256_set1_ps(kLn2HiF), xc);
  r = _mm256_fnmadd_ps(fx, _mm256_set1_ps(kLn2LoF), r);

  const __m256 r2 = _mm256_mul_ps(r, r);
  __m256 p = _mm256_set1_ps(kExpC0);
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpC1));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpC2));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpC3));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpC4));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpC5));
  p = _mm256_fmadd_ps(p, r2, r);
  p = _mm256_add_ps(p, _mm256_set1_ps(1.0f));

  // 2^fx via the exponent bits; fx is integral in [-126, 128] after clamping.
  __m256i n = _mm256_cvtps_epi32(fx);
  n = _mm256_slli_epi32(_mm256_add_epi32(n, _mm256_set1_epi32(0x7f)), 23);
  const __m256 result = _mm256_mul_ps(p, _mm256_castsi256_ps(n));
  return _mm256_andnot_ps(flush, result);
}

// Scalar replica of ExpPs for loop tails: identical operation sequence
// (std::fmaf mirrors the vector FMAs, nearbyintf mirrors round-to-nearest)
// so a row's tail elements match what a full vector lane would produce.
inline float ExpTail(float x) {
  if (x < kExpLoF) return 0.0f;  // incl. -inf; NaN falls through
  const float xc = x > kExpHiF ? kExpHiF : x;
  const float fx = std::nearbyintf(xc * kLog2eF);
  float r = std::fmaf(fx, -kLn2HiF, xc);
  r = std::fmaf(fx, -kLn2LoF, r);
  const float r2 = r * r;
  float p = kExpC0;
  p = std::fmaf(p, r, kExpC1);
  p = std::fmaf(p, r, kExpC2);
  p = std::fmaf(p, r, kExpC3);
  p = std::fmaf(p, r, kExpC4);
  p = std::fmaf(p, r, kExpC5);
  p = std::fmaf(p, r2, r);
  p += 1.0f;
  const int n = static_cast<int>(std::lrintf(fx));
  union {
    uint32_t bits;
    float value;
  } pow2;
  pow2.bits = static_cast<uint32_t>(n + 0x7f) << 23;
  return p * pow2.value;
}

// ---- Horizontal reductions ---------------------------------------------------

float Avx2Dot(const float* a, const float* b, int64_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps();
  __m256 acc3 = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
    acc2 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 16),
                           _mm256_loadu_ps(b + i + 16), acc2);
    acc3 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 24),
                           _mm256_loadu_ps(b + i + 24), acc3);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
  }
  float s = Hsum(_mm256_add_ps(_mm256_add_ps(acc0, acc1),
                               _mm256_add_ps(acc2, acc3)));
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

float Avx2Sum(const float* x, int64_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps();
  __m256 acc3 = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc0 = _mm256_add_ps(acc0, _mm256_loadu_ps(x + i));
    acc1 = _mm256_add_ps(acc1, _mm256_loadu_ps(x + i + 8));
    acc2 = _mm256_add_ps(acc2, _mm256_loadu_ps(x + i + 16));
    acc3 = _mm256_add_ps(acc3, _mm256_loadu_ps(x + i + 24));
  }
  for (; i + 8 <= n; i += 8) acc0 = _mm256_add_ps(acc0, _mm256_loadu_ps(x + i));
  float s = Hsum(_mm256_add_ps(_mm256_add_ps(acc0, acc1),
                               _mm256_add_ps(acc2, acc3)));
  for (; i < n; ++i) s += x[i];
  return s;
}

float Avx2Max(const float* x, int64_t n) {
  if (n < 8) {
    float m = x[0];
    for (int64_t i = 1; i < n; ++i) m = std::max(m, x[i]);
    return m;
  }
  // Four independent max chains: the order of a max changes no finite
  // result.
  __m256 m0 = _mm256_loadu_ps(x);
  __m256 m1 = m0;
  __m256 m2 = m0;
  __m256 m3 = m0;
  int64_t i = 8;
  for (; i + 32 <= n; i += 32) {
    m0 = _mm256_max_ps(m0, _mm256_loadu_ps(x + i));
    m1 = _mm256_max_ps(m1, _mm256_loadu_ps(x + i + 8));
    m2 = _mm256_max_ps(m2, _mm256_loadu_ps(x + i + 16));
    m3 = _mm256_max_ps(m3, _mm256_loadu_ps(x + i + 24));
  }
  for (; i + 8 <= n; i += 8) m0 = _mm256_max_ps(m0, _mm256_loadu_ps(x + i));
  float m = Hmax(_mm256_max_ps(_mm256_max_ps(m0, m1), _mm256_max_ps(m2, m3)));
  for (; i < n; ++i) m = std::max(m, x[i]);
  return m;
}

// ---- Fused accumulation ------------------------------------------------------

// Exact kernel: multiply and add round separately (matching the scalar
// reference), so no FMA here.
void Avx2Axpy(float alpha, const float* x, float* y, int64_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 prod = _mm256_mul_ps(va, _mm256_loadu_ps(x + i));
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), prod));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

float Avx2AxpyDot(float alpha, const float* c, float* y, const float* x,
                  int64_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  __m256 acc = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vc = _mm256_loadu_ps(c + i);
    const __m256 prod = _mm256_mul_ps(va, vc);
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), prod));
    acc = _mm256_fmadd_ps(vc, _mm256_loadu_ps(x + i), acc);
  }
  float s = Hsum(acc);
  for (; i < n; ++i) {
    y[i] += alpha * c[i];
    s += c[i] * x[i];
  }
  return s;
}

// ---- Elementwise (exact) -----------------------------------------------------

void Avx2Scale(float c, const float* x, float* o, int64_t n) {
  const __m256 vc = _mm256_set1_ps(c);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_mul_ps(vc, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) o[i] = c * x[i];
}

void Avx2AddScalar(float c, const float* x, float* o, int64_t n) {
  const __m256 vc = _mm256_set1_ps(c);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_add_ps(_mm256_loadu_ps(x + i), vc));
  }
  for (; i < n; ++i) o[i] = x[i] + c;
}

void Avx2Accumulate(float* dst, const float* src, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i,
                     _mm256_add_ps(_mm256_loadu_ps(dst + i),
                                   _mm256_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

void Avx2MaxInto(float* dst, const float* src, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i,
                     _mm256_max_ps(_mm256_loadu_ps(dst + i),
                                   _mm256_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] = std::max(dst[i], src[i]);
}

void Avx2FmaInto(float* dst, const float* a, const float* b, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 prod =
        _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i), prod));
  }
  for (; i < n; ++i) dst[i] += a[i] * b[i];
}

// Each repeat of b is one elementwise pass: the vector body, then the scalar
// tail.
template <typename VecOp, typename ScalarOp>
void TiledPasses(const float* a, const float* b, int64_t period, float* o,
                 int64_t n, VecOp vec_op, ScalarOp scalar_op) {
  for (int64_t off = 0; off < n; off += period) {
    const float* ar = a + off;
    float* orow = o + off;
    int64_t i = 0;
    for (; i + 8 <= period; i += 8) {
      _mm256_storeu_ps(
          orow + i, vec_op(_mm256_loadu_ps(ar + i), _mm256_loadu_ps(b + i)));
    }
    for (; i < period; ++i) orow[i] = scalar_op(ar[i], b[i]);
  }
}

void Avx2BinaryTiled(ArithOp op, const float* a, const float* b,
                     int64_t period, float* o, int64_t n) {
  switch (op) {
    case ArithOp::kAdd:
      TiledPasses(
          a, b, period, o, n,
          [](__m256 x, __m256 y) { return _mm256_add_ps(x, y); },
          [](float x, float y) { return x + y; });
      break;
    case ArithOp::kSub:
      TiledPasses(
          a, b, period, o, n,
          [](__m256 x, __m256 y) { return _mm256_sub_ps(x, y); },
          [](float x, float y) { return x - y; });
      break;
    case ArithOp::kMul:
      TiledPasses(
          a, b, period, o, n,
          [](__m256 x, __m256 y) { return _mm256_mul_ps(x, y); },
          [](float x, float y) { return x * y; });
      break;
    case ArithOp::kDiv:
      TiledPasses(
          a, b, period, o, n,
          [](__m256 x, __m256 y) { return _mm256_div_ps(x, y); },
          [](float x, float y) { return x / y; });
      break;
  }
}

// A compare and a blend instead of a branch per element: x > 0 is false for
// NaN, so a NaN takes the slope product, as in the scalar form.
void Avx2LeakyRelu(float slope, const float* x, float* o, int64_t n) {
  const __m256 vs = _mm256_set1_ps(slope);
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 xv = _mm256_loadu_ps(x + i);
    const __m256 pos = _mm256_cmp_ps(xv, zero, _CMP_GT_OQ);
    _mm256_storeu_ps(o + i, _mm256_blendv_ps(_mm256_mul_ps(vs, xv), xv, pos));
  }
  for (; i < n; ++i) o[i] = x[i] > 0.0f ? x[i] : slope * x[i];
}

void Avx2LeakyReluVjp(float slope, const float* x, const float* c, float* g,
                      int64_t n) {
  const __m256 vs = _mm256_set1_ps(slope);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 pos = _mm256_cmp_ps(_mm256_loadu_ps(x + i), zero, _CMP_GT_OQ);
    _mm256_storeu_ps(g + i, _mm256_mul_ps(_mm256_blendv_ps(vs, one, pos),
                                          _mm256_loadu_ps(c + i)));
  }
  for (; i < n; ++i) g[i] = (x[i] > 0.0f ? 1.0f : slope) * c[i];
}

// ---- Softmax rows ------------------------------------------------------------

float Avx2ExpShiftSum(const float* x, float shift, float* o, int64_t n) {
  const __m256 vs = _mm256_set1_ps(shift);
  __m256 acc = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 e = ExpPs(_mm256_sub_ps(_mm256_loadu_ps(x + i), vs));
    _mm256_storeu_ps(o + i, e);
    acc = _mm256_add_ps(acc, e);
  }
  float s = Hsum(acc);
  for (; i < n; ++i) {
    const float e = ExpTail(x[i] - shift);
    o[i] = e;
    s += e;
  }
  return s;
}

void Avx2ExpSub(const float* x, const float* m, float* o, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        o + i,
        ExpPs(_mm256_sub_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(m + i))));
  }
  for (; i < n; ++i) o[i] = ExpTail(x[i] - m[i]);
}

void Avx2MulSub(const float* y, const float* c, const float* d, float* g,
                int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        g + i,
        _mm256_mul_ps(_mm256_loadu_ps(y + i),
                      _mm256_sub_ps(_mm256_loadu_ps(c + i),
                                    _mm256_loadu_ps(d + i))));
  }
  for (; i < n; ++i) g[i] = y[i] * (c[i] - d[i]);
}

void Avx2MulSubScalar(const float* y, const float* c, float d, float* g,
                      int64_t n) {
  const __m256 vd = _mm256_set1_ps(d);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(g + i,
                     _mm256_mul_ps(_mm256_loadu_ps(y + i),
                                   _mm256_sub_ps(_mm256_loadu_ps(c + i), vd)));
  }
  for (; i < n; ++i) g[i] = y[i] * (c[i] - d);
}

// One row as the contiguous softmax computed it: Avx2Max, Avx2ExpShiftSum,
// then Avx2Scale by 1/sum; a degenerate row becomes uniform.
void SoftmaxRow(const float* x, float* o, int64_t len) {
  const float max_v = Avx2Max(x, len);
  float sum = 0.0f;
  if (std::isfinite(max_v)) sum = Avx2ExpShiftSum(x, max_v, o, len);
  if (DegenerateSoftmaxRow(max_v, sum)) {
    const float uniform = 1.0f / static_cast<float>(len);
    for (int64_t l = 0; l < len; ++l) o[l] = uniform;
    return;
  }
  Avx2Scale(1.0f / sum, o, o, len);
}

// v is finite (not +-inf, not NaN), lane by lane.
inline __m256 FiniteLanes(__m256 v) {
  const __m256 abs = _mm256_and_ps(
      v, _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff)));
  return _mm256_cmp_ps(abs, _mm256_set1_ps(INFINITY), _CMP_LT_OQ);
}

// Eight rows of length len < 8, one per lane. A row that short runs all of
// SoftmaxRow in scalar code: the max from x[0] up (max_ps(x, m) is
// std::max(m, x), NaN and signed zeros included), ExpTail per element (which
// ExpPs equals lane for lane), the sum in ascending order from +0, then the
// 1/sum scale. Lanes keep exactly that; `ok` is DegenerateSoftmaxRow's
// negation in mask form.
void SoftmaxShortRowsInLanes(const float* x, float* o, int64_t len) {
  const __m256i rows = _mm256_mullo_epi32(
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
      _mm256_set1_epi32(static_cast<int32_t>(len)));
  __m256 e[7];
  e[0] = _mm256_i32gather_ps(x, rows, 4);
  __m256 m = e[0];
  for (int64_t l = 1; l < len; ++l) {
    e[l] = _mm256_i32gather_ps(x + l, rows, 4);
    m = _mm256_max_ps(e[l], m);
  }
  __m256 sum = _mm256_setzero_ps();
  for (int64_t l = 0; l < len; ++l) {
    e[l] = ExpPs(_mm256_sub_ps(e[l], m));
    sum = _mm256_add_ps(sum, e[l]);
  }
  const __m256 ok = _mm256_and_ps(
      _mm256_and_ps(FiniteLanes(m), FiniteLanes(sum)),
      _mm256_cmp_ps(sum, _mm256_setzero_ps(), _CMP_NEQ_OQ));
  const __m256 inv = _mm256_div_ps(_mm256_set1_ps(1.0f), sum);
  const __m256 uniform = _mm256_set1_ps(1.0f / static_cast<float>(len));
  alignas(32) float out[7][8];
  for (int64_t l = 0; l < len; ++l) {
    _mm256_store_ps(out[l],
                    _mm256_blendv_ps(uniform, _mm256_mul_ps(inv, e[l]), ok));
  }
  for (int64_t r = 0; r < 8; ++r) {
    for (int64_t l = 0; l < len; ++l) o[r * len + l] = out[l][r];
  }
}

void Avx2SoftmaxRows(const float* x, float* o, int64_t rows, int64_t len) {
  int64_t r = 0;
  if (len < 8) {
    for (; r + 8 <= rows; r += 8) {
      SoftmaxShortRowsInLanes(x + r * len, o + r * len, len);
    }
  }
  for (; r < rows; ++r) SoftmaxRow(x + r * len, o + r * len, len);
}

// ---- Relevance propagation ---------------------------------------------------

void Avx2StabRatio(const float* r, const float* f, float eps, float* o,
                   int64_t n) {
  const __m256 vpos = _mm256_set1_ps(eps);
  const __m256 vneg = _mm256_set1_ps(-eps);
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vf = _mm256_loadu_ps(f + i);
    // f >= 0 ? +eps : -eps, matching the scalar comparison exactly (incl. the
    // -0.0f >= 0.0f == true case a sign-bit trick would get wrong).
    const __m256 ge = _mm256_cmp_ps(vf, zero, _CMP_GE_OQ);
    const __m256 ve = _mm256_blendv_ps(vneg, vpos, ge);
    _mm256_storeu_ps(
        o + i, _mm256_div_ps(_mm256_loadu_ps(r + i), _mm256_add_ps(vf, ve)));
  }
  for (; i < n; ++i) o[i] = r[i] / (f[i] + (f[i] >= 0.0f ? eps : -eps));
}

// ---- Matmul rows -------------------------------------------------------------
//
// Up to four rows run per pass, so their short FMA chains overlap. Every
// element keeps a one-row call's arithmetic: columns in 8-wide blocks are one
// FMA chain over ascending k from +0; the n mod 8 tail columns are a multiply
// then an add per term from +0, four at a time in 128-bit lanes, then one at
// a time.

// Columns [j, j + 8 * kVecs) of kRows rows.
template <int kRows, int kVecs>
inline void GemmFmaTile(const float* a, int64_t a_row_step, int64_t a_stride,
                        const float* b, float* c, int64_t k, int64_t n,
                        int64_t j) {
  __m256 acc[kRows][kVecs];
  for (int r = 0; r < kRows; ++r) {
    for (int v = 0; v < kVecs; ++v) acc[r][v] = _mm256_setzero_ps();
  }
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* brow = b + kk * n + j;
    __m256 bv[kVecs];
    for (int v = 0; v < kVecs; ++v) bv[v] = _mm256_loadu_ps(brow + 8 * v);
    for (int r = 0; r < kRows; ++r) {
      const __m256 av = _mm256_set1_ps(a[r * a_row_step + kk * a_stride]);
      for (int v = 0; v < kVecs; ++v) {
        acc[r][v] = _mm256_fmadd_ps(av, bv[v], acc[r][v]);
      }
    }
  }
  for (int r = 0; r < kRows; ++r) {
    for (int v = 0; v < kVecs; ++v) {
      _mm256_storeu_ps(c + r * n + j + 8 * v, acc[r][v]);
    }
  }
}

// Columns [j, j + 4) of kRows rows, multiply then add.
template <int kRows>
inline void GemmMulAddTile4(const float* a, int64_t a_row_step,
                            int64_t a_stride, const float* b, float* c,
                            int64_t k, int64_t n, int64_t j) {
  __m128 acc[kRows];
  for (int r = 0; r < kRows; ++r) acc[r] = _mm_setzero_ps();
  for (int64_t kk = 0; kk < k; ++kk) {
    const __m128 bv = _mm_loadu_ps(b + kk * n + j);
    for (int r = 0; r < kRows; ++r) {
      const __m128 av = _mm_set1_ps(a[r * a_row_step + kk * a_stride]);
      acc[r] = _mm_add_ps(acc[r], _mm_mul_ps(av, bv));
    }
  }
  for (int r = 0; r < kRows; ++r) _mm_storeu_ps(c + r * n + j, acc[r]);
}

// Column j of kRows rows, multiply then add.
template <int kRows>
inline void GemmMulAddColumn(const float* a, int64_t a_row_step,
                             int64_t a_stride, const float* b, float* c,
                             int64_t k, int64_t n, int64_t j) {
  float acc[kRows] = {};
  for (int64_t kk = 0; kk < k; ++kk) {
    const float bv = b[kk * n + j];
    for (int r = 0; r < kRows; ++r) {
      acc[r] += a[r * a_row_step + kk * a_stride] * bv;
    }
  }
  for (int r = 0; r < kRows; ++r) c[r * n + j] = acc[r];
}

template <int kRows>
void GemmRowBlock(const float* a, int64_t a_row_step, int64_t a_stride,
                  const float* b, float* c, int64_t k, int64_t n) {
  int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    GemmFmaTile<kRows, 2>(a, a_row_step, a_stride, b, c, k, n, j);
  }
  if (j + 8 <= n) {
    GemmFmaTile<kRows, 1>(a, a_row_step, a_stride, b, c, k, n, j);
    j += 8;
  }
  if (j + 4 <= n) {
    GemmMulAddTile4<kRows>(a, a_row_step, a_stride, b, c, k, n, j);
    j += 4;
  }
  for (; j < n; ++j) {
    GemmMulAddColumn<kRows>(a, a_row_step, a_stride, b, c, k, n, j);
  }
}

// Pinned to a 64-byte boundary so that edits elsewhere in this file cannot
// shift its inner loops across cache lines: one such shift cost matmul_128
// about 4% in bench_perf_micro with the code unchanged.
__attribute__((aligned(64))) void Avx2GemmRows(
    const float* a, int64_t a_row_step, int64_t a_stride, const float* b,
    float* c, int64_t rows, int64_t k, int64_t n) {
  int64_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    GemmRowBlock<4>(a + r * a_row_step, a_row_step, a_stride, b, c + r * n,
                    k, n);
  }
  const float* ar = a + r * a_row_step;
  float* cr = c + r * n;
  switch (rows - r) {
    case 3:
      GemmRowBlock<3>(ar, a_row_step, a_stride, b, cr, k, n);
      break;
    case 2:
      GemmRowBlock<2>(ar, a_row_step, a_stride, b, cr, k, n);
      break;
    case 1:
      GemmRowBlock<1>(ar, a_row_step, a_stride, b, cr, k, n);
      break;
    default:
      break;
  }
}

void Avx2GemmRow(const float* a, int64_t a_stride, const float* b,
                 float* crow, int64_t k, int64_t n) {
  Avx2GemmRows(a, 0, a_stride, b, crow, 1, k, n);
}

// ---- Causal convolution rows -------------------------------------------------
//
// Exact kernels. Lane l of an 8-step chunk holds one output element and adds
// that element's terms in the scalar reference's order, each a separate
// multiply and add. A lane outside a term's support adds -0, the additive
// identity (v + -0 == v for every v, -0 and NaN included), and masked loads
// and stores touch nothing outside the row. Up to four chunks run
// interleaved, so the serial add chains of a long row overlap.

alignas(32) constexpr int32_t kLaneTable[24] = {
    0,  0,  0,  0,  0,  0,  0,  0,  -1, -1, -1, -1,
    -1, -1, -1, -1, 0,  0,  0,  0,  0,  0,  0,  0};

// Lanes lo <= l < hi set (0 <= lo <= 8, 0 <= hi <= 8).
inline __m256i LaneRange(int64_t lo, int64_t hi) {
  const __m256i from = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kLaneTable + 8 - lo));
  const __m256i below = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kLaneTable + 16 - hi));
  return _mm256_and_si256(from, below);
}

// The address of row[off]. `off` may lie before the row when the lanes that
// would read or write there are masked off, so no pointer arithmetic leaves
// the row.
inline float* LaneAddress(const float* row, int64_t off) {
  return reinterpret_cast<float*>(reinterpret_cast<uintptr_t>(row) +
                                  static_cast<uintptr_t>(off) * sizeof(float));
}

inline __m256 LoadLanes(const float* row, int64_t off, __m256i mask) {
  return _mm256_maskload_ps(LaneAddress(row, off), mask);
}

inline void StoreLanes(float* row, int64_t off, __m256i mask, __m256 v) {
  _mm256_maskstore_ps(LaneAddress(row, off), mask, v);
}

// row[off + l] for lo <= l < hi, 0 elsewhere; a plain load when all 8 lanes
// are live.
inline __m256 LoadRange(const float* row, int64_t off, int64_t lo,
                        int64_t hi) {
  return lo == 0 && hi == 8 ? _mm256_loadu_ps(row + off)
                            : LoadLanes(row, off, LaneRange(lo, hi));
}

// row[off + l] = v[l] for lo <= l < hi.
inline void StoreRange(float* row, int64_t off, int64_t lo, int64_t hi,
                       __m256 v) {
  if (lo == 0 && hi == 8) {
    _mm256_storeu_ps(row + off, v);
  } else {
    StoreLanes(row, off, LaneRange(lo, hi), v);
  }
}

// acc[l] + v[l] * row[off + l] for lo <= l < hi; acc[l] + -0 (that is,
// acc[l]) on the other lanes.
inline __m256 MulAddRange(__m256 acc, __m256 v, const float* row, int64_t off,
                          int64_t lo, int64_t hi) {
  if (lo == 0 && hi == 8) {
    return _mm256_add_ps(acc, _mm256_mul_ps(v, _mm256_loadu_ps(row + off)));
  }
  if (lo >= hi) return acc;
  const __m256i m = LaneRange(lo, hi);
  const __m256 prod = _mm256_mul_ps(v, LoadLanes(row, off, m));
  return _mm256_add_ps(acc, _mm256_blendv_ps(_mm256_set1_ps(-0.0f), prod,
                                             _mm256_castsi256_ps(m)));
}

// float(t + 1 + l) in lane l.
inline __m256 StepCounts(int64_t t) {
  return _mm256_cvtepi32_ps(
      _mm256_add_epi32(_mm256_set1_epi32(static_cast<int32_t>(t)),
                       _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 8)));
}

// Calls group(std::integral_constant<int, kChunks>(), start) for each run
// of up to four 8-step chunks of a `steps`-long row.
template <typename Group>
void ForEachChunkGroup(int64_t steps, const Group& group) {
  for (int64_t start = 0; start < steps; start += 32) {
    switch ((std::min<int64_t>(32, steps - start) + 7) / 8) {
      case 1:
        group(std::integral_constant<int, 1>(), start);
        break;
      case 2:
        group(std::integral_constant<int, 2>(), start);
        break;
      case 3:
        group(std::integral_constant<int, 3>(), start);
        break;
      default:
        group(std::integral_constant<int, 4>(), start);
        break;
    }
  }
}

// Output steps t0 .. t0 + 8*kChunks - 1 (those below `steps`) of a conv row.
// Lane t adds k[steps-1-s] * x[t-s] for s = t, t-1, ..., 0, which is the
// scalar dot's ascending tau = t - s.
template <int kChunks>
void ConvRowChunks(const float* k, const float* x, float* o, int64_t steps,
                   int64_t t0) {
  __m256 acc[kChunks];
  for (int c = 0; c < kChunks; ++c) acc[c] = _mm256_setzero_ps();
  const int64_t live = std::min<int64_t>(8 * kChunks, steps - t0);
  // Any lag: lanes with t - s < 0 (no term yet) or t >= steps are masked.
  const auto masked_term = [&](int64_t s) {
    const __m256 kv = _mm256_set1_ps(k[steps - 1 - s]);
    for (int c = 0; c < kChunks; ++c) {
      const int64_t off = t0 + 8 * c - s;  // x index of lane 0
      acc[c] = MulAddRange(acc[c], kv, x, off, std::max<int64_t>(0, -off),
                           std::min<int64_t>(8, live - 8 * c));
    }
  };
  for (int64_t s = t0 + live - 1; s > t0; --s) masked_term(s);
  if (live == 8 * kChunks) {
    // Lags t0 .. 0 of full chunks: every lane has a term.
    for (int64_t s = t0; s >= 0; --s) {
      const __m256 kv = _mm256_set1_ps(k[steps - 1 - s]);
      const float* xs = x + t0 - s;
      for (int c = 0; c < kChunks; ++c) {
        acc[c] = _mm256_add_ps(acc[c],
                               _mm256_mul_ps(kv, _mm256_loadu_ps(xs + 8 * c)));
      }
    }
  } else {
    for (int64_t s = t0; s >= 0; --s) masked_term(s);
  }
  for (int c = 0; c < kChunks; ++c) {
    const int64_t tc = t0 + 8 * c;
    StoreRange(o, tc, 0, std::min<int64_t>(8, steps - tc),
               _mm256_div_ps(acc[c], StepCounts(tc)));
  }
}

// The two conv entries are pinned to 64-byte boundaries, like Avx2GemmRows:
// an edit elsewhere in this file that moved Avx2ConvRowVjp, its code
// unchanged, from a 64-byte boundary to 16 bytes past one cost
// causal_conv_backward about 5% in bench_perf_micro.
__attribute__((aligned(64))) void Avx2ConvRow(const float* k, const float* x,
                                              float* o, int64_t steps) {
  ForEachChunkGroup(steps, [&](auto chunks, int64_t t0) {
    ConvRowChunks<decltype(chunks)::value>(k, x, o, steps, t0);
  });
}

// The adjoint over gx steps tau0 .. tau0 + 8*kChunks - 1 and their mirror gk
// taps: chunk c pairs gx[tc, tc+8) (tc = tau0 + 8c) with gk[steps-8-tc,
// steps-tc), and both take terms from t >= tc only. Each lane adds its terms
// in ascending t, as the scalar axpys do.
template <int kChunks, bool kGx, bool kGk>
void ConvRowVjpChunks(const float* k, const float* x, const float* c,
                      float* gx, float* gk, int64_t steps, int64_t tau0) {
  __m256 ax[kChunks];
  __m256 ak[kChunks];
  for (int ch = 0; ch < kChunks; ++ch) {
    const int64_t tc = tau0 + 8 * ch;
    if constexpr (kGx) {
      ax[ch] = LoadRange(gx, tc, 0, std::min<int64_t>(8, steps - tc));
    }
    if constexpr (kGk) {
      ak[ch] = LoadRange(gk, steps - 8 - tc,
                         std::max<int64_t>(0, tc + 8 - steps), 8);
    }
  }
  // Any step: lanes outside the row or before their first term are masked.
  const auto masked_term = [&](int64_t t, __m256 cs) {
    for (int ch = 0; ch < kChunks; ++ch) {
      const int64_t tc = tau0 + 8 * ch;
      if (t < tc) break;  // later chunks start later still
      if constexpr (kGx) {
        // Lane l (tau = tc + l) takes cs * k[steps-1-t+tau] while tau <= t.
        ax[ch] = MulAddRange(ax[ch], cs, k, steps - 1 - t + tc, 0,
                             std::min<int64_t>({8, t - tc + 1, steps - tc}));
      }
      if constexpr (kGk) {
        // Lane l (tap steps-8-tc+l) takes cs * x[t-tc-7+l] once that index
        // reaches 0, on taps inside the row.
        const int64_t off = t - tc - 7;
        ak[ch] = MulAddRange(ak[ch], cs, x, off,
                             std::max<int64_t>({0, -off, tc + 8 - steps}), 8);
      }
    }
  };
  // From this step on every lane of every chunk has a term (the chunks are
  // then all full: a partial chunk's group ends before it).
  const int64_t full_from = tau0 + 8 * kChunks - 1;
  alignas(32) float cs8[8];
  for (int64_t tb = tau0; tb < steps; tb += 8) {
    // cs[tb, tb+8) = c / (tb+1, ...): the scalar divide, lane by lane.
    const int64_t n = std::min<int64_t>(8, steps - tb);
    _mm256_store_ps(cs8,
                    _mm256_div_ps(LoadRange(c, tb, 0, n), StepCounts(tb)));
    for (int64_t u = 0; u < n; ++u) {
      if (cs8[u] == 0.0f) continue;
      const __m256 cs = _mm256_set1_ps(cs8[u]);
      const int64_t t = tb + u;
      if (t < full_from) {
        masked_term(t, cs);
        continue;
      }
      const float* kt = k + steps - 1 - t + tau0;
      const float* xt = x + t - tau0 - 7;
      for (int ch = 0; ch < kChunks; ++ch) {
        if constexpr (kGx) {
          ax[ch] = _mm256_add_ps(
              ax[ch], _mm256_mul_ps(cs, _mm256_loadu_ps(kt + 8 * ch)));
        }
        if constexpr (kGk) {
          ak[ch] = _mm256_add_ps(
              ak[ch], _mm256_mul_ps(cs, _mm256_loadu_ps(xt - 8 * ch)));
        }
      }
    }
  }
  for (int ch = 0; ch < kChunks; ++ch) {
    const int64_t tc = tau0 + 8 * ch;
    if constexpr (kGx) {
      StoreRange(gx, tc, 0, std::min<int64_t>(8, steps - tc), ax[ch]);
    }
    if constexpr (kGk) {
      StoreRange(gk, steps - 8 - tc, std::max<int64_t>(0, tc + 8 - steps), 8,
                 ak[ch]);
    }
  }
}

template <bool kGx, bool kGk>
void ConvRowVjpHalves(const float* k, const float* x, const float* c,
                      float* gx, float* gk, int64_t steps) {
  ForEachChunkGroup(steps, [&](auto chunks, int64_t tau0) {
    ConvRowVjpChunks<decltype(chunks)::value, kGx, kGk>(k, x, c, gx, gk,
                                                         steps, tau0);
  });
}

__attribute__((aligned(64))) void Avx2ConvRowVjp(const float* k,
                                                 const float* x,
                                                 const float* c, float* gx,
                                                 float* gk, int64_t steps) {
  if (gx != nullptr && gk != nullptr) {
    ConvRowVjpHalves<true, true>(k, x, c, gx, gk, steps);
  } else if (gx != nullptr) {
    ConvRowVjpHalves<true, false>(k, x, c, gx, gk, steps);
  } else if (gk != nullptr) {
    ConvRowVjpHalves<false, true>(k, x, c, gx, gk, steps);
  }
}

// ---- Attention combine -------------------------------------------------------
//
// Exact kernels. The forward runs lanes across t, and each lane adds its
// terms in ascending j as the scalar loop does. In the adjoint, gv runs lanes
// across t. ga runs lanes across eight j at a time: the products c * v are
// taken across t, an 8 x 8 transpose turns them to lanes across j, and each
// lane then adds its t terms in ascending order.

// r[i][l] -> r[l][i].
inline void Transpose8x8(__m256 r[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
  const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
  const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
  const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
  const __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  r[0] = _mm256_permute2f128_ps(s0, s4, 0x20);
  r[1] = _mm256_permute2f128_ps(s1, s5, 0x20);
  r[2] = _mm256_permute2f128_ps(s2, s6, 0x20);
  r[3] = _mm256_permute2f128_ps(s3, s7, 0x20);
  r[4] = _mm256_permute2f128_ps(s0, s4, 0x31);
  r[5] = _mm256_permute2f128_ps(s1, s5, 0x31);
  r[6] = _mm256_permute2f128_ps(s2, s6, 0x31);
  r[7] = _mm256_permute2f128_ps(s3, s7, 0x31);
}

void Avx2AttentionCombine(const float* a, const float* v, float* o,
                          int64_t batch, int64_t n, int64_t steps) {
  const int64_t j_stride = n * steps;  // v[b, j, i, :] to v[b, j+1, i, :]
  for (int64_t bi = 0; bi < batch * n; ++bi) {
    const float* arow = a + bi * n;
    const float* vi = v + ((bi / n) * n * n + bi % n) * steps;
    float* orow = o + bi * steps;
    for (int64_t t0 = 0; t0 < steps; t0 += 8) {
      const int64_t live = std::min<int64_t>(8, steps - t0);
      __m256 acc = _mm256_setzero_ps();
      for (int64_t j = 0; j < n; ++j) {
        if (arow[j] == 0.0f) continue;
        acc = _mm256_add_ps(
            acc, _mm256_mul_ps(_mm256_set1_ps(arow[j]),
                               LoadRange(vi + j * j_stride, t0, 0, live)));
      }
      StoreRange(orow, t0, 0, live, acc);
    }
  }
}

void Avx2AttentionCombineVjp(const float* a, const float* v, const float* c,
                             float* ga, float* gv, int64_t batch, int64_t n,
                             int64_t steps) {
  const int64_t j_stride = n * steps;
  const __m256 zero = _mm256_setzero_ps();
  for (int64_t bi = 0; bi < batch * n; ++bi) {
    const float* arow = a + bi * n;
    const float* crow = c + bi * steps;
    const int64_t vi = ((bi / n) * n * n + bi % n) * steps;
    for (int64_t j = 0; j < n; ++j) {
      const __m256 aw = _mm256_set1_ps(arow[j]);
      for (int64_t t0 = 0; t0 < steps; t0 += 8) {
        const int64_t live = std::min<int64_t>(8, steps - t0);
        const __m256 prod = _mm256_mul_ps(aw, LoadRange(crow, t0, 0, live));
        StoreRange(gv + vi + j * j_stride, t0, 0, live,
                   _mm256_add_ps(zero, prod));
      }
    }
    for (int64_t j0 = 0; j0 < n; j0 += 8) {
      const int64_t lanes = std::min<int64_t>(8, n - j0);
      __m256 acc = zero;
      for (int64_t t0 = 0; t0 < steps; t0 += 8) {
        const int64_t live = std::min<int64_t>(8, steps - t0);
        const __m256 cv = LoadRange(crow, t0, 0, live);
        __m256 p[8];
        for (int64_t l = 0; l < 8; ++l) {
          p[l] = zero;
          if (l < lanes) {
            const float* vrow = v + vi + (j0 + l) * j_stride;
            p[l] = _mm256_mul_ps(cv, LoadRange(vrow, t0, 0, live));
          }
        }
        Transpose8x8(p);
        for (int64_t u = 0; u < live; ++u) acc = _mm256_add_ps(acc, p[u]);
      }
      StoreRange(ga + bi * n, j0, 0, lanes, _mm256_add_ps(zero, acc));
    }
  }
}

}  // namespace

const KernelTable& Avx2KernelTable() {
  static const KernelTable table = {
      Avx2Dot,          Avx2Sum,
      Avx2Max,          Avx2Axpy,
      Avx2AxpyDot,      Avx2Scale,
      Avx2AddScalar,    Avx2Accumulate,
      Avx2MaxInto,      Avx2FmaInto,
      Avx2BinaryTiled,  Avx2LeakyRelu,
      Avx2LeakyReluVjp, Avx2ExpShiftSum,
      Avx2ExpSub,       Avx2MulSub,
      Avx2MulSubScalar, Avx2SoftmaxRows,
      Avx2StabRatio,    Avx2GemmRows,
      Avx2GemmRow,      Avx2ConvRow,
      Avx2ConvRowVjp,   Avx2AttentionCombine,
      Avx2AttentionCombineVjp,
  };
  return table;
}

}  // namespace simd
}  // namespace causalformer

#endif  // CF_HAVE_AVX2

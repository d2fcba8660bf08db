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
  __m256 mv = _mm256_loadu_ps(x);
  int64_t i = 8;
  for (; i + 8 <= n; i += 8) mv = _mm256_max_ps(mv, _mm256_loadu_ps(x + i));
  float m = Hmax(mv);
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

void Avx2Add(const float* a, const float* b, float* o, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i,
                     _mm256_add_ps(_mm256_loadu_ps(a + i),
                                   _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) o[i] = a[i] + b[i];
}

void Avx2Sub(const float* a, const float* b, float* o, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i,
                     _mm256_sub_ps(_mm256_loadu_ps(a + i),
                                   _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) o[i] = a[i] - b[i];
}

void Avx2Mul(const float* a, const float* b, float* o, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i,
                     _mm256_mul_ps(_mm256_loadu_ps(a + i),
                                   _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) o[i] = a[i] * b[i];
}

void Avx2Div(const float* a, const float* b, float* o, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i,
                     _mm256_div_ps(_mm256_loadu_ps(a + i),
                                   _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) o[i] = a[i] / b[i];
}

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

// ---- Matmul row --------------------------------------------------------------

// Pinned to a 64-byte boundary so that edits elsewhere in this file cannot
// shift its inner loops across cache lines: one such shift cost matmul_128
// about 4% in bench_perf_micro with the code unchanged.
__attribute__((aligned(64))) void Avx2GemmRow(const float* a, int64_t a_stride,
                                              const float* b, float* crow,
                                              int64_t k, int64_t n) {
  int64_t j = 0;
  for (; j + 32 <= n; j += 32) {
    __m256 c0 = _mm256_setzero_ps();
    __m256 c1 = _mm256_setzero_ps();
    __m256 c2 = _mm256_setzero_ps();
    __m256 c3 = _mm256_setzero_ps();
    for (int64_t kk = 0; kk < k; ++kk) {
      const __m256 av = _mm256_set1_ps(a[kk * a_stride]);
      const float* brow = b + kk * n + j;
      c0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow), c0);
      c1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 8), c1);
      c2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 16), c2);
      c3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 24), c3);
    }
    _mm256_storeu_ps(crow + j, c0);
    _mm256_storeu_ps(crow + j + 8, c1);
    _mm256_storeu_ps(crow + j + 16, c2);
    _mm256_storeu_ps(crow + j + 24, c3);
  }
  for (; j + 8 <= n; j += 8) {
    __m256 c0 = _mm256_setzero_ps();
    for (int64_t kk = 0; kk < k; ++kk) {
      c0 = _mm256_fmadd_ps(_mm256_set1_ps(a[kk * a_stride]),
                           _mm256_loadu_ps(b + kk * n + j), c0);
    }
    _mm256_storeu_ps(crow + j, c0);
  }
  for (; j < n; ++j) {
    float acc = 0.0f;
    for (int64_t kk = 0; kk < k; ++kk) acc += a[kk * a_stride] * b[kk * n + j];
    crow[j] = acc;
  }
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

void Avx2ConvRow(const float* k, const float* x, float* o, int64_t steps) {
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

void Avx2ConvRowVjp(const float* k, const float* x, const float* c, float* gx,
                    float* gk, int64_t steps) {
  if (gx != nullptr && gk != nullptr) {
    ConvRowVjpHalves<true, true>(k, x, c, gx, gk, steps);
  } else if (gx != nullptr) {
    ConvRowVjpHalves<true, false>(k, x, c, gx, gk, steps);
  } else if (gk != nullptr) {
    ConvRowVjpHalves<false, true>(k, x, c, gx, gk, steps);
  }
}

}  // namespace

const KernelTable& Avx2KernelTable() {
  static const KernelTable table = {
      Avx2Dot,       Avx2Sum,         Avx2Max,
      Avx2Axpy,      Avx2AxpyDot,     Avx2Add,
      Avx2Sub,       Avx2Mul,         Avx2Div,
      Avx2Scale,     Avx2AddScalar,   Avx2Accumulate,
      Avx2MaxInto,   Avx2FmaInto,     Avx2ExpShiftSum,
      Avx2ExpSub,    Avx2MulSub,      Avx2MulSubScalar,
      Avx2StabRatio, Avx2GemmRow,     Avx2ConvRow,
      Avx2ConvRowVjp,
  };
  return table;
}

}  // namespace simd
}  // namespace causalformer

#endif  // CF_HAVE_AVX2

#ifndef CAUSALFORMER_TENSOR_SIMD_H_
#define CAUSALFORMER_TENSOR_SIMD_H_

#include <cmath>
#include <cstdint>

/// \file
/// Runtime-dispatched vector kernels for the tensor hot loops.
///
/// Every primitive exists in a scalar reference form (bit-identical to the
/// original hand-written loops — the contract the ScoreCache and in-flight
/// dedup rely on) and, when the build and the CPU allow, in a vectorized form
/// (AVX2+FMA on x86-64). The active implementation is picked once at
/// startup:
///
///   * compile-time: the CMake option CF_SIMD=auto|avx2|off decides which
///     backends are built (the `off` build, and `auto` on anything but
///     x86-64, contains only the scalar table);
///   * runtime: the best built backend the CPU actually supports wins, and
///     the CF_SIMD environment variable (`off`/`scalar`, `avx2`, `auto`) can
///     force a lower level without rebuilding.
///
/// Numerics contract: vectorized kernels are bit-identical to the scalar
/// reference for order-independent operations (elementwise arithmetic,
/// accumulation, max, the leaky ReLU and its adjoint) and for the rows whose
/// lanes each add their terms in the scalar order: the causal-conv rows and
/// the attention combine and its adjoint. Horizontal reductions (dot/sum
/// reassociate into lane partials), the matmul rows (one fused multiply-add
/// per term on 8-column blocks) and the polynomial exp (|rel err| <= ~4 ulp;
/// inputs below -87.33 flush to exactly 0) carry a small documented
/// tolerance; the entries built from them (gemm_rows, softmax_rows) equal
/// the row-at-a-time form of their own table bit for bit, so batching rows
/// into one call never moves a result. The scalar table preserves the seed
/// kernels' exact accumulation order, so a CF_SIMD=off build reproduces
/// pre-SIMD detector outputs bit-for-bit. tests/simd_kernel_test.cc sweeps
/// every kernel over sizes 1..67 against the scalar reference so unaligned
/// tails can never silently diverge.

namespace causalformer {
namespace simd {

/// Instruction-set level of a kernel table.
enum class IsaLevel { kScalar = 0, kAvx2 = 1 };

/// The arithmetic of KernelTable::binary_tiled.
enum class ArithOp { kAdd, kSub, kMul, kDiv };

/// The softmax rule for a row with no well-defined distribution: a row whose
/// max is non-finite (fully masked: every entry -inf) or whose exp-sum is 0
/// or non-finite becomes uniform (1/len), since NaN would poison every
/// downstream score. Every softmax path applies it (the lane-vectorized short
/// rows of the AVX2 table as the same test in mask form).
inline bool DegenerateSoftmaxRow(float max_v, float sum) {
  return !std::isfinite(max_v) || sum == 0.0f || !std::isfinite(sum);
}

/// One implementation of every vector primitive. Pointer arguments are
/// non-null unless an entry says otherwise.
struct KernelTable {
  // -- Horizontal reductions (SIMD reassociates; scalar is sequential) ------
  /// sum_i a[i] * b[i].
  float (*dot)(const float* a, const float* b, int64_t n);
  /// sum_i x[i].
  float (*sum)(const float* x, int64_t n);
  /// max_i x[i] (n >= 1); exact at every level.
  float (*max)(const float* x, int64_t n);

  // -- Fused accumulation ---------------------------------------------------
  /// y[i] += alpha * x[i].
  void (*axpy)(float alpha, const float* x, float* y, int64_t n);
  /// y[i] += alpha * c[i]; returns sum_i c[i] * x[i] (conv backward fusion).
  float (*axpy_dot)(float alpha, const float* c, float* y, const float* x,
                    int64_t n);

  // -- Elementwise (exact at every level) -----------------------------------
  /// o[i] = c * x[i] (in-place safe).
  void (*scale)(float c, const float* x, float* o, int64_t n);
  /// o[i] = x[i] + c.
  void (*add_scalar)(float c, const float* x, float* o, int64_t n);
  /// dst[i] += src[i].
  void (*accumulate)(float* dst, const float* src, int64_t n);
  /// dst[i] = max(dst[i], src[i]).
  void (*max_into)(float* dst, const float* src, int64_t n);
  /// dst[i] += a[i] * b[i].
  void (*fma_into)(float* dst, const float* a, const float* b, int64_t n);
  /// o[i] = a[i] op b[i % period] for n a multiple of period: b repeats
  /// along a's leading dims (a bias, a mask); period == n is the plain
  /// elementwise op. In-place safe (o == a).
  void (*binary_tiled)(ArithOp op, const float* a, const float* b,
                       int64_t period, float* o, int64_t n);
  /// o[i] = x[i] > 0 ? x[i] : slope * x[i] (NaN gives slope * NaN).
  void (*leaky_relu)(float slope, const float* x, float* o, int64_t n);
  /// g[i] = (x[i] > 0 ? 1 : slope) * c[i].
  void (*leaky_relu_vjp)(float slope, const float* x, const float* c,
                         float* g, int64_t n);

  // -- Softmax rows ---------------------------------------------------------
  /// o[i] = exp(x[i] - shift); returns sum_i o[i] (contiguous row).
  float (*exp_shift_sum)(const float* x, float shift, float* o, int64_t n);
  /// o[i] = exp(x[i] - m[i]) (lane-vectorized rows, strided softmax).
  void (*exp_sub)(const float* x, const float* m, float* o, int64_t n);
  /// g[i] = y[i] * (c[i] - d[i]).
  void (*mul_sub)(const float* y, const float* c, const float* d, float* g,
                  int64_t n);
  /// g[i] = y[i] * (c[i] - d).
  void (*mul_sub_scalar)(const float* y, const float* c, float d, float* g,
                         int64_t n);
  /// Softmax of `rows` contiguous rows of length len, each as max, then
  /// exp_shift_sum, then scale by 1/sum; a DegenerateSoftmaxRow becomes
  /// uniform. Rows shorter than 8 may run one per lane; each lane keeps its
  /// row's arithmetic.
  void (*softmax_rows)(const float* x, float* o, int64_t rows, int64_t len);

  // -- Relevance propagation ------------------------------------------------
  /// o[i] = r[i] / (f[i] + (f[i] >= 0 ? eps : -eps))  (Eq. 17 stabilizer).
  void (*stab_ratio)(const float* r, const float* f, float eps, float* o,
                     int64_t n);

  // -- Matmul rows ----------------------------------------------------------
  /// Rows [0, rows) of one matrix product: for j in [0, n),
  /// c[r * n + j] = sum_kk a[r * a_row_step + kk * a_stride] * b[kk * n + j],
  /// each sum taken in ascending kk from +0. a_row_step = k, a_stride = 1
  /// walks the rows of A; a_row_step = 1, a_stride = m its columns (the A^T
  /// form). A vector table runs several rows per pass; every element keeps
  /// the arithmetic it has in a one-row call.
  void (*gemm_rows)(const float* a, int64_t a_row_step, int64_t a_stride,
                    const float* b, float* c, int64_t rows, int64_t k,
                    int64_t n);
  /// gemm_rows' one-row case: crow[j] = sum_kk a[kk * a_stride] *
  /// b[kk * n + j].
  void (*gemm_row)(const float* a, int64_t a_stride, const float* b,
                   float* crow, int64_t k, int64_t n);

  // -- Causal convolution rows (exact at every level) -----------------------
  /// One (b, i, j) row of Eq. 3: for t in [0, steps),
  /// o[t] = (sum_{tau=0..t} k[steps-1-t+tau] * x[tau]) / (t+1), each sum
  /// taken in ascending tau from +0.
  void (*conv_row)(const float* k, const float* x, float* o, int64_t steps);
  /// Adjoint of conv_row for the cotangent row c. With cs[t] = c[t] / (t+1),
  /// for ascending t with cs[t] != 0: gx[0..t] += cs[t] * k[steps-1-t..] and
  /// gk[steps-1-t..] += cs[t] * x[0..t]. A null gx or gk skips that half.
  void (*conv_row_vjp)(const float* k, const float* x, const float* c,
                       float* gx, float* gk, int64_t steps);

  // -- Attention combine (exact at every level) -----------------------------
  /// Eq. 6's combine over `batch` items: o[b,i,t] is +0 plus
  /// a[b,i,j] * v[b,j,i,t] for ascending j, skipping a[b,i,j] == 0
  /// (a: [batch, n, n], v: [batch, n, n, steps], o: [batch, n, steps]).
  void (*attention_combine)(const float* a, const float* v, float* o,
                            int64_t batch, int64_t n, int64_t steps);
  /// Its adjoint for the cotangent c ([batch, n, steps]):
  /// ga[b,i,j] = +0 + (sum over ascending t of c[b,i,t] * v[b,j,i,t], from
  /// +0) and gv[b,j,i,t] = +0 + a[b,i,j] * c[b,i,t]. Lanes never split the
  /// sum over t.
  void (*attention_combine_vjp)(const float* a, const float* v,
                                const float* c, float* ga, float* gv,
                                int64_t batch, int64_t n, int64_t steps);
};

/// The table the process dispatched to (resolved once, overridable by
/// SetLevelForTesting).
const KernelTable& Active();

/// Level of the active table.
IsaLevel ActiveLevel();

/// Human-readable level name: "scalar", "avx2".
const char* LevelName(IsaLevel level);

/// The table for `level`, or nullptr when that backend is not built in or
/// not supported by this CPU. `kScalar` is always available.
const KernelTable* TableForLevel(IsaLevel level);

/// Forces dispatch to `level` (clamped to the best available backend when
/// unavailable). Benches use this to time scalar vs vector in one process;
/// tests use it to pin a level. Not thread-safe against in-flight kernels.
void SetLevelForTesting(IsaLevel level);

}  // namespace simd
}  // namespace causalformer

#endif  // CAUSALFORMER_TENSOR_SIMD_H_

#include <algorithm>
#include <cmath>

#include "tensor/simd.h"

// Scalar reference kernels. These preserve the exact accumulation order of
// the original hand-written loops (sequential left-to-right), so a build or
// run dispatched to the scalar table reproduces the pre-SIMD detector
// outputs bit-for-bit. Every vectorized backend is tested against this file.

namespace causalformer {
namespace simd {
namespace {

float ScalarDot(const float* a, const float* b, int64_t n) {
  float acc = 0.0f;
  for (int64_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

float ScalarSum(const float* x, int64_t n) {
  float acc = 0.0f;
  for (int64_t i = 0; i < n; ++i) acc += x[i];
  return acc;
}

float ScalarMax(const float* x, int64_t n) {
  float m = x[0];
  for (int64_t i = 1; i < n; ++i) m = std::max(m, x[i]);
  return m;
}

void ScalarAxpy(float alpha, const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

float ScalarAxpyDot(float alpha, const float* c, float* y, const float* x,
                    int64_t n) {
  float acc = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    y[i] += alpha * c[i];
    acc += c[i] * x[i];
  }
  return acc;
}

void ScalarScale(float c, const float* x, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = c * x[i];
}

void ScalarAddScalar(float c, const float* x, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = x[i] + c;
}

void ScalarAccumulate(float* dst, const float* src, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] += src[i];
}

void ScalarMaxInto(float* dst, const float* src, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] = std::max(dst[i], src[i]);
}

void ScalarFmaInto(float* dst, const float* a, const float* b, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] += a[i] * b[i];
}

// The seed's elementwise loops, one pass per repeat of b (the seed's
// trailing-broadcast loop; a single pass when period == n).
void ScalarBinaryTiled(ArithOp op, const float* a, const float* b,
                       int64_t period, float* o, int64_t n) {
  for (int64_t off = 0; off < n; off += period) {
    const float* ar = a + off;
    float* orow = o + off;
    switch (op) {
      case ArithOp::kAdd:
        for (int64_t i = 0; i < period; ++i) orow[i] = ar[i] + b[i];
        break;
      case ArithOp::kSub:
        for (int64_t i = 0; i < period; ++i) orow[i] = ar[i] - b[i];
        break;
      case ArithOp::kMul:
        for (int64_t i = 0; i < period; ++i) orow[i] = ar[i] * b[i];
        break;
      case ArithOp::kDiv:
        for (int64_t i = 0; i < period; ++i) orow[i] = ar[i] / b[i];
        break;
    }
  }
}

void ScalarLeakyRelu(float slope, const float* x, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = x[i] > 0.0f ? x[i] : slope * x[i];
}

void ScalarLeakyReluVjp(float slope, const float* x, const float* c, float* g,
                        int64_t n) {
  for (int64_t i = 0; i < n; ++i) g[i] = (x[i] > 0.0f ? 1.0f : slope) * c[i];
}

float ScalarExpShiftSum(const float* x, float shift, float* o, int64_t n) {
  float sum = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    const float e = std::exp(x[i] - shift);
    o[i] = e;
    sum += e;
  }
  return sum;
}

void ScalarExpSub(const float* x, const float* m, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = std::exp(x[i] - m[i]);
}

void ScalarMulSub(const float* y, const float* c, const float* d, float* g,
                  int64_t n) {
  for (int64_t i = 0; i < n; ++i) g[i] = y[i] * (c[i] - d[i]);
}

void ScalarMulSubScalar(const float* y, const float* c, float d, float* g,
                        int64_t n) {
  for (int64_t i = 0; i < n; ++i) g[i] = y[i] * (c[i] - d);
}

// The seed's contiguous softmax: max, exp-sum and scale, row by row.
void ScalarSoftmaxRows(const float* x, float* o, int64_t rows, int64_t len) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = x + r * len;
    float* orow = o + r * len;
    const float max_v = ScalarMax(row, len);
    float sum = 0.0f;
    if (std::isfinite(max_v)) sum = ScalarExpShiftSum(row, max_v, orow, len);
    if (DegenerateSoftmaxRow(max_v, sum)) {
      const float uniform = 1.0f / static_cast<float>(len);
      for (int64_t l = 0; l < len; ++l) orow[l] = uniform;
      continue;
    }
    ScalarScale(1.0f / sum, orow, orow, len);
  }
}

void ScalarStabRatio(const float* r, const float* f, float eps, float* o,
                     int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    o[i] = r[i] / (f[i] + (f[i] >= 0.0f ? eps : -eps));
  }
}

void ScalarGemmRows(const float* a, int64_t a_row_step, int64_t a_stride,
                    const float* b, float* c, int64_t rows, int64_t k,
                    int64_t n) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* arow = a + r * a_row_step;
    float* crow = c + r * n;
    for (int64_t j = 0; j < n; ++j) crow[j] = 0.0f;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk * a_stride];
      const float* brow = b + kk * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void ScalarGemmRow(const float* a, int64_t a_stride, const float* b,
                   float* crow, int64_t k, int64_t n) {
  ScalarGemmRows(a, 0, a_stride, b, crow, 1, k, n);
}

// The seed's conv row: one sequential dot per output step, then the divide.
void ScalarConvRow(const float* k, const float* x, float* o, int64_t steps) {
  for (int64_t t = 0; t < steps; ++t) {
    const float* kt = k + steps - 1 - t;  // tap steps-1-(t-tau) meets x[tau]
    float acc = 0.0f;
    for (int64_t tau = 0; tau <= t; ++tau) acc += kt[tau] * x[tau];
    o[t] = acc / static_cast<float>(t + 1);
  }
}

// The seed's conv adjoint: two axpys per nonzero output step, ascending t.
void ScalarConvRowVjp(const float* k, const float* x, const float* c,
                      float* gx, float* gk, int64_t steps) {
  for (int64_t t = 0; t < steps; ++t) {
    const float cs = c[t] / static_cast<float>(t + 1);
    if (cs == 0.0f) continue;
    if (gx != nullptr) {
      const float* kt = k + steps - 1 - t;
      for (int64_t tau = 0; tau <= t; ++tau) gx[tau] += cs * kt[tau];
    }
    if (gk != nullptr) {
      float* gkt = gk + steps - 1 - t;
      for (int64_t tau = 0; tau <= t; ++tau) gkt[tau] += cs * x[tau];
    }
  }
}

// The seed's attention combine: per (b, i) row, an axpy per nonzero weight.
void ScalarAttentionCombine(const float* a, const float* v, float* o,
                            int64_t batch, int64_t n, int64_t steps) {
  for (int64_t bi = 0; bi < batch * n; ++bi) {
    const int64_t b = bi / n;
    const int64_t i = bi % n;
    float* orow = o + bi * steps;
    for (int64_t t = 0; t < steps; ++t) orow[t] = 0.0f;
    for (int64_t j = 0; j < n; ++j) {
      const float aw = a[bi * n + j];
      if (aw == 0.0f) continue;
      const float* vrow = v + ((b * n + j) * n + i) * steps;
      for (int64_t t = 0; t < steps; ++t) orow[t] += aw * vrow[t];
    }
  }
}

// The seed's adjoint: one pass over t per (b, i, j), adding into zeros.
void ScalarAttentionCombineVjp(const float* a, const float* v, const float* c,
                               float* ga, float* gv, int64_t batch, int64_t n,
                               int64_t steps) {
  for (int64_t bi = 0; bi < batch * n; ++bi) {
    const int64_t b = bi / n;
    const int64_t i = bi % n;
    const float* crow = c + bi * steps;
    for (int64_t j = 0; j < n; ++j) {
      const float* vrow = v + ((b * n + j) * n + i) * steps;
      float* gvrow = gv + ((b * n + j) * n + i) * steps;
      const float aw = a[bi * n + j];
      float acc = 0.0f;
      for (int64_t t = 0; t < steps; ++t) {
        acc += crow[t] * vrow[t];
        gvrow[t] = 0.0f + aw * crow[t];
      }
      ga[bi * n + j] = 0.0f + acc;
    }
  }
}

}  // namespace

const KernelTable& ScalarKernelTable() {
  static const KernelTable table = {
      ScalarDot,          ScalarSum,
      ScalarMax,          ScalarAxpy,
      ScalarAxpyDot,      ScalarScale,
      ScalarAddScalar,    ScalarAccumulate,
      ScalarMaxInto,      ScalarFmaInto,
      ScalarBinaryTiled,  ScalarLeakyRelu,
      ScalarLeakyReluVjp, ScalarExpShiftSum,
      ScalarExpSub,       ScalarMulSub,
      ScalarMulSubScalar, ScalarSoftmaxRows,
      ScalarStabRatio,    ScalarGemmRows,
      ScalarGemmRow,      ScalarConvRow,
      ScalarConvRowVjp,   ScalarAttentionCombine,
      ScalarAttentionCombineVjp,
  };
  return table;
}

}  // namespace simd
}  // namespace causalformer

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

void ScalarAdd(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] + b[i];
}

void ScalarSub(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] - b[i];
}

void ScalarMul(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] * b[i];
}

void ScalarDiv(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] / b[i];
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

void ScalarStabRatio(const float* r, const float* f, float eps, float* o,
                     int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    o[i] = r[i] / (f[i] + (f[i] >= 0.0f ? eps : -eps));
  }
}

void ScalarGemmRow(const float* a, int64_t a_stride, const float* b,
                   float* crow, int64_t k, int64_t n) {
  for (int64_t j = 0; j < n; ++j) crow[j] = 0.0f;
  for (int64_t kk = 0; kk < k; ++kk) {
    const float av = a[kk * a_stride];
    const float* brow = b + kk * n;
    for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
  }
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

}  // namespace

const KernelTable& ScalarKernelTable() {
  static const KernelTable table = {
      ScalarDot,       ScalarSum,         ScalarMax,
      ScalarAxpy,      ScalarAxpyDot,     ScalarAdd,
      ScalarSub,       ScalarMul,         ScalarDiv,
      ScalarScale,     ScalarAddScalar,   ScalarAccumulate,
      ScalarMaxInto,   ScalarFmaInto,     ScalarExpShiftSum,
      ScalarExpSub,    ScalarMulSub,      ScalarMulSubScalar,
      ScalarStabRatio, ScalarGemmRow,     ScalarConvRow,
      ScalarConvRowVjp,
  };
  return table;
}

}  // namespace simd
}  // namespace causalformer

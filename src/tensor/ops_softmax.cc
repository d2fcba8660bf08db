#include <cstring>
#include <vector>

#include "obs/trace.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "util/logging.h"

namespace causalformer {

Tensor Softmax(const Tensor& x, int axis) {
  int ax = axis;
  if (ax < 0) ax += x.ndim();
  CF_CHECK_GE(ax, 0);
  CF_CHECK_LT(ax, x.ndim());

  int64_t outer = 1, inner = 1;
  for (int i = 0; i < ax; ++i) outer *= x.shape()[i];
  for (int i = ax + 1; i < x.ndim(); ++i) inner *= x.shape()[i];
  const int64_t len = x.shape()[ax];

  obs::ScopedPhaseTimer timer("kernel.softmax", /*kernel=*/true);
  Tensor out = Tensor::Empty(x.shape());  // every element written below
  const float* px = x.data();
  float* po = out.data();
  const simd::KernelTable& K = simd::Active();
  const float uniform = 1.0f / static_cast<float>(len);

  if (inner == 1) {
    // The axis is contiguous: every row in one call.
    K.softmax_rows(px, po, outer, len);
  } else {
    // The axis is strided; iterate it outermost and vectorize across the
    // contiguous `inner` lanes (bit-identical per lane to the seed loop).
    std::vector<float> mx(static_cast<size_t>(inner));
    std::vector<float> sm(static_cast<size_t>(inner));
    for (int64_t o = 0; o < outer; ++o) {
      const float* xb = px + o * len * inner;
      float* ob = po + o * len * inner;
      std::memcpy(mx.data(), xb, static_cast<size_t>(inner) * sizeof(float));
      for (int64_t l = 1; l < len; ++l) {
        K.max_into(mx.data(), xb + l * inner, inner);
      }
      std::memset(sm.data(), 0, static_cast<size_t>(inner) * sizeof(float));
      for (int64_t l = 0; l < len; ++l) {
        K.exp_sub(xb + l * inner, mx.data(), ob + l * inner, inner);
        K.accumulate(sm.data(), ob + l * inner, inner);
      }
      for (int64_t in = 0; in < inner; ++in) {
        if (simd::DegenerateSoftmaxRow(mx[in], sm[in])) {
          for (int64_t l = 0; l < len; ++l) ob[l * inner + in] = uniform;
          sm[in] = 1.0f;  // lane already final; scale below is a no-op
        } else {
          sm[in] = 1.0f / sm[in];
        }
      }
      K.binary_tiled(simd::ArithOp::kMul, ob, sm.data(), inner, ob,
                     len * inner);
    }
  }

  return MakeOp(
      "softmax", {x}, std::move(out),
      [](const Node& node, const Tensor& y, const Tensor& cot, InputMask,
         Tensor* grads) {
        // dX = y * (cot - sum(cot * y, axis)).
        obs::ScopedPhaseTimer timer("kernel.softmax", /*kernel=*/true);
        const int ax = node.attr<int>();
        int64_t outer = 1, inner = 1;
        for (int i = 0; i < ax; ++i) outer *= y.shape()[i];
        for (int i = ax + 1; i < y.ndim(); ++i) inner *= y.shape()[i];
        const int64_t len = y.shape()[ax];
        Tensor g = Tensor::Empty(y.shape());
        const float* py = y.data();
        const float* pc = cot.data();
        float* pg = g.data();
        const simd::KernelTable& K = simd::Active();
        if (inner == 1) {
          for (int64_t o = 0; o < outer; ++o) {
            const int64_t base = o * len;
            const float dot = K.dot(pc + base, py + base, len);
            K.mul_sub_scalar(py + base, pc + base, dot, pg + base, len);
          }
        } else {
          std::vector<float> dt(static_cast<size_t>(inner));
          for (int64_t o = 0; o < outer; ++o) {
            const int64_t base = o * len * inner;
            std::memset(dt.data(), 0,
                        static_cast<size_t>(inner) * sizeof(float));
            for (int64_t l = 0; l < len; ++l) {
              K.fma_into(dt.data(), pc + base + l * inner,
                         py + base + l * inner, inner);
            }
            for (int64_t l = 0; l < len; ++l) {
              const int64_t k = base + l * inner;
              K.mul_sub(py + k, pc + k, dt.data(), pg + k, inner);
            }
          }
        }
        grads[0] = std::move(g);
      },
      ax);
}

}  // namespace causalformer

#include <cmath>
#include <cstring>

#include "tensor/ops.h"
#include "tensor/simd.h"
#include "util/logging.h"

namespace causalformer {

namespace {

// Resolves a possibly-negative axis.
int ResolveAxis(int axis, int ndim) {
  if (axis < 0) axis += ndim;
  CF_CHECK_GE(axis, 0);
  CF_CHECK_LT(axis, ndim);
  return axis;
}

// Decomposes shape around `axis` into outer * axis_len * inner.
void AxisDecompose(const Shape& shape, int axis, int64_t* outer, int64_t* len,
                   int64_t* inner) {
  *outer = 1;
  *inner = 1;
  for (int i = 0; i < axis; ++i) *outer *= shape[i];
  *len = shape[axis];
  for (int i = axis + 1; i < shape.ndim(); ++i) *inner *= shape[i];
}

Shape ReducedShape(const Shape& shape, int axis, bool keepdim) {
  return keepdim ? shape.WithDim(axis, 1) : shape.Erased(axis);
}

}  // namespace

Tensor Sum(const Tensor& x) {
  double acc = 0.0;
  const float* p = x.data();
  for (int64_t i = 0; i < x.numel(); ++i) acc += p[i];
  Tensor out = Tensor::Scalar(static_cast<float>(acc));
  return MakeOp("sum", {x}, std::move(out),
                [](const Node& node, const Tensor&, const Tensor& cot,
                   InputMask, Tensor* grads) {
                  grads[0] = Tensor::Full(node.inputs[0].shape(), cot.item());
                });
}

Tensor Sum(const Tensor& x, int axis, bool keepdim) {
  const int ax = ResolveAxis(axis, x.ndim());
  int64_t outer, len, inner;
  AxisDecompose(x.shape(), ax, &outer, &len, &inner);
  Tensor out = Tensor::Zeros(ReducedShape(x.shape(), ax, keepdim));
  const float* px = x.data();
  float* po = out.data();
  const simd::KernelTable& K = simd::Active();
  if (inner == 1) {
    // The reduced axis is contiguous: one horizontal sum per output element.
    for (int64_t o = 0; o < outer; ++o) po[o] = K.sum(px + o * len, len);
  } else {
    for (int64_t o = 0; o < outer; ++o) {
      for (int64_t l = 0; l < len; ++l) {
        K.accumulate(po + o * inner, px + (o * len + l) * inner, inner);
      }
    }
  }
  return MakeOp("sum_axis", {x}, std::move(out),
                [](const Node& node, const Tensor&, const Tensor& cot,
                   InputMask, Tensor* grads) {
                  const Tensor& x = node.inputs[0];
                  int64_t outer, len, inner;
                  AxisDecompose(x.shape(), node.attr<int>(), &outer, &len,
                                &inner);
                  Tensor g = Tensor::Empty(x.shape());
                  const float* pc = cot.data();
                  float* pg = g.data();
                  for (int64_t o = 0; o < outer; ++o) {
                    for (int64_t l = 0; l < len; ++l) {
                      std::memcpy(pg + (o * len + l) * inner, pc + o * inner,
                                  static_cast<size_t>(inner) * sizeof(float));
                    }
                  }
                  grads[0] = std::move(g);
                },
                ax);
}

Tensor Mean(const Tensor& x) {
  return Scale(Sum(x), 1.0f / static_cast<float>(x.numel()));
}

Tensor Mean(const Tensor& x, int axis, bool keepdim) {
  const int ax = ResolveAxis(axis, x.ndim());
  const float inv = 1.0f / static_cast<float>(x.shape()[ax]);
  return Scale(Sum(x, ax, keepdim), inv);
}

Tensor L1Norm(const Tensor& x) { return Sum(Abs(x)); }

int64_t ArgMaxIndex(const Tensor& x) {
  CF_CHECK_GT(x.numel(), 0);
  const float* p = x.data();
  int64_t best = 0;
  for (int64_t i = 1; i < x.numel(); ++i) {
    if (p[i] > p[best]) best = i;
  }
  return best;
}

}  // namespace causalformer

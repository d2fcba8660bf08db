#include "nn/activations.h"

#include <cmath>

#include "util/logging.h"

namespace causalformer {
namespace nn {

Tensor Dropout(const Tensor& x, float p, bool training, Rng* rng) {
  if (!training || p <= 0.0f) return x;
  CF_CHECK_LT(p, 1.0f);
  CF_CHECK(rng != nullptr);
  Tensor mask = Tensor::Zeros(x.shape());
  float* m = mask.data();
  const float keep_scale = 1.0f / (1.0f - p);
  for (int64_t i = 0; i < mask.numel(); ++i) {
    m[i] = rng->Bernoulli(p) ? 0.0f : keep_scale;
  }
  return Mul(x, mask);
}

Tensor Gelu(const Tensor& x) {
  // 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3)))
  const float c = std::sqrt(2.0f / static_cast<float>(M_PI));
  Tensor inner = Scale(Add(x, Scale(Pow(x, 3.0f), 0.044715f)), c);
  return Scale(Mul(x, AddScalar(Tanh(inner), 1.0f)), 0.5f);
}

Tensor Clamp(const Tensor& x, float lo, float hi) {
  CF_CHECK_LE(lo, hi);
  Tensor out = Tensor::Zeros(x.shape());
  const float* px = x.data();
  float* po = out.data();
  for (int64_t i = 0; i < x.numel(); ++i) {
    po[i] = px[i] < lo ? lo : (px[i] > hi ? hi : px[i]);
  }
  struct Bounds {
    float lo, hi;
  };
  return MakeOp("clamp", {x}, std::move(out),
                [](const Node& node, const Tensor&, const Tensor& cot,
                   InputMask, Tensor* grads) {
                  const Bounds bounds = node.attr<Bounds>();
                  const Tensor& x = node.inputs[0];
                  Tensor g = Tensor::Zeros(x.shape());
                  const float* px = x.data();
                  const float* pc = cot.data();
                  float* pg = g.data();
                  for (int64_t i = 0; i < x.numel(); ++i) {
                    pg[i] = (px[i] >= bounds.lo && px[i] <= bounds.hi)
                                ? pc[i]
                                : 0.0f;
                  }
                  grads[0] = std::move(g);
                },
                Bounds{lo, hi});
}

}  // namespace nn
}  // namespace causalformer

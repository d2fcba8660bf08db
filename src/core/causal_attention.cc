#include "core/causal_attention.h"

#include "tensor/simd.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace causalformer {
namespace core {

Tensor AttentionCombine(const Tensor& attention, const Tensor& value) {
  CF_CHECK_EQ(attention.ndim(), 3) << "attention must be [B, N, N]";
  CF_CHECK_EQ(value.ndim(), 4) << "value must be [B, N, N, T]";
  const int64_t batch = attention.dim(0);
  const int64_t n = attention.dim(1);
  CF_CHECK_EQ(attention.dim(2), n);
  CF_CHECK_EQ(value.dim(0), batch);
  CF_CHECK_EQ(value.dim(1), n);
  CF_CHECK_EQ(value.dim(2), n);
  const int64_t steps = value.dim(3);

  Tensor out = Tensor::Empty(Shape{batch, n, steps});  // the kernel writes it
  {
    const float* pa = attention.data();
    const float* pv = value.data();
    float* po = out.data();
    const simd::KernelTable& K = simd::Active();
    const int64_t item_cost = n * n * steps;  // one batch item: n^2 axpys
    ParallelFor(batch, item_cost, [&](int64_t begin, int64_t end) {
      K.attention_combine(pa + begin * n * n, pv + begin * n * n * steps,
                          po + begin * n * steps, end - begin, n, steps);
    });
  }

  return MakeOp(
      "attention_combine", {attention, value}, std::move(out),
      [](const Node& node, const Tensor&, const Tensor& cot, InputMask,
         Tensor* grads) {
        const Tensor& attention = node.inputs[0];
        const Tensor& value = node.inputs[1];
        Tensor ga = Tensor::Empty(attention.shape());
        Tensor gv = Tensor::Empty(value.shape());
        simd::Active().attention_combine_vjp(
            attention.data(), value.data(), cot.data(), ga.data(), gv.data(),
            attention.dim(0), attention.dim(1), value.dim(3));
        grads[0] = std::move(ga);
        grads[1] = std::move(gv);
      });
}

}  // namespace core
}  // namespace causalformer

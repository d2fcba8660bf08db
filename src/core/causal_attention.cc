#include "core/causal_attention.h"

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

  Tensor out = Tensor::Zeros(Shape{batch, n, steps});
  {
    const float* pa = attention.data();
    const float* pv = value.data();
    float* po = out.data();
    const int64_t item_cost = n * steps;  // one output row: n axpys
    ParallelFor(batch * n, item_cost, [&](int64_t begin, int64_t end) {
      for (int64_t bi = begin; bi < end; ++bi) {
        const int64_t b = bi / n;
        const int64_t i = bi % n;
        float* orow = po + (b * n + i) * steps;
        for (int64_t j = 0; j < n; ++j) {
          const float a = pa[(b * n + i) * n + j];
          if (a == 0.0f) continue;
          const float* vrow = pv + ((b * n + j) * n + i) * steps;
          for (int64_t t = 0; t < steps; ++t) orow[t] += a * vrow[t];
        }
      }
    });
  }

  return MakeOp(
      "attention_combine", {attention, value}, out,
      [attention, value](const Tensor&, const Tensor& cot,
                         const std::vector<bool>&) {
        const int64_t batch = attention.dim(0);
        const int64_t n = attention.dim(1);
        const int64_t steps = value.dim(3);
        Tensor ga = Tensor::Zeros(attention.shape());
        Tensor gv = Tensor::Zeros(value.shape());
        const float* pa = attention.data();
        const float* pv = value.data();
        const float* pc = cot.data();
        float* pga = ga.data();
        float* pgv = gv.data();
        for (int64_t b = 0; b < batch; ++b) {
          for (int64_t i = 0; i < n; ++i) {
            const float* crow = pc + (b * n + i) * steps;
            for (int64_t j = 0; j < n; ++j) {
              const float* vrow = pv + ((b * n + j) * n + i) * steps;
              float* gvrow = pgv + ((b * n + j) * n + i) * steps;
              const float a = pa[(b * n + i) * n + j];
              float acc = 0.0f;
              for (int64_t t = 0; t < steps; ++t) {
                acc += crow[t] * vrow[t];
                gvrow[t] += a * crow[t];
              }
              pga[(b * n + i) * n + j] += acc;
            }
          }
        }
        return std::vector<Tensor>{ga, gv};
      });
}

}  // namespace core
}  // namespace causalformer

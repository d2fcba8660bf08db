#include "core/causal_conv.h"

#include <vector>

#include "tensor/simd.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace causalformer {
namespace core {

namespace {

// Multiply-adds of one (batch row, source) causal conv item: n output rows,
// each a triangle of dots of length 1, 2, ..., steps.
int64_t ConvItemCost(int64_t n, int64_t steps) {
  return n * steps * (steps + 1) / 2;
}

// The per-step averaging denominators [1, 2, ..., steps]. Dividing a whole
// row at once through K.div replaces `steps` serial scalar divisions with a
// vectorized pass; IEEE division is elementwise-exact, so the results are
// bit-identical to dividing inside the t loop.
std::vector<float> DenomRow(int64_t steps) {
  std::vector<float> denom(static_cast<size_t>(steps));
  for (int64_t t = 0; t < steps; ++t) {
    denom[static_cast<size_t>(t)] = static_cast<float>(t + 1);
  }
  return denom;
}

}  // namespace

Tensor MultiKernelCausalConv(const Tensor& x, const Tensor& kernel,
                             bool shared_kernel) {
  CF_CHECK_EQ(x.ndim(), 3) << "x must be [B, N, T]";
  CF_CHECK_EQ(kernel.ndim(), 3) << "kernel must be [N, N|1, T]";
  const int64_t batch = x.dim(0);
  const int64_t n = x.dim(1);
  const int64_t steps = x.dim(2);
  CF_CHECK_EQ(kernel.dim(0), n);
  CF_CHECK_EQ(kernel.dim(1), shared_kernel ? 1 : n);
  CF_CHECK_EQ(kernel.dim(2), steps);

  Tensor out = Tensor::Zeros(Shape{batch, n, n, steps});
  {
    const float* px = x.data();
    const float* pk = kernel.data();
    float* po = out.data();
    const std::vector<float> denom = DenomRow(steps);
    const int64_t item_cost = ConvItemCost(n, steps);
    ParallelFor(batch * n, item_cost, [&](int64_t begin, int64_t end) {
      for (int64_t bi = begin; bi < end; ++bi) {
        const int64_t b = bi / n;
        const int64_t i = bi % n;
        const float* xrow = px + (b * n + i) * steps;
        for (int64_t j = 0; j < n; ++j) {
          const int64_t kj = shared_kernel ? 0 : j;
          const float* krow =
              pk + (i * kernel.dim(1) + kj) * steps;
          float* orow = po + ((b * n + i) * n + j) * steps;
          const simd::KernelTable& K = simd::Active();
          for (int64_t t = 0; t < steps; ++t) {
            // Tap T-1-(t-tau) multiplies x[tau]: a contiguous dot of the
            // kernel tail against the input prefix.
            orow[t] = K.dot(krow + steps - 1 - t, xrow, t + 1);
          }
          K.div(orow, denom.data(), orow, steps);
        }
      }
    });
  }

  return MakeOp(
      "multi_kernel_causal_conv", {x, kernel}, out,
      [x, kernel, shared_kernel](const Tensor&, const Tensor& cot,
                                 const std::vector<bool>& needs) {
        const int64_t batch = x.dim(0);
        const int64_t n = x.dim(1);
        const int64_t steps = x.dim(2);
        const int64_t kdim1 = kernel.dim(1);
        // The two halves are independent; an unneeded one is skipped.
        Tensor gx = needs[0] ? Tensor::Zeros(x.shape()) : Tensor();
        Tensor gk = needs[1] ? Tensor::Zeros(kernel.shape()) : Tensor();
        const float* px = x.data();
        const float* pk = kernel.data();
        const float* pc = cot.data();
        float* pgx = needs[0] ? gx.data() : nullptr;
        float* pgk = needs[1] ? gk.data() : nullptr;
        // Serial over (b, i, j); the grad-kernel buffer is shared across
        // batches so parallelising would race on pgk.
        const std::vector<float> denom = DenomRow(steps);
        std::vector<float> cs(static_cast<size_t>(steps));
        for (int64_t b = 0; b < batch; ++b) {
          for (int64_t i = 0; i < n; ++i) {
            const float* xrow = px + (b * n + i) * steps;
            float* gxrow = pgx ? pgx + (b * n + i) * steps : nullptr;
            for (int64_t j = 0; j < n; ++j) {
              const int64_t kj = shared_kernel ? 0 : j;
              const float* krow = pk + (i * kdim1 + kj) * steps;
              float* gkrow = pgk ? pgk + (i * kdim1 + kj) * steps : nullptr;
              const float* crow = pc + ((b * n + i) * n + j) * steps;
              const simd::KernelTable& K = simd::Active();
              K.div(crow, denom.data(), cs.data(), steps);
              for (int64_t t = 0; t < steps; ++t) {
                const float c = cs[static_cast<size_t>(t)];
                if (c == 0.0f) continue;
                // Two contiguous axpys: taps steps-1-t.. pair with x[0..t].
                if (gxrow) K.axpy(c, krow + steps - 1 - t, gxrow, t + 1);
                if (gkrow) K.axpy(c, xrow, gkrow + steps - 1 - t, t + 1);
              }
            }
          }
        }
        return std::vector<Tensor>{gx, gk};
      });
}

Tensor GroupedMultiKernelCausalConv(const Tensor& x, const Tensor& kernel,
                                    const std::vector<int>& row_groups,
                                    bool shared_kernel) {
  CF_CHECK_EQ(x.ndim(), 3) << "x must be [B, N, T]";
  CF_CHECK_EQ(kernel.ndim(), 4) << "grouped kernel must be [G, N, N|1, T]";
  const int64_t batch = x.dim(0);
  const int64_t n = x.dim(1);
  const int64_t steps = x.dim(2);
  const int64_t groups = kernel.dim(0);
  CF_CHECK_EQ(kernel.dim(1), n);
  CF_CHECK_EQ(kernel.dim(2), shared_kernel ? 1 : n);
  CF_CHECK_EQ(kernel.dim(3), steps);
  CF_CHECK_EQ(static_cast<int64_t>(row_groups.size()), batch);
  for (const int g : row_groups) {
    CF_CHECK_GE(g, 0);
    CF_CHECK_LT(g, groups);
  }

  const int64_t kdim2 = kernel.dim(2);
  Tensor out = Tensor::Zeros(Shape{batch, n, n, steps});
  {
    const float* px = x.data();
    const float* pk = kernel.data();
    float* po = out.data();
    const std::vector<float> denom = DenomRow(steps);
    const int64_t item_cost = ConvItemCost(n, steps);
    ParallelFor(batch * n, item_cost, [&](int64_t begin, int64_t end) {
      for (int64_t bi = begin; bi < end; ++bi) {
        const int64_t b = bi / n;
        const int64_t i = bi % n;
        const int64_t g = row_groups[b];
        const float* xrow = px + (b * n + i) * steps;
        for (int64_t j = 0; j < n; ++j) {
          const int64_t kj = shared_kernel ? 0 : j;
          const float* krow = pk + ((g * n + i) * kdim2 + kj) * steps;
          float* orow = po + ((b * n + i) * n + j) * steps;
          const simd::KernelTable& K = simd::Active();
          for (int64_t t = 0; t < steps; ++t) {
            orow[t] = K.dot(krow + steps - 1 - t, xrow, t + 1);
          }
          K.div(orow, denom.data(), orow, steps);
        }
      }
    });
  }

  return MakeOp(
      "grouped_multi_kernel_causal_conv", {x, kernel}, out,
      [x, kernel, row_groups, shared_kernel](const Tensor&, const Tensor& cot,
                                             const std::vector<bool>& needs) {
        const int64_t batch = x.dim(0);
        const int64_t n = x.dim(1);
        const int64_t steps = x.dim(2);
        const int64_t kdim2 = kernel.dim(2);
        const int64_t groups = kernel.dim(0);
        // The two halves are independent; an unneeded one is skipped (the
        // detector reads only gk: its input windows carry no gradient).
        Tensor gx = needs[0] ? Tensor::Zeros(x.shape()) : Tensor();
        Tensor gk = needs[1] ? Tensor::Zeros(kernel.shape()) : Tensor();
        const float* px = x.data();
        const float* pk = kernel.data();
        const float* pc = cot.data();
        float* pgx = needs[0] ? gx.data() : nullptr;
        float* pgk = needs[1] ? gk.data() : nullptr;
        // Parallel over (group, source) pairs: every gk row (g, i, *) and gx
        // row (b, i) with row_groups[b] == g is touched by exactly one pair,
        // and each group's rows are visited in ascending b — the same
        // per-element accumulation order as a standalone per-request
        // backward, keeping the batched-equals-sequential guarantee bitwise.
        std::vector<std::vector<int64_t>> group_rows(
            static_cast<size_t>(groups));
        for (int64_t b = 0; b < batch; ++b) {
          group_rows[static_cast<size_t>(row_groups[b])].push_back(b);
        }
        const std::vector<float> denom = DenomRow(steps);
        // One (group, source) item walks that group's rows, two axpy halves
        // each; rows are spread evenly across groups on average.
        const int64_t halves = (needs[0] ? 1 : 0) + (needs[1] ? 1 : 0);
        const int64_t item_cost = (batch + groups - 1) / groups * halves *
                                  ConvItemCost(n, steps);
        ParallelFor(groups * n, item_cost, [&](int64_t begin, int64_t end) {
          std::vector<float> cs(static_cast<size_t>(steps));
          for (int64_t gi = begin; gi < end; ++gi) {
            const int64_t g = gi / n;
            const int64_t i = gi % n;
            for (const int64_t b : group_rows[static_cast<size_t>(g)]) {
              const float* xrow = px + (b * n + i) * steps;
              float* gxrow = pgx ? pgx + (b * n + i) * steps : nullptr;
              for (int64_t j = 0; j < n; ++j) {
                const int64_t kj = shared_kernel ? 0 : j;
                const float* krow = pk + ((g * n + i) * kdim2 + kj) * steps;
                float* gkrow =
                    pgk ? pgk + ((g * n + i) * kdim2 + kj) * steps : nullptr;
                const float* crow = pc + ((b * n + i) * n + j) * steps;
                const simd::KernelTable& K = simd::Active();
                K.div(crow, denom.data(), cs.data(), steps);
                for (int64_t t = 0; t < steps; ++t) {
                  const float c = cs[static_cast<size_t>(t)];
                  if (c == 0.0f) continue;
                  if (gxrow) K.axpy(c, krow + steps - 1 - t, gxrow, t + 1);
                  if (gkrow) K.axpy(c, xrow, gkrow + steps - 1 - t, t + 1);
                }
              }
            }
          }
        });
        return std::vector<Tensor>{gx, gk};
      });
}

Tensor ShiftRightDiagonal(const Tensor& conv) {
  CF_CHECK_EQ(conv.ndim(), 4) << "conv must be [B, N, N, T]";
  const int64_t batch = conv.dim(0);
  const int64_t n = conv.dim(1);
  CF_CHECK_EQ(conv.dim(2), n);
  const int64_t steps = conv.dim(3);

  Tensor out = conv.Clone();
  {
    float* po = out.data();
    for (int64_t b = 0; b < batch; ++b) {
      for (int64_t i = 0; i < n; ++i) {
        float* row = po + ((b * n + i) * n + i) * steps;
        for (int64_t t = steps - 1; t >= 1; --t) row[t] = row[t - 1];
        row[0] = 0.0f;
      }
    }
  }

  return MakeOp("shift_right_diagonal", {conv}, out,
                [batch, n, steps](const Tensor&, const Tensor& cot,
                                  const std::vector<bool>&) {
                  // Adjoint: shift the diagonal cotangent left by one.
                  Tensor g = cot.Clone();
                  float* pg = g.data();
                  for (int64_t b = 0; b < batch; ++b) {
                    for (int64_t i = 0; i < n; ++i) {
                      float* row = pg + ((b * n + i) * n + i) * steps;
                      for (int64_t t = 0; t + 1 < steps; ++t) {
                        row[t] = row[t + 1];
                      }
                      row[steps - 1] = 0.0f;
                    }
                  }
                  return std::vector<Tensor>{g};
                });
}

}  // namespace core
}  // namespace causalformer

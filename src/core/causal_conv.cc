#include "core/causal_conv.h"

#include <algorithm>
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

  Tensor out = Tensor::Empty(Shape{batch, n, n, steps});  // rows overwritten
  {
    const float* px = x.data();
    const float* pk = kernel.data();
    float* po = out.data();
    const simd::KernelTable& K = simd::Active();
    const int64_t item_cost = ConvItemCost(n, steps);
    ParallelFor(batch * n, item_cost, [&](int64_t begin, int64_t end) {
      for (int64_t bi = begin; bi < end; ++bi) {
        const int64_t b = bi / n;
        const int64_t i = bi % n;
        const float* xrow = px + (b * n + i) * steps;
        for (int64_t j = 0; j < n; ++j) {
          const int64_t kj = shared_kernel ? 0 : j;
          const float* krow = pk + (i * kernel.dim(1) + kj) * steps;
          K.conv_row(krow, xrow, po + ((b * n + i) * n + j) * steps, steps);
        }
      }
    });
  }

  return MakeOp(
      "multi_kernel_causal_conv", {x, kernel}, std::move(out),
      [](const Node& node, const Tensor&, const Tensor& cot, InputMask needs,
         Tensor* grads) {
        const Tensor& x = node.inputs[0];
        const Tensor& kernel = node.inputs[1];
        const bool shared_kernel = node.attr<bool>();
        const int64_t batch = x.dim(0);
        const int64_t n = x.dim(1);
        const int64_t steps = x.dim(2);
        const int64_t kdim1 = kernel.dim(1);
        // The two halves are independent; an unneeded one is skipped.
        const bool need_x = HasInput(needs, 0);
        const bool need_k = HasInput(needs, 1);
        Tensor gx = need_x ? Tensor::Zeros(x.shape()) : Tensor();
        Tensor gk = need_k ? Tensor::Zeros(kernel.shape()) : Tensor();
        const float* px = x.data();
        const float* pk = kernel.data();
        const float* pc = cot.data();
        float* pgx = need_x ? gx.data() : nullptr;
        float* pgk = need_k ? gk.data() : nullptr;
        // Serial over (b, i, j); the grad-kernel buffer is shared across
        // batches so parallelising would race on pgk.
        const simd::KernelTable& K = simd::Active();
        for (int64_t b = 0; b < batch; ++b) {
          for (int64_t i = 0; i < n; ++i) {
            const float* xrow = px + (b * n + i) * steps;
            float* gxrow = pgx ? pgx + (b * n + i) * steps : nullptr;
            for (int64_t j = 0; j < n; ++j) {
              const int64_t kj = shared_kernel ? 0 : j;
              const int64_t krow = (i * kdim1 + kj) * steps;
              K.conv_row_vjp(pk + krow, xrow,
                             pc + ((b * n + i) * n + j) * steps, gxrow,
                             pgk ? pgk + krow : nullptr, steps);
            }
          }
        }
        grads[0] = std::move(gx);
        grads[1] = std::move(gk);
      },
      shared_kernel);
}

Tensor GroupedMultiKernelCausalConv(const Tensor& x, const Tensor& kernel,
                                    const std::vector<int>& row_groups) {
  CF_CHECK_EQ(x.ndim(), 3) << "x must be [B, N, T]";
  CF_CHECK_EQ(kernel.ndim(), 4) << "grouped kernel must be [G, N, N, T]";
  const int64_t batch = x.dim(0);
  const int64_t n = x.dim(1);
  const int64_t steps = x.dim(2);
  const int64_t groups = kernel.dim(0);
  CF_CHECK_EQ(kernel.dim(1), n);
  CF_CHECK_EQ(kernel.dim(2), n);
  CF_CHECK_EQ(kernel.dim(3), steps);
  CF_CHECK_EQ(static_cast<int64_t>(row_groups.size()), batch);
  CF_CHECK_LT(groups, int64_t{1} << 24);
  for (const int g : row_groups) {
    CF_CHECK_GE(g, 0);
    CF_CHECK_LT(g, groups);
  }

  Tensor out = Tensor::Empty(Shape{batch, n, n, steps});  // rows overwritten
  {
    const float* px = x.data();
    const float* pk = kernel.data();
    float* po = out.data();
    const simd::KernelTable& K = simd::Active();
    const int64_t item_cost = ConvItemCost(n, steps);
    ParallelFor(batch * n, item_cost, [&](int64_t begin, int64_t end) {
      for (int64_t bi = begin; bi < end; ++bi) {
        const int64_t b = bi / n;
        const int64_t i = bi % n;
        const int64_t g = row_groups[b];
        const float* xrow = px + (b * n + i) * steps;
        for (int64_t j = 0; j < n; ++j) {
          K.conv_row(pk + ((g * n + i) * n + j) * steps, xrow,
                     po + ((b * n + i) * n + j) * steps, steps);
        }
      }
    });
  }

  if (!x.requires_grad() && !kernel.requires_grad()) return out;
  // The adjoint needs each row's group: the node keeps them as one flat list
  // of floats (exact: a group index is far below 2^24).
  Tensor groups_of = Tensor::Empty(Shape{batch});
  std::copy(row_groups.begin(), row_groups.end(), groups_of.data());

  const Tensor inputs[] = {x, kernel};
  const VjpFn vjp = [](const Node& node, const Tensor&, const Tensor& cot,
                       InputMask needs, Tensor* grads) {
    const Tensor& x = node.inputs[0];
    const Tensor& kernel = node.inputs[1];
    const int64_t batch = x.dim(0);
    const int64_t n = x.dim(1);
    const int64_t steps = x.dim(2);
    const int64_t groups = kernel.dim(0);
    const float* groups_of = node.aux.data();
    // The two halves are independent; an unneeded one is skipped (the
    // detector reads only gk: its input windows carry no gradient).
    const bool need_x = HasInput(needs, 0);
    const bool need_k = HasInput(needs, 1);
    Tensor gx = need_x ? Tensor::Zeros(x.shape()) : Tensor();
    Tensor gk = need_k ? Tensor::Zeros(kernel.shape()) : Tensor();
    const float* px = x.data();
    const float* pk = kernel.data();
    const float* pc = cot.data();
    float* pgx = need_x ? gx.data() : nullptr;
    float* pgk = need_k ? gk.data() : nullptr;
    // Parallel over (group, source) pairs: every gk row (g, i, *) and gx row
    // (b, i) with row_groups[b] == g is touched by exactly one pair, and each
    // group's rows are visited in ascending b — the same per-element
    // accumulation order as a standalone per-request backward, keeping the
    // batched-equals-sequential guarantee bitwise. One (group, source) item
    // walks that group's rows, each needed half a triangle per target; rows
    // are spread evenly across groups on average.
    const int64_t halves = (need_x ? 1 : 0) + (need_k ? 1 : 0);
    const int64_t item_cost =
        (batch + groups - 1) / groups * halves * ConvItemCost(n, steps);
    const simd::KernelTable& K = simd::Active();
    ParallelFor(groups * n, item_cost, [&](int64_t begin, int64_t end) {
      for (int64_t gi = begin; gi < end; ++gi) {
        const int64_t g = gi / n;
        const int64_t i = gi % n;
        for (int64_t b = 0; b < batch; ++b) {
          if (groups_of[b] != static_cast<float>(g)) continue;
          const float* xrow = px + (b * n + i) * steps;
          float* gxrow = pgx ? pgx + (b * n + i) * steps : nullptr;
          for (int64_t j = 0; j < n; ++j) {
            const int64_t krow = ((g * n + i) * n + j) * steps;
            K.conv_row_vjp(pk + krow, xrow, pc + ((b * n + i) * n + j) * steps,
                           gxrow, pgk ? pgk + krow : nullptr, steps);
          }
        }
      }
    });
    grads[0] = std::move(gx);
    grads[1] = std::move(gk);
  };
  return MakeOp("grouped_multi_kernel_causal_conv", inputs, 2, std::move(out),
                vjp, nullptr, 0, std::move(groups_of));
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

  return MakeOp("shift_right_diagonal", {conv}, std::move(out),
                [](const Node&, const Tensor&, const Tensor& cot, InputMask,
                   Tensor* grads) {
                  // Adjoint: shift the diagonal cotangent left by one.
                  const int64_t batch = cot.dim(0);
                  const int64_t n = cot.dim(1);
                  const int64_t steps = cot.dim(3);
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
                  grads[0] = std::move(g);
                });
}

}  // namespace core
}  // namespace causalformer

#include "obs/trace.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace causalformer {

namespace {

// C[b] = A[b] (m x k) @ B[b] (k x n), row-major. `batch_stride_*` of 0
// broadcasts that operand across batches. Each output row is one gemm_row
// (plain B) or a run of dots (transposed B, where B's rows are contiguous in
// the reduction dimension); the kernel table supplies the vectorized inner
// loops.
void MatMulKernel(const float* a, const float* b, float* c, int64_t batch,
                  int64_t m, int64_t k, int64_t n, int64_t a_bstride,
                  int64_t b_bstride, int64_t c_bstride, bool transpose_a,
                  bool transpose_b) {
  const simd::KernelTable& K = simd::Active();
  const int64_t rows_total = batch * m;
  const int64_t row_cost = k * n;  // one output row: n length-k dots
  ParallelFor(rows_total, row_cost, [&](int64_t begin, int64_t end) {
    for (int64_t r = begin; r < end; ++r) {
      const int64_t bi = r / m;
      const int64_t i = r % m;
      const float* ab = a + bi * a_bstride;
      const float* bb = b + bi * b_bstride;
      float* cb = c + bi * c_bstride + i * n;
      const float* arow = transpose_a ? ab + i : ab + i * k;
      const int64_t a_stride = transpose_a ? m : 1;
      if (!transpose_b) {
        K.gemm_row(arow, a_stride, bb, cb, k, n);
      } else if (!transpose_a) {
        for (int64_t j = 0; j < n; ++j) cb[j] = K.dot(arow, bb + j * k, k);
      } else {
        // Both transposed: neither operand is contiguous along the reduction
        // axis; no caller uses this form, keep the plain loop.
        for (int64_t j = 0; j < n; ++j) {
          float acc = 0.0f;
          for (int64_t kk = 0; kk < k; ++kk) {
            acc += ab[kk * m + i] * bb[j * k + kk];
          }
          cb[j] = acc;
        }
      }
    }
  });
}

struct MatMulPlan {
  int64_t batch = 1;
  int64_t m = 0, k = 0, n = 0;
  int64_t a_bstride = 0, b_bstride = 0;
  Shape out_shape;
};

MatMulPlan PlanMatMul(const Shape& a, const Shape& b) {
  CF_CHECK_GE(a.ndim(), 2) << "MatMul lhs must be at least 2-D";
  CF_CHECK_GE(b.ndim(), 2) << "MatMul rhs must be at least 2-D";
  MatMulPlan plan;
  plan.m = a[a.ndim() - 2];
  plan.k = a[a.ndim() - 1];
  const int64_t k2 = b[b.ndim() - 2];
  plan.n = b[b.ndim() - 1];
  CF_CHECK_EQ(plan.k, k2) << "MatMul inner dims: " << a.ToString() << " @ "
                          << b.ToString();

  std::vector<int64_t> a_batch(a.dims().begin(), a.dims().end() - 2);
  std::vector<int64_t> b_batch(b.dims().begin(), b.dims().end() - 2);
  CF_CHECK(a_batch.empty() || b_batch.empty() || a_batch == b_batch)
      << "MatMul batch dims must match or one operand must be 2-D: "
      << a.ToString() << " @ " << b.ToString();
  const std::vector<int64_t>& batch_dims = a_batch.empty() ? b_batch : a_batch;
  plan.batch = 1;
  for (const int64_t d : batch_dims) plan.batch *= d;
  plan.a_bstride = a_batch.empty() ? 0 : plan.m * plan.k;
  plan.b_bstride = b_batch.empty() ? 0 : plan.k * plan.n;

  std::vector<int64_t> out_dims = batch_dims;
  out_dims.push_back(plan.m);
  out_dims.push_back(plan.n);
  plan.out_shape = Shape(std::move(out_dims));
  return plan;
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  const MatMulPlan plan = PlanMatMul(a.shape(), b.shape());
  Tensor out = Tensor::Empty(plan.out_shape);  // kernel writes every row
  {
    obs::ScopedPhaseTimer timer("kernel.matmul", /*kernel=*/true);
    MatMulKernel(a.data(), b.data(), out.data(), plan.batch, plan.m, plan.k,
                 plan.n, plan.a_bstride, plan.b_bstride, plan.m * plan.n,
                 /*transpose_a=*/false, /*transpose_b=*/false);
  }

  return MakeOp("matmul", {a, b}, out, [a, b, plan](
                                           const Tensor&, const Tensor& cot,
                                           const std::vector<bool>& needs) {
    // dA = cot @ B^T, dB = A^T @ cot; broadcast batches reduce by summation.
    obs::ScopedPhaseTimer timer("kernel.matmul", /*kernel=*/true);
    const bool a_batched = plan.a_bstride != 0;
    const bool b_batched = plan.b_bstride != 0;

    Tensor ga;
    if (needs[0]) {
      Tensor ga_full =
          Tensor::Empty(a_batched ? a.shape()
                                  : Shape({plan.batch, plan.m, plan.k}));
      MatMulKernel(cot.data(), b.data(), ga_full.data(), plan.batch, plan.m,
                   plan.n, plan.k, plan.m * plan.n, plan.b_bstride,
                   plan.m * plan.k, /*transpose_a=*/false,
                   /*transpose_b=*/true);
      ga = a_batched || plan.batch == 1
               ? (a_batched ? ga_full : Reshape(ga_full, a.shape()))
               : ReduceToShape(ga_full, Shape({1, plan.m, plan.k}));
      if (!a_batched && plan.batch > 1) ga = Reshape(ga, a.shape());
    }

    Tensor gb;
    if (needs[1]) {
      Tensor gb_full =
          Tensor::Empty(b_batched ? b.shape()
                                  : Shape({plan.batch, plan.k, plan.n}));
      MatMulKernel(a.data(), cot.data(), gb_full.data(), plan.batch, plan.k,
                   plan.m, plan.n, plan.a_bstride, plan.m * plan.n,
                   plan.k * plan.n, /*transpose_a=*/true,
                   /*transpose_b=*/false);
      gb = b_batched || plan.batch == 1
               ? (b_batched ? gb_full : Reshape(gb_full, b.shape()))
               : ReduceToShape(gb_full, Shape({1, plan.k, plan.n}));
      if (!b_batched && plan.batch > 1) gb = Reshape(gb, b.shape());
    }

    return std::vector<Tensor>{ga, gb};
  });
}

}  // namespace causalformer

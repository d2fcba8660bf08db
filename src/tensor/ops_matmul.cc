#include <algorithm>

#include "obs/trace.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace causalformer {

namespace {

// C[b] = A[b] (m x k) @ B[b] (k x n), row-major. `batch_stride_*` of 0
// broadcasts that operand across batches; with `transpose_a`, A[b] is stored
// (k x m) and read down its columns. Each ParallelFor chunk makes one
// gemm_rows call per batch matrix it touches.
void MatMulKernel(const float* a, const float* b, float* c, int64_t batch,
                  int64_t m, int64_t k, int64_t n, int64_t a_bstride,
                  int64_t b_bstride, int64_t c_bstride, bool transpose_a) {
  const simd::KernelTable& K = simd::Active();
  const int64_t a_row_step = transpose_a ? 1 : k;
  const int64_t a_stride = transpose_a ? m : 1;
  if (b_bstride == 0 && !transpose_a && a_bstride == m * k &&
      c_bstride == m * n) {
    // One B for every batch, and A's and C's rows run on across batches: the
    // batches are one (batch * m) x k matrix.
    m *= batch;
    batch = 1;
  }
  const int64_t row_cost = k * n;  // one output row: n length-k sums
  ParallelFor(batch * m, row_cost, [&](int64_t begin, int64_t end) {
    for (int64_t r = begin; r < end;) {
      const int64_t bi = r / m;
      const int64_t i = r % m;
      const int64_t rows = std::min(end - r, m - i);
      K.gemm_rows(a + bi * a_bstride + i * a_row_step, a_row_step, a_stride,
                  b + bi * b_bstride, c + bi * c_bstride + i * n, rows, k, n);
      r += rows;
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

  const int a_batch = a.ndim() - 2;
  const int b_batch = b.ndim() - 2;
  CF_CHECK(a_batch == 0 || b_batch == 0 ||
           (a_batch == b_batch &&
            std::equal(a.begin(), a.end() - 2, b.begin())))
      << "MatMul batch dims must match or one operand must be 2-D: "
      << a.ToString() << " @ " << b.ToString();
  const Shape& batched = a_batch == 0 ? b : a;
  int64_t out_dims[kMaxRank];
  const int nd = batched.ndim();
  std::copy(batched.begin(), batched.end() - 2, out_dims);
  plan.batch = 1;
  for (int i = 0; i < nd - 2; ++i) plan.batch *= out_dims[i];
  plan.a_bstride = a_batch == 0 ? 0 : plan.m * plan.k;
  plan.b_bstride = b_batch == 0 ? 0 : plan.k * plan.n;

  out_dims[nd - 2] = plan.m;
  out_dims[nd - 1] = plan.n;
  plan.out_shape = Shape(out_dims, nd);
  return plan;
}

// dA = cot @ B^T, dB = A^T @ cot; broadcast batches reduce by summation.
void MatMulVjp(const Node& node, const Tensor&, const Tensor& cot,
               InputMask needs, Tensor* grads) {
  obs::ScopedPhaseTimer timer("kernel.matmul", /*kernel=*/true);
  const Tensor& a = node.inputs[0];
  const Tensor& b = node.inputs[1];
  const MatMulPlan plan = PlanMatMul(a.shape(), b.shape());
  const bool a_batched = plan.a_bstride != 0;
  const bool b_batched = plan.b_bstride != 0;

  if (HasInput(needs, 0)) {
    Tensor ga_full =
        Tensor::Empty(a_batched ? a.shape()
                                : Shape({plan.batch, plan.m, plan.k}));
    // B^T packed once (per batch when B is batched), so dA is a plain
    // product. Under the scalar table each element is still one sequential
    // sum over n, as CF_SIMD=off's bit-identity requires.
    const int64_t b_count = b_batched ? plan.batch : 1;
    Tensor bt = Tensor::Empty(Shape{b_count, plan.n, plan.k});
    TransposeMatrices(b.data(), bt.data(), b_count, plan.k, plan.n);
    MatMulKernel(cot.data(), bt.data(), ga_full.data(), plan.batch, plan.m,
                 plan.n, plan.k, plan.m * plan.n, plan.b_bstride,
                 plan.m * plan.k, /*transpose_a=*/false);
    Tensor ga = a_batched || plan.batch == 1
                    ? (a_batched ? ga_full : Reshape(ga_full, a.shape()))
                    : ReduceToShape(ga_full, Shape({1, plan.m, plan.k}));
    if (!a_batched && plan.batch > 1) ga = Reshape(ga, a.shape());
    grads[0] = std::move(ga);
  }

  if (HasInput(needs, 1)) {
    Tensor gb_full =
        Tensor::Empty(b_batched ? b.shape()
                                : Shape({plan.batch, plan.k, plan.n}));
    MatMulKernel(a.data(), cot.data(), gb_full.data(), plan.batch, plan.k,
                 plan.m, plan.n, plan.a_bstride, plan.m * plan.n,
                 plan.k * plan.n, /*transpose_a=*/true);
    Tensor gb = b_batched || plan.batch == 1
                    ? (b_batched ? gb_full : Reshape(gb_full, b.shape()))
                    : ReduceToShape(gb_full, Shape({1, plan.k, plan.n}));
    if (!b_batched && plan.batch > 1) gb = Reshape(gb, b.shape());
    grads[1] = std::move(gb);
  }
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  const MatMulPlan plan = PlanMatMul(a.shape(), b.shape());
  Tensor out = Tensor::Empty(plan.out_shape);  // kernel writes every row
  {
    obs::ScopedPhaseTimer timer("kernel.matmul", /*kernel=*/true);
    MatMulKernel(a.data(), b.data(), out.data(), plan.batch, plan.m, plan.k,
                 plan.n, plan.a_bstride, plan.b_bstride, plan.m * plan.n,
                 /*transpose_a=*/false);
  }
  return MakeOp("matmul", {a, b}, std::move(out), MatMulVjp);
}

}  // namespace causalformer

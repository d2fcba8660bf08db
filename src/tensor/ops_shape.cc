#include <algorithm>
#include <cstring>

#include "tensor/ops.h"
#include "util/logging.h"

namespace causalformer {

namespace {

int ResolveAxis(int axis, int ndim) {
  if (axis < 0) axis += ndim;
  CF_CHECK_GE(axis, 0);
  CF_CHECK_LT(axis, ndim);
  return axis;
}

}  // namespace

Tensor Reshape(const Tensor& x, const Shape& shape) {
  CF_CHECK_EQ(x.numel(), shape.numel())
      << "Reshape " << x.shape().ToString() << " -> " << shape.ToString();
  Tensor out = Tensor::FromVector(
      shape, std::vector<float>(x.data(), x.data() + x.numel()));
  return MakeOp("reshape", {x}, out,
                [x](const Tensor&, const Tensor& cot,
                    const std::vector<bool>&) {
                  Tensor g = Tensor::FromVector(
                      x.shape(),
                      std::vector<float>(cot.data(), cot.data() + cot.numel()));
                  return std::vector<Tensor>{g};
                });
}

void TransposeMatrices(const float* src, float* dst, int64_t batch,
                       int64_t rows, int64_t cols) {
  for (int64_t bi = 0; bi < batch; ++bi) {
    const float* s = src + bi * rows * cols;
    float* d = dst + bi * rows * cols;
    for (int64_t c = 0; c < cols; ++c) {
      for (int64_t r = 0; r < rows; ++r) d[c * rows + r] = s[r * cols + c];
    }
  }
}

Tensor Transpose(const Tensor& x, int dim0, int dim1) {
  const int d0 = ResolveAxis(dim0, x.ndim());
  const int d1 = ResolveAxis(dim1, x.ndim());
  std::vector<int64_t> out_dims = x.shape().dims();
  std::swap(out_dims[d0], out_dims[d1]);
  const Shape out_shape{std::vector<int64_t>(out_dims)};
  Tensor out = Tensor::Empty(out_shape);  // every element written below
  const int nd = x.ndim();
  const float* px = x.data();
  float* po = out.data();

  if (std::min(d0, d1) == nd - 2 && std::max(d0, d1) == nd - 1) {
    // The last two dims: a batch of 2-D transposes.
    const int64_t rows = x.shape()[nd - 2];
    const int64_t cols = x.shape()[nd - 1];
    const int64_t batch = rows * cols == 0 ? 0 : x.numel() / (rows * cols);
    TransposeMatrices(px, po, batch, rows, cols);
  } else {
    const auto in_strides = ContiguousStrides(x.shape());
    std::vector<int64_t> perm_strides(nd);
    for (int i = 0; i < nd; ++i) perm_strides[i] = in_strides[i];
    std::swap(perm_strides[d0], perm_strides[d1]);
    std::vector<int64_t> idx(nd, 0);
    int64_t src = 0;
    const int64_t n = x.numel();
    for (int64_t i = 0; i < n; ++i) {
      po[i] = px[src];
      for (int d = nd - 1; d >= 0; --d) {
        ++idx[d];
        src += perm_strides[d];
        if (idx[d] < out_dims[d]) break;
        src -= perm_strides[d] * out_dims[d];
        idx[d] = 0;
      }
    }
  }
  return MakeOp("transpose", {x}, out,
                [d0, d1](const Tensor&, const Tensor& cot,
                         const std::vector<bool>&) {
                  // Gradient of a transpose is the same transpose. The
                  // cotangent never requires grad, so no tape node is added.
                  return std::vector<Tensor>{Transpose(cot, d0, d1)};
                });
}

Tensor Slice(const Tensor& x, int axis, int64_t start, int64_t end) {
  const int ax = ResolveAxis(axis, x.ndim());
  CF_CHECK_GE(start, 0);
  CF_CHECK_LE(end, x.shape()[ax]);
  CF_CHECK_LT(start, end);
  int64_t outer = 1, inner = 1;
  for (int i = 0; i < ax; ++i) outer *= x.shape()[i];
  for (int i = ax + 1; i < x.ndim(); ++i) inner *= x.shape()[i];
  const int64_t len = x.shape()[ax];
  const int64_t out_len = end - start;

  std::vector<int64_t> out_dims = x.shape().dims();
  out_dims[ax] = out_len;
  Tensor out = Tensor::Zeros(Shape(std::move(out_dims)));
  const float* px = x.data();
  float* po = out.data();
  for (int64_t o = 0; o < outer; ++o) {
    std::memcpy(po + o * out_len * inner, px + (o * len + start) * inner,
                static_cast<size_t>(out_len * inner) * sizeof(float));
  }
  return MakeOp(
      "slice", {x}, out,
      [x, outer, inner, len, out_len, start](const Tensor&, const Tensor& cot,
                                             const std::vector<bool>&) {
        Tensor g = Tensor::Zeros(x.shape());
        const float* pc = cot.data();
        float* pg = g.data();
        for (int64_t o = 0; o < outer; ++o) {
          std::memcpy(pg + (o * len + start) * inner, pc + o * out_len * inner,
                      static_cast<size_t>(out_len * inner) * sizeof(float));
        }
        return std::vector<Tensor>{g};
      });
}

Tensor Concat(const std::vector<Tensor>& parts, int axis) {
  CF_CHECK(!parts.empty());
  const int ax = ResolveAxis(axis, parts[0].ndim());
  int64_t total = 0;
  for (const auto& p : parts) {
    CF_CHECK_EQ(p.ndim(), parts[0].ndim());
    for (int d = 0; d < p.ndim(); ++d) {
      if (d != ax) CF_CHECK_EQ(p.shape()[d], parts[0].shape()[d]);
    }
    total += p.shape()[ax];
  }
  std::vector<int64_t> out_dims = parts[0].shape().dims();
  out_dims[ax] = total;
  const Shape out_shape{std::vector<int64_t>(out_dims)};
  Tensor out = Tensor::Zeros(out_shape);

  int64_t outer = 1, inner = 1;
  for (int i = 0; i < ax; ++i) outer *= out_shape[i];
  for (int i = ax + 1; i < out_shape.ndim(); ++i) inner *= out_shape[i];

  float* po = out.data();
  int64_t offset = 0;
  for (const auto& p : parts) {
    const int64_t plen = p.shape()[ax];
    const float* pp = p.data();
    for (int64_t o = 0; o < outer; ++o) {
      std::memcpy(po + (o * total + offset) * inner, pp + o * plen * inner,
                  static_cast<size_t>(plen * inner) * sizeof(float));
    }
    offset += plen;
  }

  std::vector<int64_t> part_lens;
  part_lens.reserve(parts.size());
  for (const auto& p : parts) part_lens.push_back(p.shape()[ax]);

  return MakeOp("concat", parts, out,
                [parts, part_lens, outer, inner, total](
                    const Tensor&, const Tensor& cot,
                    const std::vector<bool>&) {
                  std::vector<Tensor> grads;
                  grads.reserve(parts.size());
                  const float* pc = cot.data();
                  int64_t offset = 0;
                  for (size_t pi = 0; pi < parts.size(); ++pi) {
                    const int64_t plen = part_lens[pi];
                    Tensor g = Tensor::Zeros(parts[pi].shape());
                    float* pg = g.data();
                    for (int64_t o = 0; o < outer; ++o) {
                      std::memcpy(pg + o * plen * inner,
                                  pc + (o * total + offset) * inner,
                                  static_cast<size_t>(plen * inner) *
                                      sizeof(float));
                    }
                    offset += plen;
                    grads.push_back(g);
                  }
                  return grads;
                });
}

Tensor Unsqueeze(const Tensor& x, int axis) {
  int ax = axis;
  if (ax < 0) ax += x.ndim() + 1;
  CF_CHECK_GE(ax, 0);
  CF_CHECK_LE(ax, x.ndim());
  std::vector<int64_t> dims = x.shape().dims();
  dims.insert(dims.begin() + ax, 1);
  return Reshape(x, Shape(std::move(dims)));
}

Tensor Squeeze(const Tensor& x, int axis) {
  const int ax = ResolveAxis(axis, x.ndim());
  CF_CHECK_EQ(x.shape()[ax], 1) << "Squeeze on non-unit dim";
  std::vector<int64_t> dims = x.shape().dims();
  dims.erase(dims.begin() + ax);
  return Reshape(x, Shape(std::move(dims)));
}

Tensor TileBatch(const Tensor& x, int64_t count) {
  CF_CHECK(x.defined());
  CF_CHECK_GT(count, 0);
  std::vector<int64_t> dims = x.shape().dims();
  dims.insert(dims.begin(), count);
  const Shape out_shape{std::vector<int64_t>(dims)};
  Tensor out = Tensor::Zeros(out_shape);
  const int64_t inner = x.numel();
  const float* px = x.data();
  float* po = out.data();
  for (int64_t c = 0; c < count; ++c) {
    std::memcpy(po + c * inner, px, static_cast<size_t>(inner) * sizeof(float));
  }
  return MakeOp("tile_batch", {x}, out,
                [x, count, inner](const Tensor&, const Tensor& cot,
                                  const std::vector<bool>&) {
                  Tensor g = Tensor::Zeros(x.shape());
                  float* pg = g.data();
                  const float* pc = cot.data();
                  for (int64_t c = 0; c < count; ++c) {
                    const float* src = pc + c * inner;
                    for (int64_t i = 0; i < inner; ++i) pg[i] += src[i];
                  }
                  return std::vector<Tensor>{g};
                });
}

}  // namespace causalformer

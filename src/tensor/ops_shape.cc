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
  Tensor out = Tensor::Empty(shape);
  std::memcpy(out.data(), x.data(),
              static_cast<size_t>(x.numel()) * sizeof(float));
  return MakeOp("reshape", {x}, std::move(out),
                [](const Node& node, const Tensor&, const Tensor& cot,
                   InputMask, Tensor* grads) {
                  Tensor g = Tensor::Empty(node.inputs[0].shape());
                  std::memcpy(g.data(), cot.data(),
                              static_cast<size_t>(cot.numel()) * sizeof(float));
                  grads[0] = std::move(g);
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
  const Shape out_shape =
      x.shape().WithDim(d0, x.shape()[d1]).WithDim(d1, x.shape()[d0]);
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
    DimArray perm_strides = ContiguousStrides(x.shape());
    std::swap(perm_strides[static_cast<size_t>(d0)],
              perm_strides[static_cast<size_t>(d1)]);
    DimArray out_dims{}, idx{};
    std::copy(out_shape.begin(), out_shape.end(), out_dims.begin());
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
  struct Axes {
    int d0, d1;
  };
  return MakeOp("transpose", {x}, std::move(out),
                [](const Node& node, const Tensor&, const Tensor& cot,
                   InputMask, Tensor* grads) {
                  // Gradient of a transpose is the same transpose. The
                  // cotangent never requires grad, so no tape node is added.
                  const Axes axes = node.attr<Axes>();
                  grads[0] = Transpose(cot, axes.d0, axes.d1);
                },
                Axes{d0, d1});
}

namespace {

// outer * len * inner around `axis`.
void SplitAround(const Shape& shape, int axis, int64_t* outer, int64_t* len,
                 int64_t* inner) {
  *outer = 1;
  *inner = 1;
  for (int i = 0; i < axis; ++i) *outer *= shape[i];
  *len = shape[axis];
  for (int i = axis + 1; i < shape.ndim(); ++i) *inner *= shape[i];
}

struct SliceAttrs {
  int axis;
  int64_t start;
};

}  // namespace

Tensor Slice(const Tensor& x, int axis, int64_t start, int64_t end) {
  const int ax = ResolveAxis(axis, x.ndim());
  CF_CHECK_GE(start, 0);
  CF_CHECK_LE(end, x.shape()[ax]);
  CF_CHECK_LT(start, end);
  int64_t outer, len, inner;
  SplitAround(x.shape(), ax, &outer, &len, &inner);
  const int64_t out_len = end - start;

  Tensor out = Tensor::Zeros(x.shape().WithDim(ax, out_len));
  const float* px = x.data();
  float* po = out.data();
  for (int64_t o = 0; o < outer; ++o) {
    std::memcpy(po + o * out_len * inner, px + (o * len + start) * inner,
                static_cast<size_t>(out_len * inner) * sizeof(float));
  }
  return MakeOp(
      "slice", {x}, std::move(out),
      [](const Node& node, const Tensor& out, const Tensor& cot, InputMask,
         Tensor* grads) {
        const SliceAttrs at = node.attr<SliceAttrs>();
        const Tensor& x = node.inputs[0];
        int64_t outer, len, inner;
        SplitAround(x.shape(), at.axis, &outer, &len, &inner);
        const int64_t out_len = out.shape()[at.axis];
        Tensor g = Tensor::Zeros(x.shape());
        const float* pc = cot.data();
        float* pg = g.data();
        for (int64_t o = 0; o < outer; ++o) {
          std::memcpy(pg + (o * len + at.start) * inner,
                      pc + o * out_len * inner,
                      static_cast<size_t>(out_len * inner) * sizeof(float));
        }
        grads[0] = std::move(g);
      },
      SliceAttrs{ax, start});
}

namespace {

// One concat node over at most kMaxNodeInputs parts.
Tensor ConcatNode(const Tensor* parts, int count, int ax) {
  int64_t total = 0;
  for (int p = 0; p < count; ++p) {
    CF_CHECK_EQ(parts[p].ndim(), parts[0].ndim());
    for (int d = 0; d < parts[p].ndim(); ++d) {
      if (d != ax) CF_CHECK_EQ(parts[p].shape()[d], parts[0].shape()[d]);
    }
    total += parts[p].shape()[ax];
  }
  const Shape out_shape = parts[0].shape().WithDim(ax, total);
  Tensor out = Tensor::Zeros(out_shape);

  int64_t outer, len, inner;
  SplitAround(out_shape, ax, &outer, &len, &inner);
  float* po = out.data();
  int64_t offset = 0;
  for (int p = 0; p < count; ++p) {
    const int64_t plen = parts[p].shape()[ax];
    const float* pp = parts[p].data();
    for (int64_t o = 0; o < outer; ++o) {
      std::memcpy(po + (o * total + offset) * inner, pp + o * plen * inner,
                  static_cast<size_t>(plen * inner) * sizeof(float));
    }
    offset += plen;
  }

  const VjpFn vjp = [](const Node& node, const Tensor& out, const Tensor& cot,
                       InputMask, Tensor* grads) {
    const int ax = node.attr<int>();
    int64_t outer, total, inner;
    SplitAround(out.shape(), ax, &outer, &total, &inner);
    const float* pc = cot.data();
    int64_t offset = 0;
    for (int pi = 0; pi < node.num_inputs; ++pi) {
      const Shape& part = node.inputs[pi].shape();
      const int64_t plen = part[ax];
      Tensor g = Tensor::Zeros(part);
      float* pg = g.data();
      for (int64_t o = 0; o < outer; ++o) {
        std::memcpy(pg + o * plen * inner, pc + (o * total + offset) * inner,
                    static_cast<size_t>(plen * inner) * sizeof(float));
      }
      offset += plen;
      grads[pi] = std::move(g);
    }
  };
  return MakeOp("concat", parts, count, std::move(out), vjp, &ax, sizeof(ax),
                Tensor());
}

}  // namespace

Tensor Concat(const std::vector<Tensor>& parts, int axis) {
  CF_CHECK(!parts.empty());
  const int ax = ResolveAxis(axis, parts[0].ndim());
  const size_t group = static_cast<size_t>(kMaxNodeInputs);
  if (parts.size() <= group) {
    return ConcatNode(parts.data(), static_cast<int>(parts.size()), ax);
  }
  // A node holds at most kMaxNodeInputs inputs, so longer lists concatenate
  // in consecutive groups, then the groups. The parts keep their order on
  // the tape: a walk reaches them in the same order and each gets the same
  // copied cotangent as from one node over all of them.
  std::vector<Tensor> groups;
  groups.reserve((parts.size() + group - 1) / group);
  for (size_t i = 0; i < parts.size(); i += group) {
    const size_t count = std::min(group, parts.size() - i);
    groups.push_back(count == 1 ? parts[i]
                                : ConcatNode(parts.data() + i,
                                             static_cast<int>(count), ax));
  }
  return Concat(groups, ax);
}

Tensor Unsqueeze(const Tensor& x, int axis) {
  int ax = axis;
  if (ax < 0) ax += x.ndim() + 1;
  CF_CHECK_GE(ax, 0);
  CF_CHECK_LE(ax, x.ndim());
  return Reshape(x, x.shape().Inserted(ax, 1));
}

Tensor Squeeze(const Tensor& x, int axis) {
  const int ax = ResolveAxis(axis, x.ndim());
  CF_CHECK_EQ(x.shape()[ax], 1) << "Squeeze on non-unit dim";
  return Reshape(x, x.shape().Erased(ax));
}

Tensor TileBatch(const Tensor& x, int64_t count) {
  CF_CHECK(x.defined());
  CF_CHECK_GT(count, 0);
  Tensor out = Tensor::Zeros(x.shape().Inserted(0, count));
  const int64_t inner = x.numel();
  const float* px = x.data();
  float* po = out.data();
  for (int64_t c = 0; c < count; ++c) {
    std::memcpy(po + c * inner, px, static_cast<size_t>(inner) * sizeof(float));
  }
  return MakeOp("tile_batch", {x}, std::move(out),
                [](const Node& node, const Tensor& out, const Tensor& cot,
                   InputMask, Tensor* grads) {
                  const Tensor& x = node.inputs[0];
                  const int64_t count = out.shape()[0];
                  const int64_t inner = x.numel();
                  Tensor g = Tensor::Zeros(x.shape());
                  float* pg = g.data();
                  const float* pc = cot.data();
                  for (int64_t c = 0; c < count; ++c) {
                    const float* src = pc + c * inner;
                    for (int64_t i = 0; i < inner; ++i) pg[i] += src[i];
                  }
                  grads[0] = std::move(g);
                });
}

}  // namespace causalformer

#include <cmath>
#include <functional>

#include "tensor/ops.h"
#include "tensor/simd.h"
#include "util/logging.h"

namespace causalformer {

namespace {

// Which arithmetic op a BroadcastBinary call performs, so the contiguous fast
// paths can dispatch to the vectorized kernel table instead of calling the
// std::function per element. kGeneric keeps the scalar closure.
enum class BinKind { kGeneric, kAdd, kSub, kMul, kDiv };

// The kernel-table entry of an arithmetic kind (not kGeneric).
using ArithKernel = void (*)(const float*, const float*, float*, int64_t);
ArithKernel KernelFor(const simd::KernelTable& K, BinKind kind) {
  switch (kind) {
    case BinKind::kAdd:
      return K.add;
    case BinKind::kSub:
      return K.sub;
    case BinKind::kMul:
      return K.mul;
    default:
      return K.div;
  }
}

// True when b broadcasts along a's leading dims only: b's shape, less any
// leading 1s, equals a's trailing dims (a bias [d] against [B, T, d], a mask
// [N, N] against [B, N, N]). The output then has a's layout, and b repeats
// every b.numel() elements.
bool TrailingBroadcast(const Shape& a, const Shape& b) {
  int lead = 0;
  while (lead < b.ndim() && b[lead] == 1) ++lead;
  const int core = b.ndim() - lead;
  if (core > a.ndim()) return false;
  for (int i = 0; i < core; ++i) {
    if (b[lead + i] != a[a.ndim() - core + i]) return false;
  }
  return true;
}

// Applies fn(a_i, b_i) with NumPy broadcasting. Fast paths: identical shapes,
// scalar operands and a trailing-broadcast b (vectorized for the arithmetic
// kinds); general path walks output indices with stride-0 for broadcast
// dimensions.
Tensor BroadcastBinary(const Tensor& a, const Tensor& b, BinKind kind,
                       const std::function<float(float, float)>& fn) {
  const Shape out_shape = BroadcastShapes(a.shape(), b.shape());
  Tensor out = Tensor::Empty(out_shape);  // every element written below
  float* o = out.data();
  const float* pa = a.data();
  const float* pb = b.data();
  const int64_t n = out_shape.numel();
  const simd::KernelTable& K = simd::Active();

  if (a.shape() == b.shape()) {
    if (kind != BinKind::kGeneric) {
      KernelFor(K, kind)(pa, pb, o, n);
    } else {
      for (int64_t i = 0; i < n; ++i) o[i] = fn(pa[i], pb[i]);
    }
    return out;
  }
  if (a.numel() == 1) {
    const float va = pa[0];
    if (kind == BinKind::kAdd) {
      K.add_scalar(va, pb, o, n);
    } else if (kind == BinKind::kMul) {
      K.scale(va, pb, o, n);
    } else {
      for (int64_t i = 0; i < n; ++i) o[i] = fn(va, pb[i]);
    }
    return out;
  }
  if (b.numel() == 1) {
    const float vb = pb[0];
    if (kind == BinKind::kAdd) {
      K.add_scalar(vb, pa, o, n);
    } else if (kind == BinKind::kSub) {
      // x - c == x + (-c) exactly in IEEE-754.
      K.add_scalar(-vb, pa, o, n);
    } else if (kind == BinKind::kMul) {
      K.scale(vb, pa, o, n);
    } else {
      for (int64_t i = 0; i < n; ++i) o[i] = fn(pa[i], vb);
    }
    return out;
  }
  if (kind != BinKind::kGeneric && TrailingBroadcast(a.shape(), b.shape())) {
    // One kernel call per repeat of b; each element still gets exactly
    // fn(a_i, b_j), so the result equals the general path's bit for bit.
    const ArithKernel kernel = KernelFor(K, kind);
    const int64_t m = b.numel();
    for (int64_t off = 0; off < n; off += m) kernel(pa + off, pb, o + off, m);
    return out;
  }

  // General case: per-dimension strides, 0 where the operand broadcasts.
  const int nd = out_shape.ndim();
  std::vector<int64_t> sa(nd, 0), sb(nd, 0), idx(nd, 0);
  {
    const auto stra = ContiguousStrides(a.shape());
    const auto strb = ContiguousStrides(b.shape());
    for (int i = 1; i <= nd; ++i) {
      if (i <= a.ndim() && a.shape()[a.ndim() - i] != 1) {
        sa[nd - i] = stra[a.ndim() - i];
      }
      if (i <= b.ndim() && b.shape()[b.ndim() - i] != 1) {
        sb[nd - i] = strb[b.ndim() - i];
      }
    }
  }
  const std::vector<int64_t>& od = out_shape.dims();
  int64_t oa = 0, ob = 0;
  for (int64_t i = 0; i < n; ++i) {
    o[i] = fn(pa[oa], pb[ob]);
    // Odometer increment over the output index.
    for (int d = nd - 1; d >= 0; --d) {
      ++idx[d];
      oa += sa[d];
      ob += sb[d];
      if (idx[d] < od[d]) break;
      oa -= sa[d] * od[d];
      ob -= sb[d] * od[d];
      idx[d] = 0;
    }
  }
  return out;
}

// Elementwise unary with VJP dX = dfn(x, y) * cot. The element functions are
// template parameters, so both loops inline them instead of making an
// indirect call per element.
template <typename Fn, typename DFn>
Tensor UnaryOp(const std::string& name, const Tensor& x, Fn fn, DFn dfn_xy) {
  Tensor out = Tensor::Empty(x.shape());
  const float* px = x.data();
  float* po = out.data();
  const int64_t n = x.numel();
  for (int64_t i = 0; i < n; ++i) po[i] = fn(px[i]);
  return MakeOp(name, {x}, out,
                [x, dfn_xy](const Tensor& y, const Tensor& cot,
                            const std::vector<bool>&) {
                  Tensor gx = Tensor::Empty(x.shape());
                  const float* px = x.data();
                  const float* py = y.data();
                  const float* pc = cot.data();
                  float* pg = gx.data();
                  const int64_t n = x.numel();
                  for (int64_t i = 0; i < n; ++i) {
                    pg[i] = dfn_xy(px[i], py[i]) * pc[i];
                  }
                  return std::vector<Tensor>{gx};
                });
}

// Unary op whose forward is o = c * x and whose VJP is g = c * cot — Neg and
// Scale, which ride the vectorized scale kernel on both passes.
Tensor ScaleOp(const std::string& name, const Tensor& x, float c) {
  Tensor out = Tensor::Empty(x.shape());
  simd::Active().scale(c, x.data(), out.data(), x.numel());
  return MakeOp(name, {x}, out,
                [c](const Tensor&, const Tensor& cot,
                    const std::vector<bool>&) {
                  Tensor gx = Tensor::Empty(cot.shape());
                  simd::Active().scale(c, cot.data(), gx.data(), cot.numel());
                  return std::vector<Tensor>{gx};
                });
}

}  // namespace

Tensor ReduceToShape(const Tensor& t, const Shape& target) {
  if (t.shape() == target) return t;
  CF_CHECK(BroadcastableTo(target, t.shape()))
      << "cannot reduce " << t.shape().ToString() << " to " << target.ToString();
  Tensor out = Tensor::Zeros(target);
  float* po = out.data();
  const float* pt = t.data();
  const int nd = t.ndim();
  // Output strides aligned to t's trailing dims; 0 where target broadcasts.
  std::vector<int64_t> so(nd, 0), idx(nd, 0);
  const auto stro = ContiguousStrides(target);
  for (int i = 1; i <= nd; ++i) {
    if (i <= target.ndim() && target[target.ndim() - i] != 1) {
      so[nd - i] = stro[target.ndim() - i];
    }
  }
  const std::vector<int64_t>& td = t.shape().dims();
  const int64_t n = t.numel();
  int64_t oo = 0;
  for (int64_t i = 0; i < n; ++i) {
    po[oo] += pt[i];
    for (int d = nd - 1; d >= 0; --d) {
      ++idx[d];
      oo += so[d];
      if (idx[d] < td[d]) break;
      oo -= so[d] * td[d];
      idx[d] = 0;
    }
  }
  return out;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  Tensor out = BroadcastBinary(a, b, BinKind::kAdd,
                               [](float x, float y) { return x + y; });
  return MakeOp("add", {a, b}, out,
                [a, b](const Tensor&, const Tensor& cot,
                       const std::vector<bool>& needs) {
                  std::vector<Tensor> grads(2);
                  if (needs[0]) grads[0] = ReduceToShape(cot, a.shape());
                  if (needs[1]) grads[1] = ReduceToShape(cot, b.shape());
                  return grads;
                });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  Tensor out = BroadcastBinary(a, b, BinKind::kSub,
                               [](float x, float y) { return x - y; });
  return MakeOp("sub", {a, b}, out,
                [a, b](const Tensor&, const Tensor& cot,
                       const std::vector<bool>& needs) {
                  std::vector<Tensor> grads(2);
                  if (needs[0]) grads[0] = ReduceToShape(cot, a.shape());
                  if (needs[1]) {
                    Tensor gb = Tensor::Empty(cot.shape());
                    simd::Active().scale(-1.0f, cot.data(), gb.data(),
                                         cot.numel());
                    grads[1] = ReduceToShape(gb, b.shape());
                  }
                  return grads;
                });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  Tensor out = BroadcastBinary(a, b, BinKind::kMul,
                               [](float x, float y) { return x * y; });
  return MakeOp("mul", {a, b}, out,
                [a, b](const Tensor&, const Tensor& cot,
                       const std::vector<bool>& needs) {
                  auto times = [](float c, float v) { return c * v; };
                  std::vector<Tensor> grads(2);
                  if (needs[0]) {
                    grads[0] = ReduceToShape(
                        BroadcastBinary(cot, b, BinKind::kMul, times),
                        a.shape());
                  }
                  if (needs[1]) {
                    grads[1] = ReduceToShape(
                        BroadcastBinary(cot, a, BinKind::kMul, times),
                        b.shape());
                  }
                  return grads;
                });
}

Tensor Div(const Tensor& a, const Tensor& b) {
  Tensor out = BroadcastBinary(a, b, BinKind::kDiv,
                               [](float x, float y) { return x / y; });
  return MakeOp("div", {a, b}, out,
                [a, b](const Tensor&, const Tensor& cot,
                       const std::vector<bool>& needs) {
                  std::vector<Tensor> grads(2);
                  if (needs[0]) {
                    grads[0] = ReduceToShape(
                        BroadcastBinary(cot, b, BinKind::kDiv,
                                        [](float c, float y) { return c / y; }),
                        a.shape());
                  }
                  if (needs[1]) {
                    Tensor tmp = BroadcastBinary(
                        a, b, BinKind::kGeneric,
                        [](float x, float y) { return -x / (y * y); });
                    grads[1] = ReduceToShape(
                        BroadcastBinary(cot, tmp, BinKind::kMul,
                                        [](float c, float t) { return c * t; }),
                        b.shape());
                  }
                  return grads;
                });
}

Tensor Neg(const Tensor& x) { return ScaleOp("neg", x, -1.0f); }

Tensor Scale(const Tensor& x, float c) { return ScaleOp("scale", x, c); }

Tensor AddScalar(const Tensor& x, float c) {
  return UnaryOp("add_scalar", x, [c](float v) { return v + c; },
                 [](float, float) { return 1.0f; });
}

Tensor Exp(const Tensor& x) {
  return UnaryOp("exp", x, [](float v) { return std::exp(v); },
                 [](float, float y) { return y; });
}

Tensor Log(const Tensor& x) {
  return UnaryOp("log", x, [](float v) { return std::log(v); },
                 [](float v, float) { return 1.0f / v; });
}

Tensor Sqrt(const Tensor& x) {
  return UnaryOp("sqrt", x, [](float v) { return std::sqrt(v); },
                 [](float, float y) { return 0.5f / y; });
}

Tensor Abs(const Tensor& x) {
  return UnaryOp("abs", x, [](float v) { return std::fabs(v); },
                 [](float v, float) { return v > 0.0f ? 1.0f : (v < 0.0f ? -1.0f : 0.0f); });
}

Tensor Square(const Tensor& x) {
  return UnaryOp("square", x, [](float v) { return v * v; },
                 [](float v, float) { return 2.0f * v; });
}

Tensor Tanh(const Tensor& x) {
  return UnaryOp("tanh", x, [](float v) { return std::tanh(v); },
                 [](float, float y) { return 1.0f - y * y; });
}

Tensor Sigmoid(const Tensor& x) {
  return UnaryOp("sigmoid", x,
                 [](float v) { return 1.0f / (1.0f + std::exp(-v)); },
                 [](float, float y) { return y * (1.0f - y); });
}

Tensor Relu(const Tensor& x) {
  return UnaryOp("relu", x, [](float v) { return v > 0.0f ? v : 0.0f; },
                 [](float v, float) { return v > 0.0f ? 1.0f : 0.0f; });
}

Tensor LeakyRelu(const Tensor& x, float slope) {
  return UnaryOp("leaky_relu", x,
                 [slope](float v) { return v > 0.0f ? v : slope * v; },
                 [slope](float v, float) { return v > 0.0f ? 1.0f : slope; });
}

Tensor Pow(const Tensor& x, float exponent) {
  return UnaryOp("pow", x,
                 [exponent](float v) { return std::pow(v, exponent); },
                 [exponent](float v, float) {
                   return exponent * std::pow(v, exponent - 1.0f);
                 });
}

}  // namespace causalformer

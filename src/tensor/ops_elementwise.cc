#include <algorithm>
#include <cmath>
#include <optional>

#include "tensor/ops.h"
#include "tensor/simd.h"
#include "util/logging.h"

namespace causalformer {

namespace {

using simd::ArithOp;

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

// Applies fn(a_i, b_i) with NumPy broadcasting. `op` names the kernel-table
// arithmetic that fn performs, so the fast paths (identical shapes, scalar
// operands, a trailing-broadcast b) run the vectorized table instead of
// calling fn per element; std::nullopt keeps the closure. The general path
// walks output indices with stride-0 for broadcast dimensions.
template <typename Fn>
Tensor BroadcastBinary(const Tensor& a, const Tensor& b,
                       std::optional<ArithOp> op, Fn fn) {
  const Shape out_shape = BroadcastShapes(a.shape(), b.shape());
  Tensor out = Tensor::Empty(out_shape);  // every element written below
  float* o = out.data();
  const float* pa = a.data();
  const float* pb = b.data();
  const int64_t n = out_shape.numel();
  const simd::KernelTable& K = simd::Active();

  if (a.shape() == b.shape()) {
    if (op) {
      K.binary_tiled(*op, pa, pb, n, o, n);
    } else {
      for (int64_t i = 0; i < n; ++i) o[i] = fn(pa[i], pb[i]);
    }
    return out;
  }
  if (a.numel() == 1) {
    const float va = pa[0];
    if (op == ArithOp::kAdd) {
      K.add_scalar(va, pb, o, n);
    } else if (op == ArithOp::kMul) {
      K.scale(va, pb, o, n);
    } else {
      for (int64_t i = 0; i < n; ++i) o[i] = fn(va, pb[i]);
    }
    return out;
  }
  if (b.numel() == 1) {
    const float vb = pb[0];
    if (op == ArithOp::kAdd) {
      K.add_scalar(vb, pa, o, n);
    } else if (op == ArithOp::kSub) {
      // x - c == x + (-c) exactly in IEEE-754.
      K.add_scalar(-vb, pa, o, n);
    } else if (op == ArithOp::kMul) {
      K.scale(vb, pa, o, n);
    } else {
      for (int64_t i = 0; i < n; ++i) o[i] = fn(pa[i], vb);
    }
    return out;
  }
  if (op && TrailingBroadcast(a.shape(), b.shape())) {
    // One kernel call with b's period; each element still gets exactly
    // fn(a_i, b_j), so the result equals the general path's bit for bit.
    K.binary_tiled(*op, pa, pb, b.numel(), o, n);
    return out;
  }

  // General case: per-dimension strides, 0 where the operand broadcasts.
  const int nd = out_shape.ndim();
  DimArray sa{}, sb{}, idx{}, od{};
  {
    const DimArray stra = ContiguousStrides(a.shape());
    const DimArray strb = ContiguousStrides(b.shape());
    for (int i = 1; i <= nd; ++i) {
      if (i <= a.ndim() && a.shape()[a.ndim() - i] != 1) {
        sa[nd - i] = stra[a.ndim() - i];
      }
      if (i <= b.ndim() && b.shape()[b.ndim() - i] != 1) {
        sb[nd - i] = strb[b.ndim() - i];
      }
    }
    std::copy(out_shape.begin(), out_shape.end(), od.begin());
  }
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

// The VJP of UnaryOp: dX = DFn(x, y, c) * cot, with the op's constant c kept
// in the node. DFn is a template argument, so the loop inlines it instead of
// making an indirect call per element.
template <float (*DFn)(float x, float y, float c)>
void UnaryVjp(const Node& node, const Tensor& y, const Tensor& cot, InputMask,
              Tensor* grads) {
  const Tensor& x = node.inputs[0];
  const float c = node.attr<float>();
  Tensor gx = Tensor::Empty(x.shape());
  const float* px = x.data();
  const float* py = y.data();
  const float* pc = cot.data();
  float* pg = gx.data();
  const int64_t n = x.numel();
  for (int64_t i = 0; i < n; ++i) pg[i] = DFn(px[i], py[i], c) * pc[i];
  grads[0] = std::move(gx);
}

// Elementwise unary y = fn(x) with VJP dX = DFn(x, y, c) * cot. The element
// functions are template parameters, so both loops inline them.
template <float (*DFn)(float, float, float), typename Fn>
Tensor UnaryOp(const char* name, const Tensor& x, Fn fn, float c = 0.0f) {
  Tensor out = Tensor::Empty(x.shape());
  const float* px = x.data();
  float* po = out.data();
  const int64_t n = x.numel();
  for (int64_t i = 0; i < n; ++i) po[i] = fn(px[i]);
  return MakeOp(name, {x}, std::move(out), &UnaryVjp<DFn>, c);
}

// Derivatives for UnaryOp: (x, y = f(x), the op's constant) -> f'(x).
float UnitGrad(float, float, float) { return 1.0f; }
float ExpGrad(float, float y, float) { return y; }
float LogGrad(float v, float, float) { return 1.0f / v; }
float SqrtGrad(float, float y, float) { return 0.5f / y; }
float AbsGrad(float v, float, float) {
  return v > 0.0f ? 1.0f : (v < 0.0f ? -1.0f : 0.0f);
}
float SquareGrad(float v, float, float) { return 2.0f * v; }
float TanhGrad(float, float y, float) { return 1.0f - y * y; }
float SigmoidGrad(float, float y, float) { return y * (1.0f - y); }
float ReluGrad(float v, float, float) { return v > 0.0f ? 1.0f : 0.0f; }
float PowGrad(float v, float, float exponent) {
  return exponent * std::pow(v, exponent - 1.0f);
}

// Unary op whose forward is o = c * x and whose VJP is g = c * cot — Neg and
// Scale, which ride the vectorized scale kernel on both passes.
Tensor ScaleOp(const char* name, const Tensor& x, float c) {
  Tensor out = Tensor::Empty(x.shape());
  simd::Active().scale(c, x.data(), out.data(), x.numel());
  return MakeOp(name, {x}, std::move(out),
                [](const Node& node, const Tensor&, const Tensor& cot,
                   InputMask, Tensor* grads) {
                  const float c = node.attr<float>();
                  Tensor gx = Tensor::Empty(cot.shape());
                  simd::Active().scale(c, cot.data(), gx.data(), cot.numel());
                  grads[0] = std::move(gx);
                },
                c);
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
  DimArray so{}, idx{}, td{};
  const DimArray stro = ContiguousStrides(target);
  for (int i = 1; i <= nd; ++i) {
    if (i <= target.ndim() && target[target.ndim() - i] != 1) {
      so[nd - i] = stro[target.ndim() - i];
    }
  }
  std::copy(t.shape().begin(), t.shape().end(), td.begin());
  // t's rows in row-major order, each added into its output row (the last
  // dim kept) or summed into one output element (the last dim reduced), in
  // ascending order: every output element sums its terms in the order of
  // an element-by-element pass over t.
  const int64_t row = nd == 0 ? 1 : td[nd - 1];
  const bool kept = nd > 0 && so[nd - 1] != 0;
  const int64_t rows = row == 0 ? 0 : t.numel() / row;
  const simd::KernelTable& K = simd::Active();
  int64_t oo = 0;
  for (int64_t r = 0; r < rows; ++r) {
    const float* src = pt + r * row;
    if (kept) {
      K.accumulate(po + oo, src, row);
    } else {
      float acc = po[oo];
      for (int64_t j = 0; j < row; ++j) acc += src[j];
      po[oo] = acc;
    }
    // Odometer over the dims before the last.
    for (int d = nd - 2; d >= 0; --d) {
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
  Tensor out = BroadcastBinary(a, b, ArithOp::kAdd,
                               [](float x, float y) { return x + y; });
  return MakeOp("add", {a, b}, std::move(out),
                [](const Node& node, const Tensor&, const Tensor& cot,
                   InputMask needs, Tensor* grads) {
                  for (int i = 0; i < 2; ++i) {
                    if (HasInput(needs, i)) {
                      grads[i] = ReduceToShape(cot, node.inputs[i].shape());
                    }
                  }
                });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  Tensor out = BroadcastBinary(a, b, ArithOp::kSub,
                               [](float x, float y) { return x - y; });
  return MakeOp("sub", {a, b}, std::move(out),
                [](const Node& node, const Tensor&, const Tensor& cot,
                   InputMask needs, Tensor* grads) {
                  if (HasInput(needs, 0)) {
                    grads[0] = ReduceToShape(cot, node.inputs[0].shape());
                  }
                  if (HasInput(needs, 1)) {
                    Tensor gb = Tensor::Empty(cot.shape());
                    simd::Active().scale(-1.0f, cot.data(), gb.data(),
                                         cot.numel());
                    grads[1] = ReduceToShape(gb, node.inputs[1].shape());
                  }
                });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  Tensor out = BroadcastBinary(a, b, ArithOp::kMul,
                               [](float x, float y) { return x * y; });
  return MakeOp("mul", {a, b}, std::move(out),
                [](const Node& node, const Tensor&, const Tensor& cot,
                   InputMask needs, Tensor* grads) {
                  auto times = [](float c, float v) { return c * v; };
                  const Tensor& a = node.inputs[0];
                  const Tensor& b = node.inputs[1];
                  if (HasInput(needs, 0)) {
                    grads[0] = ReduceToShape(
                        BroadcastBinary(cot, b, ArithOp::kMul, times),
                        a.shape());
                  }
                  if (HasInput(needs, 1)) {
                    grads[1] = ReduceToShape(
                        BroadcastBinary(cot, a, ArithOp::kMul, times),
                        b.shape());
                  }
                });
}

Tensor Div(const Tensor& a, const Tensor& b) {
  Tensor out = BroadcastBinary(a, b, ArithOp::kDiv,
                               [](float x, float y) { return x / y; });
  return MakeOp("div", {a, b}, std::move(out),
                [](const Node& node, const Tensor&, const Tensor& cot,
                   InputMask needs, Tensor* grads) {
                  const Tensor& a = node.inputs[0];
                  const Tensor& b = node.inputs[1];
                  if (HasInput(needs, 0)) {
                    grads[0] = ReduceToShape(
                        BroadcastBinary(cot, b, ArithOp::kDiv,
                                        [](float c, float y) { return c / y; }),
                        a.shape());
                  }
                  if (HasInput(needs, 1)) {
                    Tensor tmp = BroadcastBinary(
                        a, b, std::nullopt,
                        [](float x, float y) { return -x / (y * y); });
                    grads[1] = ReduceToShape(
                        BroadcastBinary(cot, tmp, ArithOp::kMul,
                                        [](float c, float t) { return c * t; }),
                        b.shape());
                  }
                });
}

Tensor Neg(const Tensor& x) { return ScaleOp("neg", x, -1.0f); }

Tensor Scale(const Tensor& x, float c) { return ScaleOp("scale", x, c); }

Tensor AddScalar(const Tensor& x, float c) {
  return UnaryOp<UnitGrad>("add_scalar", x, [c](float v) { return v + c; });
}

Tensor Exp(const Tensor& x) {
  return UnaryOp<ExpGrad>("exp", x, [](float v) { return std::exp(v); });
}

Tensor Log(const Tensor& x) {
  return UnaryOp<LogGrad>("log", x, [](float v) { return std::log(v); });
}

Tensor Sqrt(const Tensor& x) {
  return UnaryOp<SqrtGrad>("sqrt", x, [](float v) { return std::sqrt(v); });
}

Tensor Abs(const Tensor& x) {
  return UnaryOp<AbsGrad>("abs", x, [](float v) { return std::fabs(v); });
}

Tensor Square(const Tensor& x) {
  return UnaryOp<SquareGrad>("square", x, [](float v) { return v * v; });
}

Tensor Tanh(const Tensor& x) {
  return UnaryOp<TanhGrad>("tanh", x, [](float v) { return std::tanh(v); });
}

Tensor Sigmoid(const Tensor& x) {
  return UnaryOp<SigmoidGrad>(
      "sigmoid", x, [](float v) { return 1.0f / (1.0f + std::exp(-v)); });
}

Tensor Relu(const Tensor& x) {
  return UnaryOp<ReluGrad>("relu", x,
                           [](float v) { return v > 0.0f ? v : 0.0f; });
}

Tensor LeakyRelu(const Tensor& x, float slope) {
  Tensor out = Tensor::Empty(x.shape());
  simd::Active().leaky_relu(slope, x.data(), out.data(), x.numel());
  return MakeOp("leaky_relu", {x}, std::move(out),
                [](const Node& node, const Tensor&, const Tensor& cot,
                   InputMask, Tensor* grads) {
                  const Tensor& x = node.inputs[0];
                  Tensor gx = Tensor::Empty(x.shape());
                  simd::Active().leaky_relu_vjp(node.attr<float>(), x.data(),
                                                cot.data(), gx.data(),
                                                x.numel());
                  grads[0] = std::move(gx);
                },
                slope);
}

Tensor Pow(const Tensor& x, float exponent) {
  return UnaryOp<PowGrad>(
      "pow", x, [exponent](float v) { return std::pow(v, exponent); },
      exponent);
}

}  // namespace causalformer

#ifndef CAUSALFORMER_TENSOR_OPS_H_
#define CAUSALFORMER_TENSOR_OPS_H_

#include <vector>

#include "tensor/autograd.h"
#include "tensor/tensor.h"

/// \file
/// Differentiable tensor operations. Every function here records a VJP on the
/// autograd tape (via MakeOp), so both Backward() and the relevance
/// propagation pass work through them. Binary elementwise ops broadcast with
/// NumPy semantics.

namespace causalformer {

// ---- Elementwise binary (broadcasting) --------------------------------------

Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);

inline Tensor operator+(const Tensor& a, const Tensor& b) { return Add(a, b); }
inline Tensor operator-(const Tensor& a, const Tensor& b) { return Sub(a, b); }
inline Tensor operator*(const Tensor& a, const Tensor& b) { return Mul(a, b); }
inline Tensor operator/(const Tensor& a, const Tensor& b) { return Div(a, b); }

// ---- Elementwise unary -------------------------------------------------------

Tensor Neg(const Tensor& x);
/// x * c (scalar constant; not a tape input).
Tensor Scale(const Tensor& x, float c);
/// x + c.
Tensor AddScalar(const Tensor& x, float c);
Tensor Exp(const Tensor& x);
/// Natural log; inputs must be positive.
Tensor Log(const Tensor& x);
Tensor Sqrt(const Tensor& x);
Tensor Abs(const Tensor& x);
Tensor Square(const Tensor& x);
Tensor Tanh(const Tensor& x);
Tensor Sigmoid(const Tensor& x);
Tensor Relu(const Tensor& x);
/// max(x, slope * x) with 0 < slope < 1.
Tensor LeakyRelu(const Tensor& x, float slope = 0.01f);
/// Elementwise power with a constant exponent.
Tensor Pow(const Tensor& x, float exponent);

// ---- Matrix multiplication ---------------------------------------------------

/// a @ b. Supported shapes: [m,k]x[k,n]; [B...,m,k]x[k,n]; [B...,m,k]x[B...,k,n]
/// with identical batch dims. Multithreaded for large products.
Tensor MatMul(const Tensor& a, const Tensor& b);

// ---- Reductions --------------------------------------------------------------

/// Sum of all elements (scalar output).
Tensor Sum(const Tensor& x);
/// Sum along `axis` (negative axes allowed).
Tensor Sum(const Tensor& x, int axis, bool keepdim = false);
/// Mean of all elements.
Tensor Mean(const Tensor& x);
/// Mean along `axis`.
Tensor Mean(const Tensor& x, int axis, bool keepdim = false);
/// Sum of |x| over all elements — the L1 penalty used in the loss (Eq. 9).
Tensor L1Norm(const Tensor& x);

// ---- Shape manipulation --------------------------------------------------------

/// Same data, new shape (numel must match).
Tensor Reshape(const Tensor& x, const Shape& shape);
/// Swaps two dimensions.
Tensor Transpose(const Tensor& x, int dim0, int dim1);
/// Contiguous slice [start, end) along `axis`.
Tensor Slice(const Tensor& x, int axis, int64_t start, int64_t end);
/// Concatenation along `axis`.
Tensor Concat(const std::vector<Tensor>& parts, int axis);
/// Inserts a size-1 dimension at `axis`.
Tensor Unsqueeze(const Tensor& x, int axis);
/// Removes a size-1 dimension at `axis`.
Tensor Squeeze(const Tensor& x, int axis);
/// Repeats x `count` times along a new leading axis: [d...] -> [count, d...].
/// The VJP sums over that axis, so each repeat carries its own cotangent on
/// the tape — the batched detector reads per-group parameter gradients from
/// the tiled tensor while training-style backward still reaches the leaf.
Tensor TileBatch(const Tensor& x, int64_t count);

// ---- Softmax -------------------------------------------------------------------

/// Numerically stable softmax along `axis`.
Tensor Softmax(const Tensor& x, int axis);

// ---- Non-differentiable helpers -------------------------------------------------

/// Index of the largest element (ties -> first).
int64_t ArgMaxIndex(const Tensor& x);

/// Sums `t` down to `target` shape (inverse of broadcasting); used by VJPs.
Tensor ReduceToShape(const Tensor& t, const Shape& target);

/// dst[b][c][r] = src[b][r][c]: the transposes of `batch` row-major
/// (rows x cols) matrices, written to a [batch, cols, rows] buffer.
void TransposeMatrices(const float* src, float* dst, int64_t batch,
                       int64_t rows, int64_t cols);

}  // namespace causalformer

#endif  // CAUSALFORMER_TENSOR_OPS_H_

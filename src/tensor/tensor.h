#ifndef CAUSALFORMER_TENSOR_TENSOR_H_
#define CAUSALFORMER_TENSOR_TENSOR_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "tensor/allocator.h"
#include "tensor/shape.h"
#include "util/rng.h"

/// \file
/// Dense float32 tensor with value-handle semantics (copies share storage,
/// like torch.Tensor) and hooks for reverse-mode automatic differentiation.
///
/// Tensors are always contiguous in row-major (C) order. A tensor is one
/// reference-counted object (internal::TensorImpl) holding its shape, its
/// buffer and, for an op output, the op's tape Node. The object comes from a
/// per-thread pool and may be released on any thread; its storage is a
/// TensorBuffer drawn from the thread's CurrentAllocator() at creation time
/// (see tensor/allocator.h), so hot paths that install an ArenaAllocator
/// recycle their buffers instead of hitting malloc. The autograd tape is
/// define-by-run: every differentiable op (see tensor/ops.h) records a Node
/// holding its inputs and a vector-Jacobian-product function. Backward()
/// walks the tape; the same tape is reused by the interpretation module to
/// perform regression relevance propagation (see interpret/relevance.h).

namespace causalformer {

struct Node;

namespace internal {
struct TensorImpl;
/// Destroys an impl whose last handle went away and parks it in its pool.
void DestroyImpl(TensorImpl* impl);
}  // namespace internal

class Tensor {
 public:
  /// An undefined (null) tensor; defined() is false.
  Tensor() = default;
  inline Tensor(const Tensor& other);
  Tensor(Tensor&& other) noexcept : impl_(other.impl_) {
    other.impl_ = nullptr;
  }
  inline Tensor& operator=(const Tensor& other);
  inline Tensor& operator=(Tensor&& other) noexcept;
  inline ~Tensor();

  // ---- Factories -----------------------------------------------------------

  static Tensor Zeros(const Shape& shape, bool requires_grad = false);
  /// Uninitialized storage (arena memory is recycled, so the contents are
  /// garbage). Only for outputs a kernel overwrites in full before reading.
  static Tensor Empty(const Shape& shape, bool requires_grad = false);
  static Tensor Ones(const Shape& shape, bool requires_grad = false);
  static Tensor Full(const Shape& shape, float value, bool requires_grad = false);
  static Tensor FromVector(const Shape& shape, std::vector<float> values,
                           bool requires_grad = false);
  /// Scalar (rank-0) tensor.
  static Tensor Scalar(float value, bool requires_grad = false);
  /// i.i.d. N(0, 1) entries.
  static Tensor Randn(const Shape& shape, Rng* rng, bool requires_grad = false);
  /// i.i.d. Uniform[lo, hi) entries.
  static Tensor Rand(const Shape& shape, float lo, float hi, Rng* rng,
                     bool requires_grad = false);
  /// Identity matrix of size n x n.
  static Tensor Eye(int64_t n);

  // ---- Introspection -------------------------------------------------------

  bool defined() const { return impl_ != nullptr; }
  const Shape& shape() const;
  int ndim() const { return shape().ndim(); }
  int64_t dim(int i) const { return shape().dim(i); }
  int64_t numel() const { return shape().numel(); }

  float* data();
  const float* data() const;

  /// Checked multi-dimensional element access (rank must match arity).
  float& at(std::initializer_list<int64_t> idx);
  float at(std::initializer_list<int64_t> idx) const;

  /// Value of a 1-element tensor.
  float item() const;

  std::string ToString(int max_per_dim = 8) const;

  /// Identity key for lookups over the autograd tape.
  internal::TensorImpl* impl() const { return impl_; }
  /// True when this is the only handle on the tensor, so nothing else can
  /// see a write to its storage.
  inline bool unique() const;

  // ---- Autograd ------------------------------------------------------------

  bool requires_grad() const;
  /// Marks this tensor as a leaf requiring gradients. Returns *this.
  Tensor& set_requires_grad(bool value);

  /// The accumulated gradient (undefined Tensor if none yet).
  Tensor grad() const;
  /// Adds `g` into the gradient buffer (creating it on first use).
  void AccumulateGrad(const Tensor& g);
  void ZeroGrad();

  /// The op that produced this tensor, or nullptr for a leaf.
  const Node* grad_fn() const;

  /// Reverse-mode differentiation from this (scalar) tensor.
  void Backward() const;
  /// Reverse-mode differentiation with an explicit output cotangent.
  void Backward(const Tensor& seed) const;

  /// Deep copy of the data into new storage, detached from the tape (no
  /// grad_fn, no requires_grad).
  Tensor Detach() const;
  /// Deep copy of the data (detached); the same as Detach().
  Tensor Clone() const;

  bool operator==(const Tensor& other) const { return impl_ == other.impl_; }

 private:
  friend Tensor AdoptImpl(internal::TensorImpl* impl);
  internal::TensorImpl* impl_ = nullptr;
};

/// Internal: wraps a new impl (reference count 1) into a Tensor handle.
Tensor AdoptImpl(internal::TensorImpl* impl);
/// Internal: one more handle on an impl that other handles keep alive.
Tensor ShareImpl(internal::TensorImpl* impl);

/// Most inputs a tape node holds. Concat joins longer lists in groups.
constexpr int kMaxNodeInputs = 4;

/// One bit per node input, bit i for input i.
using InputMask = uint32_t;

/// Whether `mask` holds input `i`.
inline bool HasInput(InputMask mask, int i) { return (mask >> i) & 1u; }

/// Vector-Jacobian product of a node's op: given the op's output value and an
/// output cotangent, writes the cotangent of each input i whose bit is set in
/// `needs` into grads[i] (PyTorch's needs_input_grad). grads holds
/// kMaxNodeInputs undefined tensors on entry; leaving grads[i] undefined
/// means input i gets none. The VJP reads its inputs, its constants and its
/// side data from the node.
using VjpFn = void (*)(const Node& node, const Tensor& out, const Tensor& cot,
                       InputMask needs, Tensor* grads);

/// Bytes of op constants a node keeps inline (Node::attrs).
constexpr size_t kNodeAttrBytes = 32;

/// A recorded op on the tape, held inline by its output tensor.
struct Node {
  const char* op = nullptr;  ///< op name (a static string), for debugging
                             ///< and relevance hooks
  VjpFn vjp = nullptr;       ///< reverse rule
  int num_inputs = 0;
  Tensor inputs[kMaxNodeInputs];  ///< inputs in call order
  /// Side data an op keeps for its VJP (not an input, never walked).
  Tensor aux;
  /// Trivially copyable op constants (see MakeOp in tensor/autograd.h).
  unsigned char attrs[kNodeAttrBytes] = {};

  /// The constants MakeOp stored, as the type it stored them as.
  template <typename T>
  T attr() const {
    static_assert(std::is_trivially_copyable<T>::value &&
                      sizeof(T) <= kNodeAttrBytes,
                  "node attributes must be small trivially copyable values");
    T value{};
    std::memcpy(&value, attrs, sizeof(T));
    return value;
  }
};

namespace internal {

/// The one object behind a Tensor handle.
struct TensorImpl {
  TensorImpl(void* owner, const Shape& s, TensorBuffer b, bool grad_required)
      : requires_grad(grad_required),
        pool(owner),
        shape(s),
        buf(std::move(b)) {}

  std::atomic<int32_t> refs{1};
  bool requires_grad = false;
  /// The per-thread pool this object returns to (see tensor.cc).
  void* pool = nullptr;
  Shape shape;
  TensorBuffer buf;  ///< storage from the creating allocator
  Tensor grad;       ///< lazily created, same shape
  Node node;         ///< the op that produced this tensor; vjp null for a leaf

  float* data() const { return buf.data(); }
};

}  // namespace internal

Tensor::Tensor(const Tensor& other) : impl_(other.impl_) {
  if (impl_ != nullptr) impl_->refs.fetch_add(1, std::memory_order_relaxed);
}

Tensor& Tensor::operator=(const Tensor& other) {
  Tensor copy(other);
  std::swap(impl_, copy.impl_);  // the copy releases the old impl
  return *this;
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this != &other) {
    Tensor old(std::move(*this));
    std::swap(impl_, other.impl_);
  }
  return *this;
}

Tensor::~Tensor() {
  if (impl_ != nullptr &&
      impl_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    internal::DestroyImpl(impl_);
  }
}

bool Tensor::unique() const {
  return impl_ != nullptr && impl_->refs.load(std::memory_order_acquire) == 1;
}

/// Counters of the per-thread tensor-object pools, summed over threads (the
/// pooled_bytes field counts parked objects' bytes).
ArenaStats TensorPoolStats();

}  // namespace causalformer

#endif  // CAUSALFORMER_TENSOR_TENSOR_H_

#ifndef CAUSALFORMER_TENSOR_SHAPE_H_
#define CAUSALFORMER_TENSOR_SHAPE_H_

#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>

/// \file
/// Tensor shapes and broadcasting rules (NumPy semantics: align trailing
/// dimensions; a dimension of size 1 broadcasts against any size).

namespace causalformer {

/// Highest tensor rank. Shapes keep their dims inline, so making or copying
/// one never touches the heap; the checkpoint loader refuses a record of
/// higher rank.
constexpr int kMaxRank = 16;

/// One int64 per dimension, row-major (ContiguousStrides); entries past the
/// shape's rank are 0.
using DimArray = std::array<int64_t, kMaxRank>;

/// An immutable-by-convention list of dimension sizes.
class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<int64_t> dims);
  /// The first `ndim` entries of `dims` (checked: ndim <= kMaxRank).
  Shape(const int64_t* dims, int ndim);

  int ndim() const { return ndim_; }
  int64_t dim(int i) const;
  int64_t operator[](int i) const { return dim(i); }

  /// Total element count (1 for a scalar / rank-0 shape).
  int64_t numel() const;

  /// The dims, for range-for.
  const int64_t* begin() const { return dims_; }
  const int64_t* end() const { return dims_ + ndim_; }

  /// Copies with one dimension changed, inserted (before `axis`; axis ==
  /// ndim() appends) or removed. Axes are non-negative and checked.
  Shape WithDim(int axis, int64_t size) const;
  Shape Inserted(int axis, int64_t size) const;
  Shape Erased(int axis) const;

  bool operator==(const Shape& other) const;
  bool operator!=(const Shape& other) const { return !(*this == other); }

  /// e.g. "[3, 4, 5]".
  std::string ToString() const;

 private:
  int ndim_ = 0;
  int64_t dims_[kMaxRank] = {};
};

/// Row-major (C-order) strides for a contiguous tensor of this shape.
DimArray ContiguousStrides(const Shape& shape);

/// True if `from` can broadcast to `to` (aligning trailing dims).
bool BroadcastableTo(const Shape& from, const Shape& to);

/// The broadcast result shape of two operands; aborts if incompatible.
Shape BroadcastShapes(const Shape& a, const Shape& b);

}  // namespace causalformer

#endif  // CAUSALFORMER_TENSOR_SHAPE_H_

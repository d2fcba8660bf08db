#include "tensor/shape.h"

#include <algorithm>

#include "util/logging.h"

namespace causalformer {

Shape::Shape(std::initializer_list<int64_t> dims)
    : Shape(dims.begin(), static_cast<int>(dims.size())) {}

Shape::Shape(const int64_t* dims, int ndim) : ndim_(ndim) {
  CF_CHECK_GE(ndim, 0);
  CF_CHECK_LE(ndim, kMaxRank) << "tensor rank above the cap of " << kMaxRank;
  std::copy(dims, dims + ndim, dims_);
}

int64_t Shape::dim(int i) const {
  if (i < 0) i += ndim();
  CF_CHECK_GE(i, 0);
  CF_CHECK_LT(i, ndim());
  return dims_[i];
}

int64_t Shape::numel() const {
  int64_t n = 1;
  for (const int64_t d : *this) {
    CF_CHECK_GE(d, 0) << "negative dimension in shape " << ToString();
    CF_CHECK(!__builtin_mul_overflow(n, d, &n))
        << "element count overflows int64 for shape " << ToString();
  }
  return n;
}

Shape Shape::WithDim(int axis, int64_t size) const {
  CF_CHECK_GE(axis, 0);
  CF_CHECK_LT(axis, ndim_);
  Shape out = *this;
  out.dims_[axis] = size;
  return out;
}

Shape Shape::Inserted(int axis, int64_t size) const {
  CF_CHECK_GE(axis, 0);
  CF_CHECK_LE(axis, ndim_);
  CF_CHECK_LT(ndim_, kMaxRank) << "tensor rank above the cap of " << kMaxRank;
  Shape out;
  out.ndim_ = ndim_ + 1;
  std::copy(dims_, dims_ + axis, out.dims_);
  out.dims_[axis] = size;
  std::copy(dims_ + axis, dims_ + ndim_, out.dims_ + axis + 1);
  return out;
}

Shape Shape::Erased(int axis) const {
  CF_CHECK_GE(axis, 0);
  CF_CHECK_LT(axis, ndim_);
  Shape out;
  out.ndim_ = ndim_ - 1;
  std::copy(dims_, dims_ + axis, out.dims_);
  std::copy(dims_ + axis + 1, dims_ + ndim_, out.dims_ + axis);
  return out;
}

bool Shape::operator==(const Shape& other) const {
  return ndim_ == other.ndim_ && std::equal(begin(), end(), other.begin());
}

std::string Shape::ToString() const {
  std::string out = "[";
  for (int i = 0; i < ndim_; ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(dims_[i]);
  }
  out += "]";
  return out;
}

DimArray ContiguousStrides(const Shape& shape) {
  DimArray strides{};
  int64_t acc = 1;
  for (int i = shape.ndim() - 1; i >= 0; --i) {
    strides[static_cast<size_t>(i)] = acc;
    acc *= shape[i];
  }
  return strides;
}

bool BroadcastableTo(const Shape& from, const Shape& to) {
  if (from.ndim() > to.ndim()) return false;
  for (int i = 1; i <= from.ndim(); ++i) {
    const int64_t f = from[from.ndim() - i];
    const int64_t t = to[to.ndim() - i];
    if (f != t && f != 1) return false;
  }
  return true;
}

Shape BroadcastShapes(const Shape& a, const Shape& b) {
  const int nd = std::max(a.ndim(), b.ndim());
  int64_t out[kMaxRank];
  for (int i = 1; i <= nd; ++i) {
    const int64_t da = i <= a.ndim() ? a[a.ndim() - i] : 1;
    const int64_t db = i <= b.ndim() ? b[b.ndim() - i] : 1;
    CF_CHECK(da == db || da == 1 || db == 1)
        << "shapes not broadcastable: " << a.ToString() << " vs " << b.ToString();
    out[nd - i] = std::max(da, db);
  }
  return Shape(out, nd);
}

}  // namespace causalformer

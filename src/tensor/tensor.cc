#include "tensor/tensor.h"

#include <sanitizer/asan_interface.h>

#include <algorithm>
#include <cstring>
#include <mutex>
#include <sstream>

#include "tensor/autograd.h"
#include "tensor/simd.h"
#include "util/logging.h"

namespace causalformer {

namespace {

// ---- Tensor-object pool ------------------------------------------------------

// Most released tensor objects one thread keeps parked (about 2.4 MB); a
// release past it goes back to the heap.
constexpr size_t kMaxParkedImpls = size_t{1} << 13;

// One thread's parked tensor objects. The owning thread takes and parks
// without a lock; a release on another thread parks in `remote` under its
// lock, and the owner adopts those when its own list runs dry. A shard
// outlives its thread: at thread exit it joins the orphan list and the next
// new thread adopts it, so a late release always finds a live shard.
//
// The counters are written by the current owner alone (load, then store),
// so TensorPoolStats can sum them from any thread without a lock.
struct PoolShard {
  std::vector<void*> free;
  std::mutex remote_mu;
  std::vector<void*> remote;            // guarded by remote_mu
  std::atomic<int64_t> remote_count{0};  // remote.size(), for the owner's peek
  std::atomic<int64_t> remote_releases{0};

  std::atomic<int64_t> allocs{0};
  std::atomic<int64_t> pool_hits{0};
  std::atomic<int64_t> parent_allocs{0};
  std::atomic<int64_t> parent_frees{0};
  std::atomic<int64_t> local_releases{0};
  std::atomic<int64_t> parked{0};
};

void Bump(std::atomic<int64_t>& counter, int64_t by = 1) {
  counter.store(counter.load(std::memory_order_relaxed) + by,
                std::memory_order_relaxed);
}

// Every shard ever made, and the ones whose thread exited. Leaked, so a
// release during static teardown still finds its shard.
struct PoolRegistry {
  std::mutex mu;
  std::vector<PoolShard*> all;
  std::vector<PoolShard*> orphans;
};

PoolRegistry& Registry() {
  static PoolRegistry* registry = new PoolRegistry();
  return *registry;
}

thread_local PoolShard* t_shard = nullptr;
thread_local bool t_exited = false;

// Hands the thread's shard to the orphan list when the thread exits.
struct ShardRelease {
  ~ShardRelease() {
    PoolShard* shard = t_shard;
    t_shard = nullptr;
    t_exited = true;
    PoolRegistry& registry = Registry();
    std::lock_guard<std::mutex> lock(registry.mu);
    registry.orphans.push_back(shard);
  }
};

// The calling thread's shard, or nullptr once the thread is exiting (its
// objects then come from and go to the heap directly).
PoolShard* ThisThreadShard() {
  if (t_shard != nullptr || t_exited) return t_shard;
  PoolRegistry& registry = Registry();
  {
    std::lock_guard<std::mutex> lock(registry.mu);
    if (!registry.orphans.empty()) {
      t_shard = registry.orphans.back();
      registry.orphans.pop_back();
    } else {
      t_shard = new PoolShard();
      t_shard->free.reserve(1024);
      registry.all.push_back(t_shard);
    }
  }
  thread_local ShardRelease release;
  return t_shard;
}

constexpr size_t kImplBytes = sizeof(internal::TensorImpl);

// A block for one TensorImpl, and the shard it returns to.
void* TakeBlock(PoolShard** owner) {
  PoolShard* shard = ThisThreadShard();
  *owner = shard;
  if (shard == nullptr) return ::operator new(kImplBytes);
  Bump(shard->allocs);
  if (shard->free.empty() &&
      shard->remote_count.load(std::memory_order_relaxed) > 0) {
    std::lock_guard<std::mutex> lock(shard->remote_mu);
    shard->free.insert(shard->free.end(), shard->remote.begin(),
                       shard->remote.end());
    Bump(shard->parked, static_cast<int64_t>(shard->remote.size()));
    shard->remote.clear();
    shard->remote_count.store(0, std::memory_order_relaxed);
  }
  if (!shard->free.empty()) {
    void* block = shard->free.back();
    shard->free.pop_back();
    Bump(shard->pool_hits);
    Bump(shard->parked, -1);
    ASAN_UNPOISON_MEMORY_REGION(block, kImplBytes);
    return block;
  }
  Bump(shard->parent_allocs);
  return ::operator new(kImplBytes);
}

void FreeBlock(void* block) {
  ASAN_UNPOISON_MEMORY_REGION(block, kImplBytes);
  ::operator delete(block);
}

// Parks a destroyed TensorImpl's block in the shard it came from.
void ParkBlock(void* block, PoolShard* owner) {
  if (owner == nullptr) {
    ::operator delete(block);
    return;
  }
  ASAN_POISON_MEMORY_REGION(block, kImplBytes);
  if (owner == t_shard) {
    Bump(owner->local_releases);
    if (owner->free.size() >= kMaxParkedImpls) {
      Bump(owner->parent_frees);
      FreeBlock(block);
      return;
    }
    owner->free.push_back(block);
    Bump(owner->parked);
    return;
  }
  owner->remote_releases.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(owner->remote_mu);
    if (owner->remote.size() < kMaxParkedImpls) {
      owner->remote.push_back(block);
      owner->remote_count.store(static_cast<int64_t>(owner->remote.size()),
                                std::memory_order_relaxed);
      return;
    }
  }
  FreeBlock(block);
}

// ---- Construction -------------------------------------------------------------

// Fresh storage from the thread's current allocator. Arena blocks are
// recycled without clearing, so `zero` must be true unless the caller
// overwrites every element before reading.
internal::TensorImpl* NewImpl(const Shape& shape, bool requires_grad,
                              bool zero) {
  PoolShard* owner = nullptr;
  void* block = TakeBlock(&owner);
  auto* impl = new (block) internal::TensorImpl(
      owner, shape, TensorBuffer(CurrentAllocator(), shape.numel()),
      requires_grad);
  if (zero) {
    std::memset(impl->data(), 0,
                static_cast<size_t>(shape.numel()) * sizeof(float));
  }
  return impl;
}

}  // namespace

namespace internal {

void DestroyImpl(TensorImpl* impl) {
  auto* owner = static_cast<PoolShard*>(impl->pool);
  impl->~TensorImpl();  // releases the node's inputs, the grad, the buffer
  ParkBlock(impl, owner);
}

}  // namespace internal

ArenaStats TensorPoolStats() {
  ArenaStats stats;
  PoolRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (const PoolShard* shard : registry.all) {
    const auto get = [](const std::atomic<int64_t>& c) {
      return c.load(std::memory_order_relaxed);
    };
    stats.allocs += get(shard->allocs);
    stats.pool_hits += get(shard->pool_hits);
    stats.parent_allocs += get(shard->parent_allocs);
    stats.parent_frees += get(shard->parent_frees);
    stats.outstanding += get(shard->allocs) - get(shard->local_releases) -
                         get(shard->remote_releases);
    stats.pooled_bytes +=
        (get(shard->parked) + get(shard->remote_count)) *
        static_cast<int64_t>(kImplBytes);
  }
  return stats;
}

Tensor AdoptImpl(internal::TensorImpl* impl) {
  Tensor t;
  t.impl_ = impl;
  return t;
}

Tensor ShareImpl(internal::TensorImpl* impl) {
  impl->refs.fetch_add(1, std::memory_order_relaxed);
  return AdoptImpl(impl);
}

Tensor Tensor::Zeros(const Shape& shape, bool requires_grad) {
  return AdoptImpl(NewImpl(shape, requires_grad, /*zero=*/true));
}

Tensor Tensor::Empty(const Shape& shape, bool requires_grad) {
  return AdoptImpl(NewImpl(shape, requires_grad, /*zero=*/false));
}

Tensor Tensor::Ones(const Shape& shape, bool requires_grad) {
  return Full(shape, 1.0f, requires_grad);
}

Tensor Tensor::Full(const Shape& shape, float value, bool requires_grad) {
  Tensor t = Empty(shape, requires_grad);
  std::fill(t.data(), t.data() + shape.numel(), value);
  return t;
}

Tensor Tensor::FromVector(const Shape& shape, std::vector<float> values,
                          bool requires_grad) {
  CF_CHECK_EQ(static_cast<int64_t>(values.size()), shape.numel())
      << "FromVector size mismatch for shape " << shape.ToString();
  Tensor t = Empty(shape, requires_grad);
  std::memcpy(t.data(), values.data(), values.size() * sizeof(float));
  return t;
}

Tensor Tensor::Scalar(float value, bool requires_grad) {
  return Full(Shape{}, value, requires_grad);
}

Tensor Tensor::Randn(const Shape& shape, Rng* rng, bool requires_grad) {
  CF_CHECK(rng != nullptr);
  Tensor t = Empty(shape, requires_grad);
  float* p = t.data();
  const int64_t n = shape.numel();
  for (int64_t i = 0; i < n; ++i) p[i] = static_cast<float>(rng->Normal());
  return t;
}

Tensor Tensor::Rand(const Shape& shape, float lo, float hi, Rng* rng,
                    bool requires_grad) {
  CF_CHECK(rng != nullptr);
  Tensor t = Empty(shape, requires_grad);
  float* p = t.data();
  const int64_t n = shape.numel();
  for (int64_t i = 0; i < n; ++i) {
    p[i] = static_cast<float>(rng->Uniform(lo, hi));
  }
  return t;
}

Tensor Tensor::Eye(int64_t n) {
  Tensor t = Zeros(Shape{n, n});
  for (int64_t i = 0; i < n; ++i) t.data()[i * n + i] = 1.0f;
  return t;
}

const Shape& Tensor::shape() const {
  CF_CHECK(defined()) << "shape() on undefined tensor";
  return impl_->shape;
}

float* Tensor::data() {
  CF_CHECK(defined());
  return impl_->data();
}

const float* Tensor::data() const {
  CF_CHECK(defined());
  return impl_->data();
}

float& Tensor::at(std::initializer_list<int64_t> idx) {
  CF_CHECK_EQ(static_cast<int>(idx.size()), ndim());
  const DimArray strides = ContiguousStrides(shape());
  int64_t offset = 0;
  int d = 0;
  for (const int64_t i : idx) {
    CF_CHECK_GE(i, 0);
    CF_CHECK_LT(i, shape()[d]);
    offset += i * strides[static_cast<size_t>(d)];
    ++d;
  }
  return impl_->data()[offset];
}

float Tensor::at(std::initializer_list<int64_t> idx) const {
  return const_cast<Tensor*>(this)->at(idx);
}

float Tensor::item() const {
  CF_CHECK_EQ(numel(), 1) << "item() on tensor with shape " << shape().ToString();
  return impl_->data()[0];
}

std::string Tensor::ToString(int max_per_dim) const {
  if (!defined()) return "Tensor(undefined)";
  std::ostringstream out;
  out << "Tensor" << shape().ToString() << " [";
  const int64_t n = std::min<int64_t>(numel(), max_per_dim);
  for (int64_t i = 0; i < n; ++i) {
    if (i > 0) out << ", ";
    out << impl_->data()[i];
  }
  if (numel() > n) out << ", ...";
  out << "]";
  return out.str();
}

bool Tensor::requires_grad() const { return defined() && impl_->requires_grad; }

Tensor& Tensor::set_requires_grad(bool value) {
  CF_CHECK(defined());
  impl_->requires_grad = value;
  return *this;
}

Tensor Tensor::grad() const {
  CF_CHECK(defined());
  return impl_->grad;
}

void Tensor::AccumulateGrad(const Tensor& g) {
  CF_CHECK(defined());
  CF_CHECK(g.defined());
  CF_CHECK(g.shape() == shape())
      << "grad shape " << g.shape().ToString() << " vs " << shape().ToString();
  if (!impl_->grad.defined()) impl_->grad = Zeros(shape());
  simd::Active().accumulate(impl_->grad.data(), g.data(), numel());
}

void Tensor::ZeroGrad() {
  CF_CHECK(defined());
  if (impl_->grad.defined()) {
    std::memset(impl_->grad.data(), 0,
                static_cast<size_t>(numel()) * sizeof(float));
  }
}

const Node* Tensor::grad_fn() const {
  CF_CHECK(defined());
  return impl_->node.vjp != nullptr ? &impl_->node : nullptr;
}

void Tensor::Backward() const {
  CF_CHECK_EQ(numel(), 1) << "Backward() without seed requires a scalar output";
  Backward(Tensor::Ones(shape()));
}

void Tensor::Backward(const Tensor& seed) const { RunBackward(*this, seed); }

Tensor Tensor::Detach() const {
  CF_CHECK(defined());
  Tensor copy = Empty(impl_->shape);
  std::memcpy(copy.data(), impl_->data(),
              static_cast<size_t>(numel()) * sizeof(float));
  return copy;
}

Tensor Tensor::Clone() const { return Detach(); }

}  // namespace causalformer

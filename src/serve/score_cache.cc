#include "serve/score_cache.h"

#include <cstring>
#include <initializer_list>

#include "util/logging.h"

namespace causalformer {
namespace serve {

namespace {

// One lane of the 128-bit window hash: a seed and an odd multiplier. The two
// lanes differ in both, so they are two hash functions rather than one
// function under two seeds.
struct Lane {
  uint64_t seed;
  uint64_t mul;
};
constexpr Lane kLo = {0xCBF29CE484222325ULL, 0x9E3779B97F4A7C15ULL};
constexpr Lane kHi = {0x243F6A8885A308D3ULL, 0xC2B2AE3D27D4EB4FULL};

// Folds one word into a lane state. XOR and a product with an odd constant
// (mod 2^64) are both bijections, so for a fixed word the step is a bijection
// of the state, and for a fixed state it is injective in the word.
inline uint64_t Step(uint64_t h, uint64_t word, uint64_t mul) {
  return (h ^ word) * mul;
}

// The fold's multiplier, shared by both lanes (the FNV 64-bit prime; odd).
constexpr uint64_t kFoldMul = 1099511628211ULL;

// Folds one 64-bit column digest into a running window hash. The fold is
// order-sensitive (columns are folded oldest first), so permuted windows
// hash differently; the xorshift is a bijection too.
inline uint64_t FoldDigest(uint64_t h, uint64_t digest) {
  h = Step(h, digest, kFoldMul);
  return h ^ (h >> 29);
}

// Seeds one lane with the window dims [b, n, t], one 64-bit word each.
uint64_t DimsSeed(int64_t b, int64_t n, int64_t t, const Lane& lane) {
  uint64_t h = lane.seed;
  for (const int64_t dim : {b, n, t}) {
    h = Step(h, static_cast<uint64_t>(dim), lane.mul);
  }
  return h;
}

}  // namespace

ColumnDigest HashWindowColumn(const float* data, int64_t n, int64_t stride) {
  ColumnDigest d{kLo.seed, kHi.seed};
  for (int64_t i = 0; i < n; ++i) {
    uint32_t bits;
    std::memcpy(&bits, data + i * stride, sizeof(bits));
    d.lo = Step(d.lo, bits, kLo.mul);
    d.hi = Step(d.hi, bits, kHi.mul);
  }
  return d;
}

WindowHash CombineColumnDigests(const std::vector<ColumnDigest>& digests,
                                int64_t n) {
  const int64_t t = static_cast<int64_t>(digests.size());
  WindowHash h{DimsSeed(1, n, t, kLo), DimsSeed(1, n, t, kHi)};
  for (const ColumnDigest& d : digests) {
    h.lo = FoldDigest(h.lo, d.lo);
    h.hi = FoldDigest(h.hi, d.hi);
  }
  return h;
}

WindowHash HashWindows(const Tensor& windows) {
  CF_CHECK(windows.defined() && windows.ndim() == 3)
      << "HashWindows takes a [B, N, T] window batch";
  const int64_t b = windows.dim(0);
  const int64_t n = windows.dim(1);
  const int64_t t = windows.dim(2);
  WindowHash h{DimsSeed(b, n, t, kLo), DimsSeed(b, n, t, kHi)};
  const float* base = windows.data();
  for (int64_t row = 0; row < b; ++row) {
    const float* batch = base + row * n * t;
    for (int64_t col = 0; col < t; ++col) {
      // Column `col` of batch row `row`: the n series values at one time
      // step, stride t apart in the row-major [B, N, T] layout.
      const ColumnDigest d = HashWindowColumn(batch + col, n, t);
      h.lo = FoldDigest(h.lo, d.lo);
      h.hi = FoldDigest(h.hi, d.hi);
    }
  }
  return h;
}

OptionsKey EncodeDetectorOptions(const core::DetectorOptions& options) {
  // A fixed layout of every field at full width, the float by its raw bit
  // pattern: rounded text would collide options that differ only in later
  // digits, breaking the "exact encoding" contract. The key never leaves the
  // process, so host byte order is fine.
  static_assert(sizeof(options.num_clusters) == 4 &&
                    sizeof(options.max_windows) == 8 &&
                    sizeof(options.epsilon) == 4,
                "the options key layout assumes these field widths");
  OptionsKey key;
  char* out = key.bytes.data();
  std::memcpy(out, &options.num_clusters, 4);
  std::memcpy(out + 4, &options.top_clusters, 4);
  std::memcpy(out + 8, &options.max_windows, 8);
  out[16] = static_cast<char>(
      options.use_interpretation | options.use_relevance << 1 |
      options.use_gradient << 2 | options.bias_absorption << 3);
  std::memcpy(out + 17, &options.epsilon, 4);
  return key;
}

ScoreCache::ScoreCache(size_t capacity) {
  options_.capacity = capacity;
}

ScoreCache::ScoreCache(const ScoreCacheOptions& options) : options_(options) {}

bool ScoreCache::ExpiredLocked(const Entry& entry, double now) const {
  return options_.ttl_seconds > 0 &&
         now - entry.put_time > options_.ttl_seconds;
}

std::shared_ptr<const core::DetectionResult> ScoreCache::Get(
    const CacheKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return nullptr;
  }
  if (ExpiredLocked(it->second->second, options_.clock.Now())) {
    lru_.erase(it->second);
    index_.erase(it);
    ++expirations_;
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return it->second->second.result;
}

void ScoreCache::Put(const CacheKey& key,
                     std::shared_ptr<const core::DetectionResult> result) {
  if (options_.capacity == 0 || result == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  const double now = options_.clock.Now();
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second.result = std::move(result);
    it->second->second.put_time = now;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, Entry{std::move(result), now});
  index_[key] = lru_.begin();
  while (index_.size() > options_.capacity) {
    // The LRU tail is the natural expiry candidate too: if it is past its
    // TTL the drop counts as an expiration, not an eviction.
    if (ExpiredLocked(lru_.back().second, now)) {
      ++expirations_;
    } else {
      ++evictions_;
    }
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

void ScoreCache::EraseModel(const std::string& model) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->first.model == model) {
      index_.erase(it->first);
      it = lru_.erase(it);
    } else {
      ++it;
    }
  }
}

size_t ScoreCache::PruneExpired() {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.ttl_seconds <= 0) return 0;
  const double now = options_.clock.Now();
  size_t dropped = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (ExpiredLocked(it->second, now)) {
      index_.erase(it->first);
      it = lru_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  expirations_ += dropped;
  return dropped;
}

void ScoreCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
}

ScoreCache::Stats ScoreCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.expirations = expirations_;
  s.size = index_.size();
  s.capacity = options_.capacity;
  s.ttl_seconds = options_.ttl_seconds;
  return s;
}

}  // namespace serve
}  // namespace causalformer

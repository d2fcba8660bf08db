#include "serve/score_cache.h"

#include <cstring>
#include <initializer_list>
#include <utility>

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

ScoreCache::~ScoreCache() {
  // Every leader resolves its entry through Complete() on success, rejection
  // and shutdown alike, so this loop is a failsafe: if an entry is somehow
  // still running, failing its followers beats never calling them.
  std::vector<DiscoveryCallback> orphans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [key, entry] : index_) {
      for (auto& follower : entry.followers) {
        orphans.push_back(std::move(follower));
      }
    }
  }
  DiscoveryResponse failure;
  failure.status = Status::FailedPrecondition("engine shutting down");
  failure.deduped = true;
  for (auto& orphan : orphans) orphan(failure);
}

bool ScoreCache::ExpiredLocked(const Entry& entry, double now) const {
  return options_.ttl_seconds > 0 &&
         now - entry.cached_at > options_.ttl_seconds;
}

ScoreCache::Joined ScoreCache::Join(const CacheKey& key,
                                    DiscoveryCallback* done,
                                    obs::Trace* trace) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = index_.try_emplace(key);
  Entry& entry = it->second;
  if (!inserted && entry.lead == 0) {  // a cached result
    if (!ExpiredLocked(entry, options_.clock.Now())) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, entry.lru);  // refresh recency
      return {entry.result, 0};
    }
    // Expired: the entry re-leads in place, and later joins follow it.
    ++expirations_;
    lru_.erase(entry.lru);
    entry.result = nullptr;
  }
  ++misses_;
  if (entry.lead != 0) {
    ++followers_;
    if (trace != nullptr) {
      // The follower's wait is the leader's remaining work; link the trace
      // so a slow deduped response names the run that actually executed.
      // Marked here, not by the caller, because the leader may resolve the
      // follower the moment the lock drops.
      trace->SetLeader(entry.leader_trace_id);
      trace->StartSpan("dedup_wait");
    }
    entry.followers.push_back(std::move(*done));
    return {};
  }
  entry.lead = ++leaders_;
  entry.leader_trace_id = trace != nullptr ? trace->id() : 0;
  return {nullptr, entry.lead};
}

void ScoreCache::Complete(const CacheKey& key, uint64_t lead,
                          const DiscoveryResponse& response) {
  std::vector<DiscoveryCallback> followers;
  // Declared before the lock, so an evicted entry (its result and its map
  // node) is destroyed after the unlock, off the table mutex that every
  // Join takes.
  decltype(index_)::node_type evicted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    // Tokens are never reused, so a leader whose entry was since cached, or
    // cached and re-led, finds another token (or none) and changes nothing.
    if (it == index_.end() || it->second.lead != lead) return;
    Entry& entry = it->second;
    followers.swap(entry.followers);
    if (!response.status.ok()) {
      failed_fanins_ += static_cast<uint64_t>(followers.size());
    }
    if (response.status.ok() && response.result != nullptr &&
        options_.capacity > 0) {
      // Cache before the fan-out: once anyone sees the result, a brand-new
      // identical query must find it.
      const double now = options_.clock.Now();
      entry.lead = 0;
      entry.result = response.result;
      entry.cached_at = now;
      lru_.push_front(&it->first);
      entry.lru = lru_.begin();
      while (lru_.size() > options_.capacity) {
        const auto victim = index_.find(*lru_.back());
        // The LRU tail is the natural expiry candidate too: if it is past its
        // TTL the drop counts as an expiration, not an eviction.
        if (ExpiredLocked(victim->second, now)) {
          ++expirations_;
        } else {
          ++evictions_;
        }
        lru_.pop_back();
        evicted = index_.extract(victim);
      }
    } else {
      index_.erase(it);
    }
  }
  // Call outside the lock: a follower's callback may submit new work, which
  // joins this table again. The shared result pointer is copied, not cloned,
  // so every follower reads the exact bytes the leader computed; the latency
  // is the leader's (submit-to-completion of the work that actually ran).
  if (followers.empty()) return;
  DiscoveryResponse fanned = response;
  fanned.deduped = true;
  fanned.cache_hit = false;
  for (auto& follower : followers) follower(fanned);
}

void ScoreCache::EraseModel(const std::string& model) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = index_.begin(); it != index_.end();) {
    if (it->second.lead == 0 && it->first.model == model) {
      lru_.erase(it->second.lru);
      it = index_.erase(it);
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
  for (auto it = index_.begin(); it != index_.end();) {
    if (it->second.lead == 0 && ExpiredLocked(it->second, now)) {
      lru_.erase(it->second.lru);
      it = index_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  expirations_ += dropped;
  return dropped;
}

ScoreCache::Stats ScoreCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.expirations = expirations_;
  s.size = lru_.size();
  s.capacity = options_.capacity;
  s.ttl_seconds = options_.ttl_seconds;
  s.leaders = leaders_;
  s.followers = followers_;
  s.failed_fanins = failed_fanins_;
  s.running = index_.size() - lru_.size();
  return s;
}

}  // namespace serve
}  // namespace causalformer

#ifndef CAUSALFORMER_SERVE_SCORE_CACHE_H_
#define CAUSALFORMER_SERVE_SCORE_CACHE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/detector.h"
#include "obs/clock.h"
#include "tensor/tensor.h"

/// \file
/// Bounded LRU cache of detection results keyed by
/// (model name + registry generation, window-content hash, detector options).
///
/// Discovery queries are expensive (a forward pass plus a gradient and a
/// relevance walk) and production traffic concentrates on hot windows — the
/// newest sliding window of a monitored system is queried far more often
/// than historical ones — so repeated queries skip recomputation entirely.
/// Window identity is a 128-bit content hash, options identity is an exact
/// encoding, so false hits are vanishingly unlikely and cannot come from
/// option differences. Keys never leave the process (they are not on the
/// wire or in checkpoints, and a restart starts with an empty cache), so the
/// hash function can change without a version bump.
///
/// The window hash runs two lanes, `lo` and `hi`, a word at a time: each
/// lane XORs in one 32-bit float pattern (or one 64-bit dim or column
/// digest), then multiplies by its own odd 64-bit constant. The lanes have
/// different seeds and different multipliers, so they are two hash
/// functions. Every step is a bijection of the lane state, so two windows of
/// the same dims that differ in one element never share a lane value: both
/// `lo` and `hi` differ.
///
/// The window hash is *column-composable*: the data are digested one
/// time-step column at a time (HashWindowColumn) and the per-column digests
/// are folded in layout order (CombineColumnDigests). A streaming caller that
/// keeps the digests of previously seen columns can therefore hash the next
/// overlapping sliding window in O(N·stride + window) instead of rehashing
/// all O(N·window) values — and lands on the exact same cache key as a
/// caller who hashed the materialised tensor (src/stream/ring_series.h).

namespace causalformer {
namespace serve {

/// 128-bit content hash of a window tensor (dims + raw float bit patterns).
struct WindowHash {
  uint64_t lo = 0;  ///< the first lane's window hash
  uint64_t hi = 0;  ///< the second lane's (own seed and multiplier)
  /// Exact 128-bit equality.
  bool operator==(const WindowHash& o) const {
    return lo == o.lo && hi == o.hi;
  }
};

/// 128-bit digest of one time-step column (the N series values at one t).
/// The unit of incremental window hashing: a stream computes one digest per
/// appended sample and reuses it for every overlapping window that contains
/// the sample.
struct ColumnDigest {
  uint64_t lo = 0;  ///< the first lane's column digest
  uint64_t hi = 0;  ///< the second lane's (own seed and multiplier)
};

/// Digests one time-step column: `n` floats starting at `data`, consecutive
/// values `stride` floats apart (stride = T for a row-major [B, N, T] tensor,
/// 1 for a contiguous column buffer).
ColumnDigest HashWindowColumn(const float* data, int64_t n, int64_t stride);

/// Folds per-column digests into the WindowHash of a `[1, n, count]` window
/// whose time-step columns produced `digests[0..count)` (oldest first).
/// Identity guarantee: equals HashWindows() of the materialised tensor, so
/// incremental hashers and tensor hashers produce interchangeable cache keys.
WindowHash CombineColumnDigests(const std::vector<ColumnDigest>& digests,
                                int64_t n);

/// Hashes a [B, N, T] window batch's dims and contents into a WindowHash,
/// one column digest per (batch row, time step) in layout order. Any other
/// shape is a caller bug (CF_CHECK): the engine rejects it before hashing.
WindowHash HashWindows(const Tensor& windows);

/// The options component of a cache or batch key: DetectorOptions in a
/// fixed 21-byte binary layout, held inline so building a key allocates
/// nothing.
struct OptionsKey {
  std::array<char, 21> bytes{};

  bool operator==(const OptionsKey& o) const { return bytes == o.bytes; }
  bool operator!=(const OptionsKey& o) const { return bytes != o.bytes; }
  /// The bytes, for hashing.
  std::string_view view() const { return {bytes.data(), bytes.size()}; }
};

/// Exact encoding of every DetectorOptions field. Cache-key generation rule:
/// every field at full width and floats by raw bit pattern (never rounded
/// text), so two option sets collide iff the detector would treat them
/// identically.
OptionsKey EncodeDetectorOptions(const core::DetectorOptions& options);

/// Identity of one cached detection result.
struct CacheKey {
  std::string model;    ///< registry name the query addressed
  WindowHash windows;   ///< content hash of the window batch
  OptionsKey options;   ///< EncodeDetectorOptions output
  /// Registry generation of the model the query was validated against. A
  /// same-name hot-swap bumps the generation, so results computed by queued
  /// requests still pinned to the old model can never be served for the new
  /// one (their Put lands under the old generation and ages out via LRU).
  uint64_t generation = 0;

  /// Field-wise equality (hash collisions can never merge distinct keys).
  bool operator==(const CacheKey& o) const {
    return windows == o.windows && generation == o.generation &&
           model == o.model && options == o.options;
  }
};

/// Hash functor over CacheKey — the key machinery shared by the ScoreCache
/// (completed results) and the InFlightTable (running queries), so both
/// layers agree byte-for-byte on what "the same query" means.
struct CacheKeyHash {
  /// Mixes the 128-bit window hash, generation and model name.
  size_t operator()(const CacheKey& key) const {
    return static_cast<size_t>(key.windows.lo ^ (key.windows.hi >> 1) ^
                               (key.generation * 0x9E3779B97F4A7C15ULL) ^
                               std::hash<std::string>()(key.model));
  }
};

/// ScoreCache construction knobs.
struct ScoreCacheOptions {
  /// LRU entry bound (0 disables caching).
  size_t capacity = 256;
  /// Max age in seconds before an entry expires (0 = entries never expire).
  /// TTL complements the LRU bound for streaming workloads: the stale windows
  /// of a dead stream should age out even when capacity is never reached.
  /// Age is measured from the entry's last Put (insert or refresh), not from
  /// its last Get — a result recomputed-and-refilled is young again, a result
  /// merely re-read is not.
  double ttl_seconds = 0;
  /// The time source entry ages are measured on. Default: steady_clock.
  obs::Clock clock;
};

/// The bounded, thread-safe LRU cache of detection results with optional
/// max-age (TTL) expiry.
class ScoreCache {
 public:
  /// Point-in-time cache counters.
  struct Stats {
    uint64_t hits = 0;         ///< Get() calls answered from the cache
    uint64_t misses = 0;       ///< Get() calls that found nothing
    uint64_t evictions = 0;    ///< entries dropped by the LRU bound
    uint64_t expirations = 0;  ///< entries dropped by the TTL bound
    size_t size = 0;           ///< current entry count
    size_t capacity = 0;       ///< configured bound (0 = caching disabled)
    double ttl_seconds = 0;    ///< configured max age (0 = never expires)
  };

  /// A cache holding at most `capacity` results (0 disables caching),
  /// entries never expiring by age.
  explicit ScoreCache(size_t capacity);
  /// A cache with explicit capacity/TTL options.
  explicit ScoreCache(const ScoreCacheOptions& options);
  ScoreCache(const ScoreCache&) = delete;             ///< not copyable
  ScoreCache& operator=(const ScoreCache&) = delete;  ///< not copyable

  /// The cached result (refreshing recency), or null on a miss. An entry
  /// older than the TTL is dropped and counted as expired + missed.
  std::shared_ptr<const core::DetectionResult> Get(const CacheKey& key);

  /// Inserts or refreshes `result` (resetting its age); evicts the least
  /// recently used entry when over capacity. A capacity of zero disables
  /// caching.
  void Put(const CacheKey& key,
           std::shared_ptr<const core::DetectionResult> result);

  /// Drops every entry of `model` (on checkpoint unload/replace).
  void EraseModel(const std::string& model);

  /// Drops every entry older than the TTL, returning how many were dropped
  /// (0 when no TTL is configured). Expiry is otherwise lazy — checked on
  /// Get — so long-idle caches can call this to release memory eagerly.
  size_t PruneExpired();

  /// Drops every entry.
  void Clear();
  /// Snapshot of the cache counters.
  Stats stats() const;

 private:
  struct Entry {
    std::shared_ptr<const core::DetectionResult> result;
    double put_time = 0;  ///< clock seconds at the last Put
  };
  using LruList = std::list<std::pair<CacheKey, Entry>>;

  /// True when `entry` is older than the TTL at clock time `now`.
  bool ExpiredLocked(const Entry& entry, double now) const;

  mutable std::mutex mu_;
  ScoreCacheOptions options_;
  LruList lru_;  // front = most recent
  std::unordered_map<CacheKey, LruList::iterator, CacheKeyHash> index_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  uint64_t expirations_ = 0;
};

}  // namespace serve
}  // namespace causalformer

#endif  // CAUSALFORMER_SERVE_SCORE_CACHE_H_

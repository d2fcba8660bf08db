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
#include "obs/trace.h"
#include "serve/types.h"
#include "tensor/tensor.h"

/// \file
/// The engine's one table of detection work, keyed by (model name + registry
/// generation, window-content hash, detector options): every query key's
/// whole life, from the first submission through its cached result.
///
/// Discovery queries are expensive (a forward pass plus a gradient and a
/// relevance walk) and production traffic concentrates on hot windows — the
/// newest sliding window of a monitored system is queried far more often
/// than historical ones, and overlapping streams replaying one feed submit
/// content-identical windows within milliseconds of each other (the
/// TTCD-style workload of src/stream/). An entry is therefore in one of two
/// states:
///
///  - *running*: the first submitter *leads* — it runs the query and later
///    Complete()s the entry — and every identical submission meanwhile parks
///    as a *follower*, receiving the leader's very same shared result
///    (bit-identical scores) or error when it resolves;
///  - *cached*: the leader succeeded, so later identical submissions are
///    answered from the shared result, bounded by an LRU capacity and an
///    optional max age (TTL).
///
/// Join() answers hit, lead or follow under one lock and one lookup, and
/// Complete() fans out to the followers and caches the result in the same
/// critical section, so a new identical query either follows the running
/// entry or hits the cached one — it never runs the work a second time.
///
/// Window identity is a 128-bit content hash, options identity is an exact
/// encoding, so false hits are vanishingly unlikely and cannot come from
/// option differences: an epsilon-perturbed window or option set is a
/// different key and runs on its own. Keys never leave the process (they are
/// not on the wire or in checkpoints, and a restart starts with an empty
/// table), so the hash function can change without a version bump.
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

/// Identity of one query's detection work: the ScoreCache key.
struct CacheKey {
  std::string model;    ///< registry name the query addressed
  WindowHash windows;   ///< content hash of the window batch
  OptionsKey options;   ///< EncodeDetectorOptions output
  /// Registry generation of the model the query was validated against. A
  /// same-name hot-swap bumps the generation, so results computed by queued
  /// requests still pinned to the old model can never be served for the new
  /// one (their entry completes under the old generation and ages out via
  /// LRU).
  uint64_t generation = 0;

  /// Field-wise equality (hash collisions can never merge distinct keys).
  bool operator==(const CacheKey& o) const {
    return windows == o.windows && generation == o.generation &&
           model == o.model && options == o.options;
  }
};

/// Hash functor over CacheKey, the ScoreCache's index hash: one key names a
/// query from its first submission (running) through its cached result.
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
  /// LRU bound on cached results (0 disables caching; identical running
  /// queries still dedup).
  size_t capacity = 256;
  /// Max age in seconds before an entry expires (0 = entries never expire).
  /// TTL complements the LRU bound for streaming workloads: the stale windows
  /// of a dead stream should age out even when capacity is never reached.
  /// Age is measured from when the leader's Complete() cached the result, not
  /// from its last hit — a result recomputed after expiry is young again, a
  /// result merely re-read is not.
  double ttl_seconds = 0;
  /// The time source entry ages are measured on. Default: steady_clock.
  obs::Clock clock;
};

/// The thread-safe table of running and cached detection work: in-flight
/// dedup of identical running queries, then a bounded LRU cache of their
/// results with optional max-age (TTL) expiry.
class ScoreCache {
 public:
  /// Point-in-time counters of both entry states.
  struct Stats {
    uint64_t hits = 0;         ///< joins answered from a cached result
    uint64_t misses = 0;       ///< every other join: leaders and followers
    uint64_t evictions = 0;    ///< cached entries dropped by the LRU bound
    uint64_t expirations = 0;  ///< cached entries dropped by the TTL bound
    size_t size = 0;           ///< cached entries (gauge)
    size_t capacity = 0;       ///< configured bound (0 = caching disabled)
    double ttl_seconds = 0;    ///< configured max age (0 = never expires)
    uint64_t leaders = 0;      ///< joins that led (queries run)
    uint64_t followers = 0;    ///< joins parked on a running entry (dedup)
    uint64_t failed_fanins = 0;  ///< followers resolved with a non-ok status
    size_t running = 0;        ///< running entries (gauge)
  };

  /// What Join made of a query: a hit, a lead or a follow.
  struct Joined {
    /// A hit: the cached result. Null on a lead or a follow.
    std::shared_ptr<const core::DetectionResult> cached;
    /// A lead: the token Complete() takes. 0 on a hit, and on a follow, whose
    /// `*done` is parked on the running entry.
    uint64_t lead = 0;
  };

  /// A table caching at most `capacity` results (0 disables caching, not
  /// dedup), entries never expiring by age.
  explicit ScoreCache(size_t capacity);
  /// A table with explicit capacity/TTL options.
  explicit ScoreCache(const ScoreCacheOptions& options);
  /// Fails any still-running entry's followers (engine teardown), so no
  /// parked callback is ever dropped uncalled.
  ~ScoreCache();
  ScoreCache(const ScoreCache&) = delete;             ///< not copyable
  ScoreCache& operator=(const ScoreCache&) = delete;  ///< not copyable

  /// Joins the life of `key`, atomically — exactly one concurrent caller per
  /// key leads:
  ///  - a cached result younger than the TTL is a hit (refreshing recency);
  ///  - a running entry makes the caller a follower: `*done` is moved onto
  ///    it, to be called once by the leader's Complete();
  ///  - otherwise the caller leads a new running entry (an expired result
  ///    counts as expired and re-leads in place): it keeps `*done`, runs the
  ///    query and passes the returned token to Complete() exactly once.
  /// `trace` (optional): a leader's id is recorded on the entry; a follower's
  /// trace is linked to it and opens `dedup_wait` under the table lock,
  /// before the leader can resolve the follower.
  Joined Join(const CacheKey& key, DiscoveryCallback* done,
              obs::Trace* trace = nullptr);

  /// Resolves the running entry that `lead` (a Join token) opened under
  /// `key`. When `response` succeeded and capacity > 0, the entry becomes a
  /// cached result in the same critical section (evicting the least recently
  /// used past capacity); otherwise it is dropped. Then every parked follower
  /// is called with `response` — same status, same shared result, with
  /// DiscoveryResponse::deduped set — on the calling thread, outside the
  /// lock. A no-op unless `lead` still holds the entry, so a repeated call,
  /// or a finished leader's call after the key was re-led, changes nothing.
  void Complete(const CacheKey& key, uint64_t lead,
                const DiscoveryResponse& response);

  /// Drops every cached entry of `model` (on checkpoint unload/replace).
  /// Running entries stay: their leaders, pinned to the unloaded model,
  /// still resolve their followers and cache under the old generation.
  void EraseModel(const std::string& model);

  /// Drops every cached entry older than the TTL, returning how many were
  /// dropped (0 when no TTL is configured). Expiry is otherwise lazy —
  /// checked on Join — so long-idle tables can call this to release memory
  /// eagerly. Running entries are never dropped.
  size_t PruneExpired();

  /// Snapshot of the counters.
  Stats stats() const;

 private:
  /// One key's entry: running while `lead` is non-zero, else cached.
  struct Entry {
    uint64_t lead = 0;  ///< running: the leader's Join token
    /// Running: the leader's trace id (0 when untraced), which followers
    /// link their own traces to.
    uint64_t leader_trace_id = 0;
    std::vector<DiscoveryCallback> followers;  ///< running: parked callbacks
    std::shared_ptr<const core::DetectionResult> result;  ///< cached: result
    double cached_at = 0;  ///< cached: clock seconds when it was cached
    std::list<const CacheKey*>::iterator lru;  ///< cached: its LRU position
  };

  /// True when the cached `entry` is older than the TTL at clock time `now`.
  bool ExpiredLocked(const Entry& entry, double now) const;

  mutable std::mutex mu_;
  ScoreCacheOptions options_;
  std::unordered_map<CacheKey, Entry, CacheKeyHash> index_;
  /// The cached entries' keys (pointing into index_), most recent first.
  std::list<const CacheKey*> lru_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  uint64_t expirations_ = 0;
  uint64_t leaders_ = 0;  ///< also the last lead token handed out
  uint64_t followers_ = 0;
  uint64_t failed_fanins_ = 0;
};

}  // namespace serve
}  // namespace causalformer

#endif  // CAUSALFORMER_SERVE_SCORE_CACHE_H_

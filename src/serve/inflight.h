#ifndef CAUSALFORMER_SERVE_INFLIGHT_H_
#define CAUSALFORMER_SERVE_INFLIGHT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "serve/score_cache.h"
#include "serve/types.h"

/// \file
/// Cross-request dedup of identical in-flight discovery queries.
///
/// The ScoreCache removes repeat work *after* a query completes; this table
/// removes it *while* the query is still running. Production traffic makes
/// that window wide: the newest sliding window of a monitored system is
/// queried by many clients at once, and overlapping streams replaying the
/// same feed submit content-identical windows within milliseconds of each
/// other (the TTCD-style workload of src/stream/). Without dedup each of
/// those runs the full detection pass; with it, the first submitter becomes
/// the *leader* and every later identical submitter parks as a *follower*
/// on the leader's entry, receiving the very same shared DetectionResult
/// (bit-identical scores) when the leader finishes.
///
/// Identity is the full ScoreCache key — (model name + registry generation,
/// 128-bit window-content hash, exact detector-options encoding) — so dedup
/// can never coalesce work the detector would treat differently: an
/// epsilon-perturbed window or option set produces a different key and runs
/// on its own.
///
/// Error and teardown paths fan in deterministically too: a leader that is
/// rejected (queue full), orphaned (batcher shutdown) or fails resolves
/// every parked follower with the same status, and a table destroyed with
/// entries still open fails the stragglers instead of dropping their
/// callbacks.

namespace causalformer {
namespace serve {

/// One unique in-flight query: its identity plus the followers parked on
/// the leader's result. All fields are guarded by the owning table's mutex;
/// outside the table, holders treat the entry as an opaque token.
struct InFlightEntry {
  CacheKey key;            ///< identity of the running work
  bool completed = false;  ///< the leader resolved (entry is retired)
  /// Trace id of the leader's request (0 when the leader is untraced).
  /// Followers joining later link their own trace to it, so a slow deduped
  /// response can be attributed to the work that actually ran.
  uint64_t leader_trace_id = 0;
  /// Callbacks of the parked followers, called once at completion.
  std::vector<DiscoveryCallback> followers;
};

/// The thread-safe registry of unique in-flight queries.
class InFlightTable {
 public:
  /// Point-in-time dedup counters.
  struct Stats {
    uint64_t leaders = 0;        ///< entries opened (unique queries led)
    uint64_t hits = 0;           ///< followers coalesced onto a leader
    uint64_t failed_fanins = 0;  ///< followers resolved with a non-ok status
    size_t in_flight = 0;        ///< entries currently open (gauge)
  };

  /// An empty table.
  InFlightTable() = default;
  /// Fails any still-open entry's followers (engine teardown) so no parked
  /// callback is ever dropped uncalled.
  ~InFlightTable();

  InFlightTable(const InFlightTable&) = delete;             ///< not copyable
  InFlightTable& operator=(const InFlightTable&) = delete;  ///< not copyable

  /// Joins the in-flight query for `key`. When none is running, returns a
  /// new entry the caller leads: it keeps `*done`, runs the query and
  /// eventually Complete()s the entry. Otherwise parks `*done` on the running
  /// entry as a follower and returns null. Atomic — exactly one concurrent
  /// caller per key leads. `trace` (optional): a leader's id is recorded on
  /// the entry; a follower's trace is linked to it and opens `dedup_wait`
  /// under the table lock, before the leader can resolve the follower.
  std::shared_ptr<InFlightEntry> Join(const CacheKey& key,
                                      DiscoveryCallback* done,
                                      obs::Trace* trace = nullptr);

  /// Leader completion: retires the entry and calls every parked follower
  /// with `response` — same status, same shared result (bit-identical
  /// scores), with DiscoveryResponse::deduped set — on the calling thread,
  /// outside the table lock. Idempotent; calls after the first are no-ops.
  void Complete(const std::shared_ptr<InFlightEntry>& entry,
                const DiscoveryResponse& response);

  /// Snapshot of the dedup counters.
  Stats stats() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<CacheKey, std::shared_ptr<InFlightEntry>, CacheKeyHash>
      index_;
  uint64_t leaders_ = 0;
  uint64_t hits_ = 0;
  uint64_t failed_fanins_ = 0;
};

}  // namespace serve
}  // namespace causalformer

#endif  // CAUSALFORMER_SERVE_INFLIGHT_H_

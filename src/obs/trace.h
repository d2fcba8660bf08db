#ifndef CAUSALFORMER_OBS_TRACE_H_
#define CAUSALFORMER_OBS_TRACE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/clock.h"

/// \file
/// Per-request trace spans across the serving pipeline.
///
/// A Trace is allocated when a Detect frame is decoded and rides the
/// request through the engine: decode → enqueue (queue + shape-bucket
/// wait) → execute (the batched model pass) → encode. Spans are recorded
/// as *marks*: StartSpan(name) closes the current span and opens the next
/// at the same clock reading, so the span sequence is contiguous by
/// construction — a gap would require time to pass between closing one
/// span and opening the next, which the single-mark API makes impossible.
///
/// Inside the execute span, the executor attributes time to detector
/// phases (forward, backward, relevance, cluster) and hot tensor kernels
/// via the thread-local PhaseCollector/ScopedPhaseTimer pair; the
/// per-phase totals are attached to every trace that rode the batch.
///
/// A request answered by in-flight dedup never executes: its trace
/// records a link to the *leader's* trace id instead, so a slow follower
/// can be attributed to the leader that actually ran.
///
/// Completed traces land in a bounded TraceRing; traces slower than the
/// ring's threshold additionally emit one structured warning log line.

namespace causalformer {
namespace obs {

/// One contiguous stage of a request's life.
struct TraceSpan {
  std::string name;  ///< stage name (decode/enqueue/execute/encode/…)
  double start = 0;  ///< clock seconds at the opening mark
  double end = 0;    ///< clock seconds at the closing mark (>= start)
};

/// The record of one request's path through the pipeline. Thread-safe:
/// the poll thread, an executor thread and whichever thread completes the
/// request touch a trace at different stages, and the score table may read
/// a leader's id concurrently.
class Trace {
 public:
  /// A trace with `id`, reading time from `clock` (copied), opening its
  /// first span `first_span` at the current clock reading.
  Trace(uint64_t id, Clock clock, const std::string& first_span);

  Trace(const Trace&) = delete;             ///< not copyable
  Trace& operator=(const Trace&) = delete;  ///< not copyable

  /// The trace id (allocated at wire decode; unique per Observability).
  uint64_t id() const { return id_; }

  /// Closes the current span and opens `name` at the same clock reading.
  void StartSpan(const std::string& name);

  /// Closes the current span; later StartSpan calls reopen the timeline
  /// (used once, at encode completion).
  void Finish();

  /// Adds `seconds` to the phase `name` total (executor attribution).
  void AddPhase(const std::string& name, double seconds);

  /// Links this trace to the leader trace that computed its result
  /// (dedup followers only).
  void SetLeader(uint64_t leader_id);

  /// The linked leader trace id; 0 when this trace led its own work.
  uint64_t leader_id() const;

  /// Spans recorded so far (copy; contiguous, in order).
  std::vector<TraceSpan> spans() const;

  /// Accumulated phase totals (copy; name → seconds), insertion order.
  std::vector<std::pair<std::string, double>> phases() const;

  /// Seconds from the first span's start to the last closed span's end.
  double DurationSeconds() const;

  /// One-line structured rendering: id, leader link, spans with
  /// durations, phase totals — the slow-request log format.
  std::string ToString() const;

 private:
  const uint64_t id_;
  const Clock clock_;
  mutable std::mutex mu_;
  uint64_t leader_id_ = 0;
  bool open_ = true;  ///< the last span is still open
  std::vector<TraceSpan> spans_;
  std::vector<std::pair<std::string, double>> phases_;
};

/// Bounded ring of completed traces with a slow-request threshold.
/// Thread-safe.
class TraceRing {
 public:
  /// A ring retaining the last `capacity` traces; traces slower than
  /// `slow_threshold_seconds` (0 disables) log one warning line on entry.
  explicit TraceRing(size_t capacity = 256,
                     double slow_threshold_seconds = 0);

  TraceRing(const TraceRing&) = delete;             ///< not copyable
  TraceRing& operator=(const TraceRing&) = delete;  ///< not copyable

  /// Admits a completed trace, evicting the oldest past capacity.
  void Add(std::shared_ptr<const Trace> trace);

  /// The retained traces, oldest first (copy of the shared pointers).
  std::vector<std::shared_ptr<const Trace>> Snapshot() const;

  /// Completed traces admitted so far (including evicted ones).
  uint64_t total_added() const;

  /// The configured slow threshold in seconds (0 = disabled).
  double slow_threshold_seconds() const { return slow_threshold_; }

  /// Installs a hook invoked (outside the ring's lock, so the hook may
  /// Snapshot()) for every admitted trace slower than the threshold — the
  /// flight recorder's slow-request dump trigger. Null uninstalls.
  void SetSlowTraceHook(std::function<void(const Trace&)> hook);

 private:
  const size_t capacity_;
  const double slow_threshold_;
  mutable std::mutex mu_;
  std::deque<std::shared_ptr<const Trace>> ring_;
  uint64_t total_added_ = 0;
  /// Guards slow_hook_ separately from mu_: the hook runs unlocked and
  /// may re-enter the ring.
  mutable std::mutex hook_mu_;
  std::function<void(const Trace&)> slow_hook_;
};

/// Per-batch phase accumulator, installed thread-locally on the executor
/// for the duration of one batched detection pass. ScopedPhaseTimer
/// reports into the collector installed on its thread; when none is
/// installed (obs off, or a non-executor thread) timers are no-ops that
/// never read the clock.
class PhaseCollector {
 public:
  /// A collector reading time from `clock` (copied).
  explicit PhaseCollector(Clock clock = Clock());

  /// The collector installed on the calling thread, or null.
  static PhaseCollector* Current();

  /// Adds `seconds` to the phase `name` (same-thread callers only).
  void Add(const char* name, double seconds);

  /// The accumulated (phase, seconds) totals, insertion order.
  const std::vector<std::pair<std::string, double>>& phases() const {
    return phases_;
  }

  /// The collector's clock (ScopedPhaseTimer reads it).
  const Clock& clock() const { return clock_; }

  /// Whether kernel-tagged timers record into this collector (default on).
  /// Kernel timers fire per tensor op — hundreds of clock reads per batch —
  /// so the engine samples them on a subset of batches: per-op durations
  /// keep faithful quantiles while the always-on detector phase timers
  /// (four per batch) stay exact.
  bool collect_kernels() const { return collect_kernels_; }

  /// Enables/disables kernel-tagged timers for this collector.
  void set_collect_kernels(bool on) { collect_kernels_ = on; }

 private:
  friend class ScopedPhaseCollector;
  Clock clock_;
  bool collect_kernels_ = true;
  std::vector<std::pair<std::string, double>> phases_;
};

/// RAII installation of a PhaseCollector on the current thread.
class ScopedPhaseCollector {
 public:
  /// Installs `collector` (null = explicitly no collection) for the
  /// scope; restores the previous installation on destruction.
  explicit ScopedPhaseCollector(PhaseCollector* collector);
  ~ScopedPhaseCollector();

  ScopedPhaseCollector(const ScopedPhaseCollector&) = delete;  ///< not copyable
  ScopedPhaseCollector& operator=(const ScopedPhaseCollector&) =
      delete;  ///< not copyable

 private:
  PhaseCollector* previous_;
};

/// Scoped attribution of elapsed time to a named phase. Near-free when no
/// collector is installed on the thread: one thread-local read, no clock
/// access. `name` must outlive the timer (string literals).
class ScopedPhaseTimer {
 public:
  /// Starts timing phase `name` if a collector is installed. Timers
  /// constructed with `kernel = true` additionally require the collector's
  /// kernel flag (PhaseCollector::collect_kernels) — the sampling gate for
  /// per-op timers on the hottest tensor kernels.
  explicit ScopedPhaseTimer(const char* name, bool kernel = false)
      : collector_(PhaseCollector::Current()), name_(name) {
    if (collector_ != nullptr && kernel && !collector_->collect_kernels()) {
      collector_ = nullptr;
    }
    if (collector_ != nullptr) start_ = collector_->clock().Now();
  }

  /// Stops and reports into the collector (if any).
  ~ScopedPhaseTimer() {
    if (collector_ != nullptr) {
      collector_->Add(name_, collector_->clock().Now() - start_);
    }
  }

  ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;  ///< not copyable
  ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) =
      delete;  ///< not copyable

 private:
  PhaseCollector* collector_;
  const char* const name_;
  double start_ = 0;
};

}  // namespace obs
}  // namespace causalformer

#endif  // CAUSALFORMER_OBS_TRACE_H_

#ifndef CAUSALFORMER_OBS_PROFILER_H_
#define CAUSALFORMER_OBS_PROFILER_H_

#include <signal.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "util/status.h"

/// \file
/// Continuous in-process sampling profiler.
///
/// The phase timers in obs/trace.h only cover pre-declared sites; when a
/// benchmark regresses, the question is *where the CPU time actually
/// goes* on a live server. The profiler answers it with classic
/// production-profiler machinery:
///
///  * a SIGPROF interval timer (`setitimer(ITIMER_PROF)`) fires at a
///    configurable rate (default 97 Hz — prime, so the ticks do not
///    phase-lock with millisecond-periodic work) against the process's
///    consumed CPU time, landing on whichever thread is burning cycles;
///  * the signal handler captures a backtrace into a **preallocated
///    lock-free sample buffer** — no malloc, no locks, relaxed/release
///    atomics only, so it is async-signal-safe and never blocks the
///    interrupted thread;
///  * samples attribute to **named threads** through a process-wide
///    registry (RegisterProfilingThread): the server's poll loop, every
///    batcher executor lane and the kernel thread-pool workers register
///    at spawn;
///  * symbolization (dladdr + demangling) and aggregation run entirely
///    off the hot path, at collection time, producing folded-stack
///    (collapsed) text for `flamegraph.pl`/speedscope and
///    chrome://tracing-compatible JSON next to the existing trace
///    export.
///
/// One profiler is *installed* process-wide while running (SIGPROF has a
/// single process disposition). The serving stack starts it continuously
/// at server boot; a wire `Profile` request (docs/wire-protocol.md
/// §4.11) clears the buffer, waits its duration and returns the window's
/// stacks. When the buffer fills, further ticks are **counted as drops**
/// (exactly — the handler never blocks and never overwrites).
///
/// Self-metrics (docs/observability.md): `cf_profiler_samples_total`,
/// `cf_profiler_drops_total`, `cf_profiler_overhead_seconds` (cumulative
/// wall time spent inside the signal handler), `cf_profiler_running`,
/// `cf_profiler_hz`. The apparatus is budgeted at ≤ 2% of request latency
/// like the rest of the diagnostics layer; the `profiler` pair of
/// `bench_obs_overhead` measures it.

namespace causalformer {
namespace obs {

class MetricsRegistry;

/// Names the calling thread (`pthread_setname_np`, truncated to the
/// 15-character kernel limit) and registers it with the process-wide
/// profiling thread registry so samples landing on it attribute to
/// `name` in folded stacks and the chrome JSON. Call once per thread,
/// at spawn; cheap (one atomic slot claim), safe without any profiler
/// installed, and idempotent enough for reuse (a re-registration under
/// a new name wins).
void RegisterProfilingThread(const char* name);

/// The registered profiling name of the calling thread, or null when the
/// thread never called RegisterProfilingThread.
const char* CurrentProfilingThreadName();

/// Profiler construction knobs.
struct ProfilerOptions {
  /// Sampling rate against process CPU time, in ticks per second.
  /// Primes avoid phase-locking with periodic work; 97 is the
  /// conventional production default (~10.3 ms of CPU per tick).
  int hz = 97;
  /// Preallocated sample-buffer capacity. Ticks past capacity are
  /// counted as drops until the buffer is cleared. 65536 samples hold
  /// ~11 CPU-minutes at 97 Hz.
  size_t max_samples = 65536;
  /// Frames retained per sample (deeper stacks truncate at the root
  /// end). Clamped to the compile-time slot size (48).
  int max_depth = 48;
  /// Optional registry for the `cf_profiler_*` self-metrics, updated on
  /// Start/Stop/Clear and every collection. Not owned; may be null.
  MetricsRegistry* metrics = nullptr;
};

/// One aggregated profile collection window.
struct ProfileReport {
  /// Samples captured in the window (buffer occupancy, not ticks).
  uint64_t samples = 0;
  /// Ticks dropped in the window because the buffer was full.
  uint64_t drops = 0;
  /// The wall seconds the collection window covered.
  double seconds = 0;
  /// Folded-stack (collapsed) text: one `thread;outer;...;leaf count`
  /// line per distinct stack, ready for flamegraph.pl or speedscope.
  std::string folded;
  /// chrome://tracing JSON: one duration event per sample on a per-
  /// thread track, loadable in Perfetto next to trace.json.
  std::string chrome_json;
};

/// The sampling profiler. Thread-safe; at most one instance may be
/// running (installed on SIGPROF) at a time.
class Profiler {
 public:
  /// A profiler with `options`; allocates the whole sample buffer up
  /// front so the signal handler never touches the allocator.
  explicit Profiler(ProfilerOptions options = ProfilerOptions());

  /// Stops sampling (if running) and releases the buffer.
  ~Profiler();

  Profiler(const Profiler&) = delete;             ///< not copyable
  Profiler& operator=(const Profiler&) = delete;  ///< not copyable

  /// Installs the SIGPROF handler and starts the interval timer.
  /// FailedPrecondition when any profiler is already running in the
  /// process; Internal when the timer cannot be armed.
  Status Start();

  /// Disarms the timer and uninstalls this profiler. Idempotent; the
  /// captured samples stay readable until Clear().
  Status Stop();

  /// Whether this profiler is currently sampling.
  bool running() const;

  /// Discards captured samples and starts a fresh accounting window
  /// (drops reset, buffer reused). Safe while running.
  void Clear();

  /// Samples currently held in the buffer.
  uint64_t sample_count() const;

  /// Ticks dropped since the last Clear() because the buffer was full.
  uint64_t drop_count() const;

  /// The configured sampling rate in Hz.
  int hz() const { return options_.hz; }

  /// Clears the buffer, samples for ~`seconds` wall time, then renders
  /// and returns the window. Blocking; concurrent collections serialize
  /// (second caller waits, then measures its own window).
  /// FailedPrecondition when the profiler is not running;
  /// InvalidArgument for a non-positive duration.
  StatusOr<ProfileReport> Collect(double seconds);

  /// Folded-stack text of the current buffer (symbolized, aggregated,
  /// deterministically ordered). Empty when no samples were captured.
  std::string RenderFolded() const;

  /// chrome://tracing JSON of the current buffer: per-thread tracks
  /// with one `ph:"X"` event per sample. Always valid JSON, even with
  /// zero samples.
  std::string RenderChromeJson() const;

  /// Records one already-captured stack for the calling thread — the
  /// signal handler's buffer-write path, exposed so tests can drive
  /// overflow accounting deterministically. `frames` holds `depth`
  /// program-counter values, leaf first. Returns false (and counts a
  /// drop) when the buffer is full.
  bool RecordSample(void* const* frames, int depth);

  /// Captures the calling thread's current backtrace and records it
  /// (exactly what a SIGPROF tick does, minus the signal).
  void SampleNow();

  /// The profiler currently installed on SIGPROF, or null. The wire
  /// server uses this only through the pointer it was handed; exposed
  /// for tests and the signal handler.
  static Profiler* Installed();

 private:
  struct Sample;

  static void SignalHandler(int signum, siginfo_t* info, void* ucontext);
  void HandleTick(const void* pc);
  void SyncMetrics();

  ProfilerOptions options_;
  std::unique_ptr<Sample[]> samples_;

  /// Next free buffer slot; values ≥ max_samples mean "full, drop".
  std::atomic<uint64_t> next_{0};
  /// Lifetime drops (survives Clear; sessions diff against a baseline).
  std::atomic<uint64_t> drops_total_{0};
  /// Lifetime ticks delivered to the handler.
  std::atomic<uint64_t> ticks_total_{0};
  /// Lifetime nanoseconds spent inside the signal handler.
  std::atomic<uint64_t> handler_ns_{0};
  /// Buffer epoch: bumped by Clear(); stale in-flight writes from a
  /// previous epoch are ignored by readers.
  std::atomic<uint64_t> epoch_{1};
  std::atomic<bool> running_{false};

  mutable std::mutex collect_mu_;  ///< serializes Collect() windows
  mutable std::mutex lifecycle_mu_;  ///< serializes Start/Stop/Clear
  std::atomic<uint64_t> drops_at_clear_{0};  ///< drops_total_ at last Clear
  uint64_t samples_cum_ = 0;      ///< samples finalized by past Clears
  uint64_t synced_samples_ = 0;   ///< samples already pushed to metrics
  uint64_t synced_drops_ = 0;     ///< drops already pushed to metrics
};

}  // namespace obs
}  // namespace causalformer

#endif  // CAUSALFORMER_OBS_PROFILER_H_

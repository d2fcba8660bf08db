#ifndef CAUSALFORMER_OBS_PROCESS_METRICS_H_
#define CAUSALFORMER_OBS_PROCESS_METRICS_H_

#include <cstdint>

/// \file
/// Process-level resource gauges read from `/proc/self`, plus the tensor
/// arenas' share of memory.
///
/// The serving metrics (docs/observability.md) cover what the code does;
/// these cover what it costs the machine: resident memory, consumed CPU
/// time, open file descriptors and uptime. They are the four series every
/// capacity dashboard starts with, and they come for free from procfs —
/// no allocation, four tiny reads. The two arena gauges say how much of
/// the resident memory the per-thread tensor arenas hold.
///
/// Registered series (all gauges, updated by Update()):
///
///  * `cf_process_rss_bytes`          — resident set size;
///  * `cf_process_cpu_seconds_total`  — user+system CPU consumed since
///    process start (a monotonic total, exposed as a gauge because it is
///    sampled, not incremented);
///  * `cf_process_open_fds`           — open descriptors in /proc/self/fd;
///  * `cf_process_uptime_seconds`     — wall seconds since construction;
///  * `cf_arena_pooled_bytes`         — bytes parked in the free lists of
///    every live ArenaAllocator (TotalArenaStats());
///  * `cf_arena_outstanding_blocks`   — arena blocks currently handed out
///    to live tensors.
///
/// The wire server refreshes the gauges on every kMetrics scrape, so
/// `serve_cli metrics --connect` and Prometheus always see current
/// values without any background poller thread.

namespace causalformer {
namespace obs {

class Gauge;
class MetricsRegistry;

/// Samples /proc/self and the arena totals into six gauges. Thread-safe
/// (Update() takes the registry's locks and the arena list's); one per
/// process, owned next to the Observability bundle.
class ProcessMetrics {
 public:
  /// Registers the gauges in `registry` (not owned; must outlive this
  /// object) and records the construction instant as process start for
  /// the uptime gauge. Performs one initial Update() so the series are
  /// never zero in a scrape.
  explicit ProcessMetrics(MetricsRegistry* registry);

  ProcessMetrics(const ProcessMetrics&) = delete;             ///< not copyable
  ProcessMetrics& operator=(const ProcessMetrics&) = delete;  ///< not copyable

  /// Re-reads /proc/self and the arena totals and refreshes every gauge.
  /// Cheap (three procfs reads, one directory scan, one pass over the live
  /// arenas); called per metrics scrape.
  void Update();

  /// Current resident set size in bytes (0 when procfs is unreadable).
  static uint64_t ReadRssBytes();
  /// User+system CPU seconds consumed by the process since it started
  /// (0 when procfs is unreadable).
  static double ReadCpuSeconds();
  /// Open file descriptors (counted via /proc/self/fd; -1 on failure).
  static int64_t ReadOpenFds();

 private:
  Gauge* rss_bytes_;
  Gauge* cpu_seconds_;
  Gauge* open_fds_;
  Gauge* uptime_seconds_;
  Gauge* arena_pooled_bytes_;
  Gauge* arena_outstanding_blocks_;
  double start_seconds_;  ///< monotonic construction instant
};

}  // namespace obs
}  // namespace causalformer

#endif  // CAUSALFORMER_OBS_PROCESS_METRICS_H_

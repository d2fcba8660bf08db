#ifndef CAUSALFORMER_OBS_METRICS_H_
#define CAUSALFORMER_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

/// \file
/// The metrics core: named counters, gauges and log-bucketed latency
/// histograms behind a MetricsRegistry, rendered as Prometheus-style text
/// exposition.
///
/// Design constraints, in order:
///
/// 1. **Record is lock-free and cheap.** Counters and histogram records are
///    relaxed atomic adds on cacheline-padded *stripes* (shards) selected by
///    thread identity, so concurrent recorders from the poll thread,
///    executor threads and producer threads appending to streams do not
///    contend on one cache line. Snapshots merge the stripes; they are the rare path.
/// 2. **Stable handles.** Registry lookups return pointers that stay valid
///    for the registry's lifetime, so instrumentation sites resolve their
///    series once at construction and never touch the registry map on the
///    hot path.
/// 3. **Label discipline.** A series name may carry a Prometheus label set
///    (`stream_append_to_graph_seconds{stream="cli"}`); the renderer splices
///    histogram suffixes and the `le` label in correctly. Names are
///    `[a-zA-Z_][a-zA-Z0-9_]*` before the optional `{...}`.
///
/// The metric name catalog lives in docs/observability.md.

namespace causalformer {
namespace obs {

/// Stripes per sharded metric. 8 stripes cover the thread counts this
/// process runs (poll + executor + pool workers + producers) without
/// making snapshots scan a large array.
inline constexpr int kMetricShards = 8;

/// A monotonically increasing event count (lock-free, striped).
class Counter {
 public:
  /// A zeroed counter.
  Counter();
  Counter(const Counter&) = delete;             ///< not copyable
  Counter& operator=(const Counter&) = delete;  ///< not copyable

  /// Adds `n` (relaxed; ordering against other metrics is not promised).
  void Increment(uint64_t n = 1);

  /// The merged total across stripes.
  uint64_t Value() const;

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  Shard shards_[kMetricShards];
};

/// A point-in-time value (set wins, no merge semantics).
class Gauge {
 public:
  /// A zeroed gauge.
  Gauge() : bits_(0) {}
  Gauge(const Gauge&) = delete;             ///< not copyable
  Gauge& operator=(const Gauge&) = delete;  ///< not copyable

  /// Replaces the value.
  void Set(double value);
  /// The current value.
  double Value() const;

 private:
  std::atomic<uint64_t> bits_;  // IEEE-754 bit pattern of the value
};

/// Histogram construction knobs: log-spaced buckets from `min_value`
/// growing by `growth` per bucket.
struct HistogramOptions {
  /// Upper bound of the first finite bucket; values at or below it land
  /// there. The default (1 µs) is below any measurable request phase.
  double min_value = 1e-6;
  /// Per-bucket growth factor (> 1). √2 halves the relative quantile error
  /// of factor-2 buckets at twice the bucket count.
  double growth = 1.41421356237309515;
  /// Finite bucket count (the last bucket additionally absorbs overflow).
  /// 64 √2-buckets span 1 µs … ~6.4 × 10³ s.
  int num_buckets = 64;
};

/// A log-bucketed distribution of non-negative samples (latencies,
/// occupancies) with lock-free striped recording.
class Histogram {
 public:
  /// Merged point-in-time view of a histogram.
  struct Snapshot {
    uint64_t count = 0;  ///< samples recorded
    double sum = 0;      ///< exact sum of recorded samples
    double p50 = 0;      ///< median estimate (bucket-interpolated)
    double p90 = 0;      ///< 90th percentile estimate
    double p99 = 0;      ///< 99th percentile estimate
    /// Per-bucket counts; `buckets[i]` counts samples in
    /// (UpperBound(i-1), UpperBound(i)], bucket 0 from 0.
    std::vector<uint64_t> buckets;

    /// Quantile estimate for `q` in [0, 1], linearly interpolated inside
    /// the containing bucket. 0 when the snapshot is empty.
    double Quantile(double q, const HistogramOptions& options) const;
  };

  /// An empty histogram with the given bucket layout.
  explicit Histogram(const HistogramOptions& options = HistogramOptions());
  Histogram(const Histogram&) = delete;             ///< not copyable
  Histogram& operator=(const Histogram&) = delete;  ///< not copyable

  /// Records one sample (negative samples clamp to 0). Lock-free: one
  /// relaxed bucket add plus one CAS loop on the stripe's sum.
  void Record(double value);

  /// Merges every stripe into a consistent-enough view (concurrent records
  /// may or may not be included; each sample is counted exactly once in
  /// the snapshots that see it).
  Snapshot GetSnapshot() const;

  /// Inclusive upper bound of bucket `i`; +inf for the last bucket.
  double UpperBound(int i) const;

  /// The bucket layout.
  const HistogramOptions& options() const { return options_; }

 private:
  struct alignas(64) Shard {
    std::vector<std::atomic<uint64_t>> buckets;
    std::atomic<uint64_t> sum_bits{0};  // IEEE-754 bits, CAS-accumulated
    explicit Shard(int num_buckets) : buckets(num_buckets) {}
  };

  int BucketFor(double value) const;

  HistogramOptions options_;
  double inv_log_growth_ = 0;  // 1 / ln(growth), precomputed for Record
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Summary row of one histogram, as carried in the wire MetricsResult
/// frame and rendered by `serve_cli metrics`.
struct HistogramSummary {
  std::string name;    ///< full series name (labels included)
  uint64_t count = 0;  ///< samples recorded
  double sum = 0;      ///< sum of samples
  double p50 = 0;      ///< median estimate
  double p90 = 0;      ///< 90th percentile estimate
  double p99 = 0;      ///< 99th percentile estimate
};

/// The thread-safe owner of every named series. Get* registers on first
/// use and returns the same stable pointer thereafter; a name registered
/// as one kind cannot be re-registered as another (fatal — it is a
/// programming error, caught in tests).
class MetricsRegistry {
 public:
  /// An empty registry.
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;             ///< not copyable
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;  ///< not copyable

  /// The counter named `name`, creating it on first use.
  Counter* GetCounter(const std::string& name);
  /// The gauge named `name`, creating it on first use.
  Gauge* GetGauge(const std::string& name);
  /// The histogram named `name`, creating it (with `options`) on first
  /// use; later calls ignore `options`.
  Histogram* GetHistogram(const std::string& name,
                          const HistogramOptions& options = HistogramOptions());

  /// Prometheus-style text exposition of every series, names sorted.
  /// Histograms render cumulative `_bucket{le="..."}` lines (+Inf last),
  /// `_sum` and `_count`; label sets embedded in the series name are
  /// spliced before the `le` label.
  std::string RenderText() const;

  /// Summary rows (count/sum/p50/p90/p99) of every histogram, names
  /// sorted — the payload of the wire MetricsResult frame.
  std::vector<HistogramSummary> HistogramSummaries() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace obs
}  // namespace causalformer

#endif  // CAUSALFORMER_OBS_METRICS_H_

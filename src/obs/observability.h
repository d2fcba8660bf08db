#ifndef CAUSALFORMER_OBS_OBSERVABILITY_H_
#define CAUSALFORMER_OBS_OBSERVABILITY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"

/// \file
/// The per-process observability bundle: one clock, one metrics registry,
/// one trace ring, one trace-id allocator.
///
/// Ownership model: the embedding process (serve_cli, a test, a bench)
/// constructs one Observability and hands a raw pointer to every layer
/// that instruments itself — EngineOptions::obs, WireServerOptions::obs,
/// the WindowScheduler constructor. A null pointer means "observability
/// off": every instrumentation site degrades to a pointer check, so the
/// off path adds no clock reads, no atomics and no allocation (the
/// foundation of the ≤ 2% overhead budget, which `bench_obs_overhead`
/// measures into BENCH_obs.json).

namespace causalformer {
namespace obs {

/// Observability construction knobs.
struct ObservabilityOptions {
  /// Completed traces retained in the ring.
  size_t trace_ring_capacity = 256;
  /// Requests slower than this log one structured warning line (seconds;
  /// 0 disables slow-request logging).
  double slow_request_seconds = 0;
  /// The time source every span, histogram sample and TTL check reads.
  /// Default: the real steady clock.
  Clock clock;
};

/// The bundle. Thread-safe throughout; construct once, share by pointer.
class Observability {
 public:
  /// A bundle with the given options.
  explicit Observability(ObservabilityOptions options = ObservabilityOptions())
      : options_(std::move(options)),
        traces_(options_.trace_ring_capacity,
                options_.slow_request_seconds) {}

  /// The injectable time source.
  const Clock& clock() const { return options_.clock; }

  /// The named-series registry.
  MetricsRegistry& metrics() { return metrics_; }

  /// The ring of completed traces.
  TraceRing& traces() { return traces_; }

  /// Installs the ring's slow-trace hook (see TraceRing::SetSlowTraceHook);
  /// the flight recorder arms its slow-request dump through this.
  void SetSlowTraceHook(std::function<void(const Trace&)> hook) {
    traces_.SetSlowTraceHook(std::move(hook));
  }

  /// Allocates the next trace id (> 0; monotonically increasing).
  uint64_t NextTraceId() {
    return next_trace_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Allocates a trace opening `first_span` now — the wire-decode entry
  /// point.
  std::shared_ptr<Trace> StartTrace(const std::string& first_span) {
    return std::make_shared<Trace>(NextTraceId(), options_.clock,
                                   first_span);
  }

 private:
  ObservabilityOptions options_;
  MetricsRegistry metrics_;
  TraceRing traces_;
  std::atomic<uint64_t> next_trace_id_{0};
};

}  // namespace obs
}  // namespace causalformer

#endif  // CAUSALFORMER_OBS_OBSERVABILITY_H_

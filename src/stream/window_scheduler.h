#ifndef CAUSALFORMER_STREAM_WINDOW_SCHEDULER_H_
#define CAUSALFORMER_STREAM_WINDOW_SCHEDULER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/detector.h"
#include "graph/causal_graph.h"
#include "obs/observability.h"
#include "serve/inference_engine.h"
#include "serve/stream_backend.h"
#include "stream/drift.h"
#include "stream/ring_series.h"

/// \file
/// Streaming sliding-window causal discovery: the layer that turns the
/// one-shot batched detector into a continuous service.
///
/// A *stream* is a named live series. Producers append samples as they
/// arrive; the scheduler cuts overlapping detection windows (width/stride
/// config) out of the stream's ring, hashes each window incrementally
/// (RollingWindowHasher — O(stride·N + width) per window, and the hash
/// doubles as the ScoreCache key, so identical windows across streams or
/// replays skip detection entirely; when the identical window is still *in
/// flight* rather than cached, the engine's ScoreCache parks this stream's
/// submission as a follower on the running entry instead of double-running
/// it, counted as StreamStats::windows_deduped), and submits them through
/// InferenceEngine::Submit — the same entry point one-shot queries use, so
/// windows from concurrent streams coalesce with each other and with ad-hoc
/// Detect traffic in the micro-batcher. Each window's completion callback
/// stores its result in the stream's in-flight slot; results are folded in
/// per-stream window order, each window's graph through a DriftTracker into
/// TTCD-style StreamReports, by whichever thread is the *folder*: one at a
/// time, it folds every stream's finished prefix, emits the windows that
/// became due, submits them with the lock released, and loops until nothing
/// is left. A completion that arrives while another thread folds (inline
/// ones included: cache hits, rejections) only stores its result, so an
/// append of any length runs in constant stack.
///
/// Backpressure ("debounce"): at most `max_in_flight` windows of one stream
/// are in the engine at once; windows falling due beyond that wait, and if
/// the producer outruns detection far enough that a waiting window's samples
/// are overwritten in the ring, the window is *dropped* (counted, never
/// silently) and the stream skips forward — a live stream prefers fresh
/// graphs over a growing backlog.

namespace causalformer {
namespace stream {

/// Hard bounds on stream configuration. StreamOpen frames arrive from the
/// network, so every size knob needs a ceiling — the same threat model as
/// the wire decoders' payload budgets: one small hostile frame must not be
/// able to allocate arbitrary memory or overflow size arithmetic.
inline constexpr int64_t kMaxStreamHistory = 1 << 20;  ///< samples per ring
inline constexpr int64_t kMaxStreamStride = 1 << 20;   ///< samples per step
inline constexpr int kMaxStreamInFlight = 4096;    ///< in-flight detections
inline constexpr size_t kMaxStreamReports = 1 << 16;  ///< retained reports
inline constexpr size_t kMaxOpenStreams = 4096;    ///< streams per scheduler

/// Per-stream configuration.
struct StreamConfig {
  std::string model;   ///< registry model to detect with
  int64_t window = 0;  ///< window width; 0 = the model's window (must match)
  int64_t stride = 1;  ///< samples between consecutive windows
  /// Ring capacity in samples; 0 defaults to max(4·window, window+8·stride).
  int64_t history = 0;
  int max_in_flight = 4;     ///< in-flight detection bound (debounce)
  size_t max_reports = 256;  ///< retained undrained reports before dropping
  core::DetectorOptions detector;  ///< detector knobs for every window
  DriftOptions drift;              ///< drift/regime-change thresholds
};

/// Point-in-time counters of one stream.
struct StreamStats {
  uint64_t total_samples = 0;     ///< samples appended so far
  uint64_t windows_emitted = 0;   ///< detections submitted to the engine
  uint64_t windows_completed = 0; ///< detections finished (ok or failed)
  uint64_t windows_failed = 0;    ///< detections that returned an error
  uint64_t windows_dropped = 0;   ///< windows lost to ring overrun
  uint64_t reports_dropped = 0;   ///< reports lost to the report bound
  uint64_t cache_hits = 0;        ///< windows answered from the ScoreCache
  /// Windows answered by fanning in on an identical in-flight query —
  /// another stream (or ad-hoc Detect traffic) was already computing the
  /// same (model generation, window hash, options) key, so this stream's
  /// submission parked as a dedup follower instead of double-running.
  uint64_t windows_deduped = 0;
  uint32_t pending = 0;           ///< detections currently in flight
};

/// One completed window: its graph plus the drift comparison against the
/// stream's previous window. The in-process mirror of
/// serve::wire::StreamReportMsg.
struct StreamReport {
  uint64_t window_index = 0;   ///< ordinal of the window in its stream
  int64_t window_start = 0;    ///< absolute sample index of the first column
  bool cache_hit = false;      ///< answered from the ScoreCache
  bool deduped = false;        ///< answered by in-flight dedup fan-in
  int batch_size = 0;          ///< micro-batch size the window rode in
  double latency_seconds = 0;  ///< submit→completion seconds
  int num_series = 0;          ///< series count of the stream
  std::vector<CausalEdge> edges;  ///< the window's discovered graph
  bool has_baseline = false;   ///< false for the stream's first window
  DriftReport drift;           ///< zeroed when !has_baseline
};

/// The continuous sliding-window front-end of one InferenceEngine.
///
/// Thread-safe: producers may append to different streams concurrently, and
/// the wire server's poll thread may drive it while in-process callers do.
/// Also the production serve::StreamBackend, so a WireServer can expose the
/// same streams over TCP.
class WindowScheduler : public serve::StreamBackend {
 public:
  /// A scheduler submitting through `engine` (must outlive the scheduler).
  /// `obs` (optional, not owned, must outlive the scheduler) enables
  /// per-stream metrics: an append→graph latency histogram
  /// (`stream_append_to_graph_seconds{stream="…"}`) plus drift-event and
  /// regime-change counters, resolved per stream at Open().
  explicit WindowScheduler(serve::InferenceEngine* engine,
                           obs::Observability* obs = nullptr);
  /// Returns at once: in-flight detections finish in the engine, and their
  /// callbacks find the scheduler gone and drop their reports.
  ~WindowScheduler() override;

  WindowScheduler(const WindowScheduler&) = delete;             ///< not copyable
  WindowScheduler& operator=(const WindowScheduler&) = delete;  ///< not copyable

  /// Creates a stream. Fails if the name is taken, the model is unknown,
  /// or the config is inconsistent (window must equal the model's window;
  /// history must hold at least one window plus one stride). On success,
  /// `resolved` (optional) receives the config after defaulting.
  Status Open(const std::string& name, StreamConfig config,
              StreamConfig* resolved = nullptr);

  /// Removes a stream. In-flight detections finish; their reports vanish.
  Status Close(const std::string& name);

  /// Appends `samples` ([N, K], series-major) and submits every newly due
  /// window within the in-flight bound. Returns post-append counters.
  /// Never blocks on model work.
  StatusOr<StreamStats> Append(const std::string& name, const Tensor& samples);

  /// Counters of one stream.
  StatusOr<StreamStats> GetStats(const std::string& name) const;

  /// Drains up to `max_reports` reports (0 = all available), oldest first.
  /// Each report is delivered exactly once.
  StatusOr<std::vector<StreamReport>> Take(const std::string& name,
                                           size_t max_reports = 0);

  /// Blocks until every submitted window has completed and been folded into
  /// reports (for tests, benches and drain-before-shutdown).
  void Flush();

  /// Streams currently open, sorted by name.
  std::vector<std::string> List() const;

  // serve::StreamBackend (the wire adapter):
  StatusOr<serve::wire::StreamOpenOkMsg> OpenStream(
      const serve::wire::StreamOpenMsg& msg) override;
  Status CloseStream(const std::string& stream) override;
  StatusOr<serve::wire::AppendSamplesOkMsg> AppendSamples(
      const std::string& stream, const Tensor& samples) override;
  StatusOr<std::vector<serve::wire::StreamReportMsg>> TakeReports(
      const std::string& stream, uint32_t max_reports) override;

  /// Human-readable state for flight-recorder bundles: the scheduler's
  /// in-flight total and whether a folder is running, then one block per
  /// open stream (config geometry, ring depth, counters, report-queue depth).
  std::string DebugString() const;

 private:
  struct Stream;
  struct Shared;

  /// The named stream, or NotFound. Holds shared_->mu.
  StatusOr<std::shared_ptr<Stream>> FindLocked(const std::string& name) const;

  /// The state completion callbacks share with the scheduler. They hold it
  /// by shared_ptr, so one that runs after the scheduler is gone still
  /// touches live memory (and finds the shutdown flag set).
  std::shared_ptr<Shared> shared_;
  obs::Observability* obs_;
  /// Open streams by name; guarded by shared_->mu.
  std::map<std::string, std::shared_ptr<Stream>> streams_;
};

}  // namespace stream
}  // namespace causalformer

#endif  // CAUSALFORMER_STREAM_WINDOW_SCHEDULER_H_

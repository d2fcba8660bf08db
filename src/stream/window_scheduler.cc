#include "stream/window_scheduler.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <utility>

#include "util/logging.h"

namespace causalformer {
namespace stream {

namespace {

serve::wire::StreamReportMsg ToWire(const StreamReport& report) {
  serve::wire::StreamReportMsg msg;
  msg.window_index = report.window_index;
  msg.window_start = report.window_start;
  msg.cache_hit = report.cache_hit;
  msg.deduped = report.deduped;
  msg.has_baseline = report.has_baseline;
  msg.drifted = report.drift.drifted;
  msg.regime_change = report.drift.regime_change;
  msg.batch_size = report.batch_size;
  msg.latency_seconds = report.latency_seconds;
  msg.num_series = report.num_series;
  msg.edges = report.edges;
  msg.consecutive_drifts = report.drift.consecutive_drifts;
  msg.edges_added = report.drift.edges_added;
  msg.edges_removed = report.drift.edges_removed;
  msg.edges_kept = report.drift.edges_kept;
  msg.delay_changes = report.drift.delay_changes;
  msg.mean_abs_score_delta = report.drift.mean_abs_score_delta;
  msg.max_abs_score_delta = report.drift.max_abs_score_delta;
  msg.jaccard = report.drift.jaccard;
  msg.added = report.drift.added;
  msg.removed = report.drift.removed;
  return msg;
}

}  // namespace

struct WindowScheduler::Stream {
  /// One emitted window awaiting its fold.
  struct InFlight {
    uint64_t window_index = 0;
    int64_t window_start = 0;
    bool done = false;  ///< the engine called back; `response` is set
    serve::DiscoveryResponse response;
  };

  std::string name;  ///< registry key (for logs and DebugString)
  StreamConfig config;
  RingSeries ring;
  RollingWindowHasher hasher;
  DriftTracker drift;
  int64_t next_end = 0;           ///< absolute end of the next due window
  uint64_t next_window_index = 0; ///< ordinal of the next emitted window
  StreamStats stats;
  std::deque<StreamReport> reports;
  /// Emitted windows not yet folded, in emission order: entry i is the
  /// stream's emission number stats.windows_completed + i.
  std::deque<InFlight> in_flight;
  bool closed = false;  ///< Close() ran; folds discard reports
  bool marked = false;  ///< queued in Shared::marked
  /// Per-stream metric handles (stable registry pointers resolved at
  /// Open(); all null when the scheduler runs without observability).
  obs::Histogram* latency_hist = nullptr;  ///< append→graph seconds
  obs::Counter* drift_events = nullptr;    ///< windows flagged drifted
  obs::Counter* regime_events = nullptr;   ///< regime changes declared

  Stream(std::string stream_name, StreamConfig cfg, int64_t num_series)
      : name(std::move(stream_name)),
        config(std::move(cfg)),
        ring(num_series, config.history),
        hasher(num_series, config.history),
        drift(config.drift),
        next_end(config.window) {}
  Stream(const Stream&) = delete;  // completion callbacks hold its address
  Stream& operator=(const Stream&) = delete;
};

struct WindowScheduler::Shared
    : public std::enable_shared_from_this<WindowScheduler::Shared> {
  /// A window ready to go to the engine once mu is released.
  struct Submission {
    serve::DiscoveryRequest request;
    serve::DiscoveryCallback done;
  };

  explicit Shared(serve::InferenceEngine* e) : engine(e) {}

  /// Queues `stream` (it has a foldable result or due windows) and becomes
  /// the folder unless another thread is, which then picks the stream up.
  /// The folder loops until no stream is queued, calling the engine with mu
  /// released: a completion that runs inline there only stores its result,
  /// for the next pass. Holds mu on entry and exit.
  void Schedule(const std::shared_ptr<Stream>& stream,
                std::unique_lock<std::mutex>& lock) {
    if (!stream->marked) {
      stream->marked = true;
      marked.push_back(stream);
    }
    if (folding) return;
    folding = true;
    std::vector<Submission> submissions;
    while (!shutdown && !marked.empty()) {
      std::vector<std::shared_ptr<Stream>> streams;
      streams.swap(marked);
      for (const auto& s : streams) {
        s->marked = false;
        FoldLocked(*s);
        PumpLocked(s, &submissions);
      }
      if (submissions.empty()) continue;
      lock.unlock();
      for (Submission& submission : submissions) {
        engine->Submit(std::move(submission.request),
                       std::move(submission.done));
      }
      submissions.clear();
      lock.lock();
    }
    folding = false;
    if (in_flight == 0 || shutdown) idle_cv.notify_all();
  }

  /// A window's completion callback, on whatever thread the engine resolved
  /// it: stores the result in the window's in-flight entry.
  void Complete(const std::shared_ptr<Stream>& stream, uint64_t emission,
                serve::DiscoveryResponse response) {
    std::unique_lock<std::mutex> lock(mu);
    if (shutdown) return;
    Stream::InFlight& window =
        stream->in_flight[emission - stream->stats.windows_completed];
    window.done = true;
    window.response = std::move(response);
    // Only the oldest window can be folded; a later one waits for it.
    if (emission == stream->stats.windows_completed) Schedule(stream, lock);
  }

  /// Folds the stream's finished in-flight prefix, in window order, into
  /// reports and drift state. Holds mu.
  void FoldLocked(Stream& stream) {
    while (!stream.in_flight.empty() && stream.in_flight.front().done) {
      const Stream::InFlight window = std::move(stream.in_flight.front());
      stream.in_flight.pop_front();
      --in_flight;
      ++stream.stats.windows_completed;
      CF_CHECK_GT(stream.stats.pending, 0u);
      --stream.stats.pending;
      const serve::DiscoveryResponse& response = window.response;
      if (!response.status.ok()) {
        ++stream.stats.windows_failed;
        continue;
      }
      if (stream.closed) continue;
      if (response.cache_hit) ++stream.stats.cache_hits;
      if (response.deduped) ++stream.stats.windows_deduped;
      StreamReport report;
      report.window_index = window.window_index;
      report.window_start = window.window_start;
      report.cache_hit = response.cache_hit;
      report.deduped = response.deduped;
      report.batch_size = response.batch_size;
      report.latency_seconds = response.latency_seconds;
      report.num_series = response.result->scores.num_series();
      report.edges = response.result->graph.edges();
      auto drift = stream.drift.Observe(response.result);
      report.has_baseline = drift.has_value();
      if (drift.has_value()) report.drift = *std::move(drift);
      if (stream.latency_hist != nullptr) {
        stream.latency_hist->Record(report.latency_seconds);
      }
      if (report.drift.drifted && stream.drift_events != nullptr) {
        stream.drift_events->Increment();
      }
      if (report.drift.regime_change && stream.regime_events != nullptr) {
        stream.regime_events->Increment();
      }
      stream.reports.push_back(std::move(report));
      while (stream.reports.size() > stream.config.max_reports) {
        stream.reports.pop_front();
        ++stream.stats.reports_dropped;
        // The consumer stopped draining StreamReports; oldest evidence is
        // being discarded. Same throttling discipline as the ring-overrun
        // warning below: one CF_LOG_THROTTLED site, so a sustained drop
        // storm costs one line per second and the skipped emissions ride
        // the next line's `suppressed` carryover instead of flooding.
        CF_LOG_THROTTLED(kWarning, 1.0, 5.0)
            << "stream report ring full; dropping oldest report"
            << LogKV("stream", stream.name.c_str())
            << LogKV("reports_dropped_total",
                     static_cast<unsigned long long>(
                         stream.stats.reports_dropped));
      }
    }
  }

  /// Emits every due window within the stream's in-flight bound into `out`,
  /// dropping windows whose samples were overwritten. Holds mu.
  void PumpLocked(const std::shared_ptr<Stream>& stream,
                  std::vector<Submission>* out) {
    if (stream->closed) return;  // deferred windows of a closed stream die
    const int64_t width = stream->config.window;
    const int64_t stride = stream->config.stride;
    while (stream->next_end <= stream->ring.total_appended()) {
      if (stream->stats.pending >=
          static_cast<uint32_t>(stream->config.max_in_flight)) {
        return;  // debounce: the fold that frees a slot re-pumps
      }
      const int64_t start = stream->next_end - width;
      if (start < stream->ring.oldest()) {
        // The producer outran detection and the ring overwrote this window's
        // oldest samples: skip forward to the first fully retained window,
        // counting every skipped emission.
        const int64_t deficit = stream->ring.oldest() - start;
        const int64_t skipped = (deficit + stride - 1) / stride;
        stream->next_end += skipped * stride;
        stream->next_window_index += static_cast<uint64_t>(skipped);
        stream->stats.windows_dropped += static_cast<uint64_t>(skipped);
        // Data loss: the stream is being overrun. Throttled — a sustained
        // overrun drops windows on every append.
        CF_LOG_THROTTLED(kWarning, 1.0, 5.0)
            << "stream overrun: ring overwrote un-detected samples"
            << LogKV("stream", stream->name.c_str())
            << LogKV("windows_skipped",
                     static_cast<unsigned long long>(skipped))
            << LogKV("windows_dropped_total",
                     static_cast<unsigned long long>(
                         stream->stats.windows_dropped));
        continue;
      }
      auto windows = stream->ring.Window(stream->next_end, width);
      auto hash = stream->hasher.Window(stream->next_end, width);
      CF_CHECK(windows.ok() && hash.ok());  // range established above
      Submission submission;
      submission.request.model = stream->config.model;
      submission.request.windows = std::move(windows).value();
      submission.request.options = stream->config.detector;
      submission.request.has_window_hash = true;
      submission.request.window_hash = *hash;
      submission.done = [self = shared_from_this(), stream,
                         emission = stream->stats.windows_emitted](
                            serve::DiscoveryResponse response) {
        self->Complete(stream, emission, std::move(response));
      };
      out->push_back(std::move(submission));

      Stream::InFlight window;
      window.window_index = stream->next_window_index++;
      window.window_start = start;
      stream->in_flight.push_back(std::move(window));
      ++stream->stats.windows_emitted;
      ++stream->stats.pending;
      ++in_flight;
      stream->next_end += stride;
    }
  }

  serve::InferenceEngine* const engine;
  std::mutex mu;  // guards everything here, streams_ and every Stream
  std::condition_variable idle_cv;  ///< wakes Flush()
  /// Streams with a foldable result or due windows, for the folder.
  std::vector<std::shared_ptr<Stream>> marked;
  int64_t in_flight = 0;  ///< emitted windows not yet folded, all streams
  bool folding = false;   ///< a thread is running the Schedule() loop
  bool shutdown = false;  ///< the scheduler is gone; callbacks drop results
};

WindowScheduler::WindowScheduler(serve::InferenceEngine* engine,
                                 obs::Observability* obs)
    : shared_(std::make_shared<Shared>(engine)), obs_(obs) {
  CF_CHECK(engine != nullptr);
}

WindowScheduler::~WindowScheduler() {
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    shared_->shutdown = true;
  }
  shared_->idle_cv.notify_all();
}

Status WindowScheduler::Open(const std::string& name, StreamConfig config,
                             StreamConfig* resolved) {
  if (name.empty()) {
    return Status::InvalidArgument("stream name must be non-empty");
  }
  const auto model = shared_->engine->registry().Get(config.model);
  if (model == nullptr) {
    return Status::NotFound("model '" + config.model + "' is not registered");
  }
  const core::ModelOptions& mopt = model->options();
  if (config.window == 0) config.window = mopt.window;
  if (config.window != mopt.window) {
    return Status::InvalidArgument(
        "stream window " + std::to_string(config.window) +
        " must match model window " + std::to_string(mopt.window));
  }
  if (config.stride < 1 || config.stride > kMaxStreamStride) {
    return Status::InvalidArgument("stride must be in [1, " +
                                   std::to_string(kMaxStreamStride) + "]");
  }
  if (config.max_in_flight < 1 || config.max_in_flight > kMaxStreamInFlight) {
    return Status::InvalidArgument("max_in_flight must be in [1, " +
                                   std::to_string(kMaxStreamInFlight) + "]");
  }
  if (config.max_reports < 1 || config.max_reports > kMaxStreamReports) {
    return Status::InvalidArgument("max_reports must be in [1, " +
                                   std::to_string(kMaxStreamReports) + "]");
  }
  // window (== the model's) and stride are both bounded here, so the
  // arithmetic below cannot overflow.
  if (config.window + config.stride > kMaxStreamHistory) {
    return Status::InvalidArgument(
        "window + stride exceeds the streaming history bound " +
        std::to_string(kMaxStreamHistory));
  }
  if (config.history == 0) {
    config.history = std::min<int64_t>(
        std::max<int64_t>(4 * config.window,
                          config.window + 8 * config.stride),
        kMaxStreamHistory);
  }
  if (config.history < config.window + config.stride ||
      config.history > kMaxStreamHistory) {
    return Status::InvalidArgument(
        "history must be in [window + stride, " +
        std::to_string(kMaxStreamHistory) + "] (need >= " +
        std::to_string(config.window + config.stride) + ", got " +
        std::to_string(config.history) + ")");
  }
  // Reject detector options at open time, not per window: every window of a
  // misconfigured stream would otherwise fail one by one.
  const core::DetectorOptions& d = config.detector;
  if (d.max_windows < 1 || d.num_clusters < 1 || d.top_clusters < 1 ||
      d.top_clusters > d.num_clusters || !(d.epsilon > 0.0f)) {
    return Status::InvalidArgument(
        "invalid detector options: require max_windows >= 1, "
        "1 <= top_clusters <= num_clusters, epsilon > 0");
  }
  std::lock_guard<std::mutex> lock(shared_->mu);
  if (streams_.size() >= kMaxOpenStreams) {
    return Status::FailedPrecondition(
        "too many open streams (bound: " + std::to_string(kMaxOpenStreams) +
        ")");
  }
  if (streams_.count(name) != 0) {
    return Status::FailedPrecondition("stream '" + name + "' already exists");
  }
  if (resolved != nullptr) *resolved = config;
  auto stream =
      std::make_shared<Stream>(name, std::move(config), mopt.num_series);
  if (obs_ != nullptr) {
    // Per-stream series, labelled by name; pointers stay valid for the
    // stream's life because the registry never evicts.
    obs::MetricsRegistry& metrics = obs_->metrics();
    stream->latency_hist = metrics.GetHistogram(
        "stream_append_to_graph_seconds{stream=\"" + name + "\"}");
    stream->drift_events = metrics.GetCounter(
        "stream_drift_events_total{stream=\"" + name + "\"}");
    stream->regime_events = metrics.GetCounter(
        "stream_regime_changes_total{stream=\"" + name + "\"}");
  }
  streams_.emplace(name, std::move(stream));
  return Status::Ok();
}

Status WindowScheduler::Close(const std::string& name) {
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    const auto it = streams_.find(name);
    if (it == streams_.end()) {
      return Status::NotFound("stream '" + name + "' is not open");
    }
    // In-flight completions still hold the shared Stream; the flag tells
    // the folder to account the window but discard its report.
    it->second->closed = true;
    streams_.erase(it);
  }
  // A closing stream is exactly when TTL expiry has work to do: its cached
  // windows will never be probed again, so sweep eagerly (no-op without a
  // configured TTL).
  shared_->engine->PruneExpiredCache();
  return Status::Ok();
}

StatusOr<std::shared_ptr<WindowScheduler::Stream>> WindowScheduler::FindLocked(
    const std::string& name) const {
  const auto it = streams_.find(name);
  if (it == streams_.end()) {
    return Status::NotFound("stream '" + name + "' is not open");
  }
  return it->second;
}

StatusOr<StreamStats> WindowScheduler::Append(const std::string& name,
                                              const Tensor& samples) {
  std::unique_lock<std::mutex> lock(shared_->mu);
  auto found = FindLocked(name);
  if (!found.ok()) return found.status();
  const std::shared_ptr<Stream> stream = *std::move(found);
  CF_RETURN_IF_ERROR(stream->ring.Append(samples));
  // The hasher applies the same geometry checks the ring just passed, so the
  // two stay in lockstep by construction.
  CF_CHECK(stream->hasher.Append(samples).ok());
  stream->stats.total_samples =
      static_cast<uint64_t>(stream->ring.total_appended());
  shared_->Schedule(stream, lock);
  return stream->stats;
}

StatusOr<StreamStats> WindowScheduler::GetStats(const std::string& name) const {
  std::lock_guard<std::mutex> lock(shared_->mu);
  auto found = FindLocked(name);
  if (!found.ok()) return found.status();
  return (*found)->stats;
}

StatusOr<std::vector<StreamReport>> WindowScheduler::Take(
    const std::string& name, size_t max_reports) {
  std::lock_guard<std::mutex> lock(shared_->mu);
  auto found = FindLocked(name);
  if (!found.ok()) return found.status();
  const std::shared_ptr<Stream>& stream = *found;
  size_t count = stream->reports.size();
  if (max_reports > 0 && max_reports < count) count = max_reports;
  std::vector<StreamReport> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    out.push_back(std::move(stream->reports.front()));
    stream->reports.pop_front();
  }
  return out;
}

void WindowScheduler::Flush() {
  Shared& shared = *shared_;
  std::unique_lock<std::mutex> lock(shared.mu);
  shared.idle_cv.wait(lock, [&shared] {
    return (shared.in_flight == 0 && !shared.folding) || shared.shutdown;
  });
}

std::vector<std::string> WindowScheduler::List() const {
  std::lock_guard<std::mutex> lock(shared_->mu);
  std::vector<std::string> names;
  names.reserve(streams_.size());
  for (const auto& [name, stream] : streams_) names.push_back(name);
  return names;
}

std::string WindowScheduler::DebugString() const {
  std::lock_guard<std::mutex> lock(shared_->mu);
  std::string out = "in_flight=" + std::to_string(shared_->in_flight) +
                    " folding=" + std::to_string(shared_->folding) + "\n";
  out += "streams=" + std::to_string(streams_.size()) + "\n";
  for (const auto& [name, stream] : streams_) {
    const StreamStats& s = stream->stats;
    out += "stream " + name + ": model=" + stream->config.model +
           " window=" + std::to_string(stream->config.window) +
           " stride=" + std::to_string(stream->config.stride) +
           " history=" + std::to_string(stream->config.history) +
           " ring_total=" + std::to_string(stream->ring.total_appended()) +
           "\n  samples=" + std::to_string(s.total_samples) +
           " emitted=" + std::to_string(s.windows_emitted) +
           " completed=" + std::to_string(s.windows_completed) +
           " failed=" + std::to_string(s.windows_failed) +
           " dropped=" + std::to_string(s.windows_dropped) +
           " deduped=" + std::to_string(s.windows_deduped) +
           " cache_hits=" + std::to_string(s.cache_hits) +
           " pending=" + std::to_string(s.pending) +
           "\n  reports_queued=" + std::to_string(stream->reports.size()) +
           " reports_dropped=" + std::to_string(s.reports_dropped) +
           (stream->closed ? " closed" : "") + "\n";
  }
  return out;
}

// ---- serve::StreamBackend (the wire adapter) --------------------------------

StatusOr<serve::wire::StreamOpenOkMsg> WindowScheduler::OpenStream(
    const serve::wire::StreamOpenMsg& msg) {
  StreamConfig config;
  config.model = msg.model;
  config.window = msg.window;
  config.stride = msg.stride;
  config.history = msg.history;
  config.max_in_flight = static_cast<int>(msg.max_in_flight);
  config.max_reports = msg.max_reports;
  config.detector = msg.options;
  config.drift.score_delta_threshold = msg.drift_score_threshold;
  config.drift.flip_fraction_threshold = msg.drift_flip_threshold;
  config.drift.stability_window = msg.stability_window;
  StreamConfig resolved;
  CF_RETURN_IF_ERROR(Open(msg.stream, std::move(config), &resolved));
  serve::wire::StreamOpenOkMsg ok;
  ok.window = resolved.window;
  ok.stride = resolved.stride;
  ok.history = resolved.history;
  return ok;
}

Status WindowScheduler::CloseStream(const std::string& stream) {
  return Close(stream);
}

StatusOr<serve::wire::AppendSamplesOkMsg> WindowScheduler::AppendSamples(
    const std::string& stream, const Tensor& samples) {
  auto stats = Append(stream, samples);
  if (!stats.ok()) return stats.status();
  serve::wire::AppendSamplesOkMsg ok;
  ok.total_samples = stats->total_samples;
  ok.windows_emitted = stats->windows_emitted;
  ok.windows_dropped = stats->windows_dropped;
  ok.windows_failed = stats->windows_failed;
  ok.pending = stats->pending;
  ok.deduped_windows = stats->windows_deduped;
  return ok;
}

StatusOr<std::vector<serve::wire::StreamReportMsg>>
WindowScheduler::TakeReports(const std::string& stream, uint32_t max_reports) {
  auto reports = Take(stream, max_reports);
  if (!reports.ok()) return reports.status();
  std::vector<serve::wire::StreamReportMsg> out;
  out.reserve(reports->size());
  for (const StreamReport& report : *reports) out.push_back(ToWire(report));
  return out;
}

}  // namespace stream
}  // namespace causalformer

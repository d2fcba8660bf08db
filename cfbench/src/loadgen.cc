#include "loadgen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>

#include "conn.h"
#include "oracle.h"
#include "serve/wire.h"
#include "tensor/ops.h"

namespace cfbench {

namespace cf = causalformer;
namespace wire = causalformer::serve::wire;

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kTimeoutS = 10;       // per-response deadline
constexpr int64_t kHistory = 4096;     // server ring capacity per stream
constexpr double kPollS = 0.001;       // report-drain poll interval
constexpr double kDrainTimeoutS = 10;  // wait for outstanding reports

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <typename T, typename From>
void Append(std::vector<T>* into, const From& from) {
  into->insert(into->end(), from.begin(), from.end());
}

// One closed-loop connection: keeps `depth` requests in flight until the
// phase ends, then drains what is outstanding.
void ClosedLoopLane(const ClosedLoopOptions& o, uint32_t lane,
                    Clock::time_point t0, std::atomic<uint64_t>* next_index,
                    std::mutex* mu, ClosedLoopResult* total) {
  ClosedLoopResult r;
  // Per-op samples go to deques: a vector's reallocation copy would stall
  // this thread for milliseconds on the hot path and show up as latency.
  std::deque<double> rtt, engine, done_at;
  Conn conn;
  struct Pending {
    uint64_t index;
    double sent;
  };
  std::deque<Pending> queue;
  if (!conn.Connect(o.port).ok()) {
    r.attempted = 1;
    r.lost = 1;
  }
  while (conn.connected()) {
    while (static_cast<int>(queue.size()) < o.depth && Since(t0) < o.seconds) {
      const uint64_t index = next_index->fetch_add(1);
      const std::vector<uint8_t> frame = o.frame(index);
      const double sent = Since(t0);
      ++r.attempted;
      if (!conn.SendEncoded(frame).ok()) {
        ++r.lost;
        break;
      }
      queue.push_back({index, sent});
    }
    if (queue.empty() || !conn.connected()) break;
    auto frame = conn.Recv(kTimeoutS);
    if (!frame.ok()) break;  // the queued requests count as lost below
    const double done = Since(t0);
    const Pending p = queue.front();
    queue.pop_front();
    wire::DetectResultMsg msg;
    if (frame->type != wire::MessageType::kDetectResult ||
        !wire::DecodeDetectResult(frame->payload, &msg).ok()) {
      ++r.error_frames;
      continue;
    }
    ++r.ok;
    rtt.push_back(done - p.sent);
    engine.push_back(msg.latency_seconds);
    done_at.push_back(done);
    if (o.trace && r.spans.size() < kMaxSpansPerLane) {
      r.spans.push_back({lane, p.index, p.sent, done, msg.latency_seconds});
    }
    if (o.distinct > 0) {
      const uint64_t batch = p.index % o.distinct;
      auto it = r.first.find(batch);
      if (it == r.first.end()) {
        r.first.emplace(batch, msg.result);
      } else if (!SameResult(it->second, msg.result)) {
        ++r.repeat_mismatches;
      }
    }
    if (o.keep && o.keep(p.index)) {
      r.kept.emplace(p.index, std::move(msg.result));
    }
  }
  r.lost += queue.size();
  r.bytes = conn.bytes_sent() + conn.bytes_received();

  std::lock_guard<std::mutex> lock(*mu);
  total->attempted += r.attempted;
  total->ok += r.ok;
  total->error_frames += r.error_frames;
  total->lost += r.lost;
  total->bytes += r.bytes;
  total->elapsed_s =
      std::max(total->elapsed_s, done_at.empty() ? 0.0 : done_at.back());
  Append(&total->rtt_s, rtt);
  Append(&total->engine_s, engine);
  Append(&total->done_at_s, done_at);
  Append(&total->spans, r.spans);
  for (auto& [batch, result] : r.first) {
    auto it = total->first.find(batch);
    if (it == total->first.end()) {
      total->first.emplace(batch, std::move(result));
    } else if (!SameResult(it->second, result)) {
      ++total->repeat_mismatches;
    }
  }
  total->repeat_mismatches += r.repeat_mismatches;
  for (auto& [index, result] : r.kept) {
    total->kept.emplace(index, std::move(result));
  }
}

}  // namespace

ClosedLoopResult RunClosedLoop(const ClosedLoopOptions& o) {
  ClosedLoopResult total;
  std::atomic<uint64_t> next_index{o.first_index};
  std::mutex mu;
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> lanes;
  for (int c = 0; c < o.connections; ++c) {
    lanes.emplace_back(ClosedLoopLane, std::cref(o), static_cast<uint32_t>(c),
                       t0, &next_index, &mu, &total);
  }
  for (auto& t : lanes) t.join();
  if (total.elapsed_s <= 0) total.elapsed_s = Since(t0);
  return total;
}

namespace {

// One stream: appends `stride` samples per period on a fixed schedule (open
// loop — a slow server does not slow the schedule) and drains reports in
// between. Latency runs from when the window's last sample was due.
void OpenLoopLane(const OpenLoopOptions& o, int lane, Conn* stream_conn,
                  Clock::time_point t0, std::mutex* mu, OpenLoopResult* total) {
  OpenLoopResult r;
  const StreamLane& spec = o.lanes[static_cast<size_t>(lane)];
  Conn& conn = *stream_conn;
  const int64_t length = spec.series->dim(1);
  const int64_t appends =
      std::min<int64_t>(static_cast<int64_t>(o.seconds / o.period_s),
                        length / o.stride);
  // Windows complete once `appended` appends have been sent.
  const auto windows_after = [&](int64_t appended) -> int64_t {
    const int64_t samples = appended * o.stride;
    return samples >= o.window ? (samples - o.window) / o.stride + 1 : 0;
  };
  const int64_t expected = windows_after(appends);
  const auto due = [&](int64_t append_index) {
    return spec.offset_s + static_cast<double>(append_index) * o.period_s;
  };
  uint64_t dropped = 0, failed_windows = 0;
  int64_t delivered = 0;
  int64_t k = 0;
  double appends_done_at = 0;
  while (conn.connected()) {
    double now = Since(t0);
    if (k < appends && now >= due(k)) {
      wire::AppendSamplesMsg msg;
      msg.stream = spec.name;
      msg.samples = cf::Slice(*spec.series, 1, k * o.stride, (k + 1) * o.stride)
                        .Detach();
      const std::vector<uint8_t> frame =
          wire::EncodeFrame(wire::MessageType::kAppendSamples,
                            wire::EncodeAppendSamples(msg));
      now = Since(t0);
      r.lag_s.push_back(now - due(k));
      auto ack = conn.SendEncoded(frame).ok()
                     ? conn.Recv(kTimeoutS)
                     : cf::StatusOr<wire::Frame>(cf::Status::Internal("send"));
      if (!ack.ok()) break;
      r.append_rtt_s.push_back(Since(t0) - now);
      wire::AppendSamplesOkMsg ok;
      if (ack->type != wire::MessageType::kAppendSamplesOk ||
          !wire::DecodeAppendSamplesOk(ack->payload, &ok).ok()) {
        ++r.error_frames;
      } else {
        dropped = ok.windows_dropped;
        failed_windows = ok.windows_failed;
      }
      if (++k == appends) appends_done_at = Since(t0);
      continue;
    }
    // Poll for reports only while one is owed; otherwise sleep until the
    // next append, so polling adds no load the workload does not need.
    const int64_t settled =
        delivered + static_cast<int64_t>(dropped + failed_windows);
    const bool owed = settled < windows_after(k);
    if (k >= appends) {
      if (!owed) break;
      if (now - appends_done_at > kDrainTimeoutS) break;
    } else if (!owed) {
      std::this_thread::sleep_for(std::chrono::duration<double>(due(k) - now));
      continue;
    }
    wire::StreamReportsMsg drain;
    drain.stream = spec.name;
    const double sent = Since(t0);
    auto frame = conn.Call(wire::MessageType::kStreamReports,
                           wire::EncodeStreamReports(drain),
                           wire::MessageType::kStreamReportsResult, kTimeoutS);
    if (!frame.ok()) {
      if (!conn.connected()) break;
      ++r.error_frames;
      continue;
    }
    const double got = Since(t0);
    r.drain_rtt_s.push_back(got - sent);
    std::vector<wire::StreamReportMsg> reports;
    if (!wire::DecodeStreamReportsResult(frame->payload, &reports).ok()) {
      ++r.error_frames;
      continue;
    }
    for (auto& report : reports) {
      const int64_t end = report.window_start + o.window;
      const double due_at = due((end - 1) / o.stride);
      r.latency_s.push_back(got - due_at);
      r.engine_s.push_back(report.latency_seconds);
      r.done_at_s.push_back(got);
      if (o.trace && r.spans.size() < kMaxSpansPerLane) {
        r.spans.push_back({static_cast<uint32_t>(lane), report.window_index,
                           due_at, got, report.latency_seconds});
      }
      r.reports.push_back({lane, report.window_start,
                           report.cache_hit || report.deduped,
                           std::move(report.edges)});
      ++delivered;
    }
    now = Since(t0);
    double wake = now + kPollS;
    if (k < appends) wake = std::min(wake, due(k));
    if (wake > now) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wake - now));
    }
  }
  if (conn.connected()) {
    (void)conn.Call(wire::MessageType::kStreamClose,
                    wire::EncodeStreamClose(spec.name),
                    wire::MessageType::kStreamCloseOk, kTimeoutS);
  }
  r.attempted = static_cast<uint64_t>(expected);
  r.ok = static_cast<uint64_t>(delivered);
  r.windows_dropped = dropped;
  r.windows_failed = failed_windows;
  const int64_t accounted =
      delivered + static_cast<int64_t>(dropped + failed_windows);
  r.lost =
      expected > accounted ? static_cast<uint64_t>(expected - accounted) : 0;
  r.bytes = conn.bytes_sent() + conn.bytes_received();

  std::lock_guard<std::mutex> lock(*mu);
  total->attempted += r.attempted;
  total->ok += r.ok;
  total->error_frames += r.error_frames;
  total->lost += r.lost;
  total->windows_dropped += r.windows_dropped;
  total->windows_failed += r.windows_failed;
  total->bytes += r.bytes;
  total->elapsed_s = std::max(
      total->elapsed_s, r.done_at_s.empty() ? 0.0 : r.done_at_s.back());
  Append(&total->latency_s, r.latency_s);
  Append(&total->engine_s, r.engine_s);
  Append(&total->done_at_s, r.done_at_s);
  Append(&total->lag_s, r.lag_s);
  Append(&total->append_rtt_s, r.append_rtt_s);
  Append(&total->drain_rtt_s, r.drain_rtt_s);
  Append(&total->spans, r.spans);
  for (auto& rep : r.reports) total->reports.push_back(std::move(rep));
}

}  // namespace

OpenLoopResult RunOpenLoop(const OpenLoopOptions& o) {
  OpenLoopResult total;
  std::vector<Conn> conns(o.lanes.size());
  // Open every stream before the schedule starts so all lanes begin in
  // lockstep; a lane that cannot open counts all its windows as lost.
  for (size_t i = 0; i < o.lanes.size(); ++i) {
    Conn& conn = conns[i];
    wire::StreamOpenMsg open;
    open.stream = o.lanes[i].name;
    open.model = "default";
    open.stride = o.stride;
    open.history = kHistory;
    open.max_reports = 1 << 14;
    if (!conn.Connect(o.port).ok()) continue;
    auto ok = conn.Call(wire::MessageType::kStreamOpen,
                        wire::EncodeStreamOpen(open),
                        wire::MessageType::kStreamOpenOk, kTimeoutS);
    if (!ok.ok()) conn.Close();
  }
  std::mutex mu;
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  for (size_t i = 0; i < o.lanes.size(); ++i) {
    threads.emplace_back(OpenLoopLane, std::cref(o), static_cast<int>(i),
                         &conns[i], t0, &mu, &total);
  }
  for (auto& t : threads) t.join();
  if (total.elapsed_s <= 0) total.elapsed_s = Since(t0);
  return total;
}

}  // namespace cfbench

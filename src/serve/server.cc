#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/process_metrics.h"
#include "obs/profiler.h"
#include "serve/stream_backend.h"
#include "util/logging.h"
#include "util/socket.h"

namespace causalformer {
namespace serve {

namespace {

constexpr size_t kReadChunk = 64 * 1024;

wire::DetectResultMsg ToResultMsg(const DiscoveryResponse& response) {
  wire::DetectResultMsg msg;
  msg.cache_hit = response.cache_hit;
  msg.deduped = response.deduped;
  msg.batch_size = response.batch_size;
  msg.latency_seconds = response.latency_seconds;
  msg.result = *response.result;
  return msg;
}

}  // namespace

/// One accepted socket. The poll thread owns fd/inbuf/closing; outbuf and
/// the dead/admin_busy flags are shared with the completion thread under
/// out_mu.
struct WireServer::Connection {
  int fd = -1;
  std::vector<uint8_t> inbuf;
  /// Set after a malformed frame: stop reading, flush the error, close.
  bool closing = false;

  std::mutex out_mu;
  std::vector<uint8_t> outbuf;
  bool close_after_flush = false;
  bool dead = false;
  /// A LoadModel is executing on a worker thread. The poll thread holds off
  /// decoding this connection's *next* frames (they stay buffered in inbuf)
  /// until the load completes, so pipelined frames observe the load's
  /// effects — per-connection effect order matches the per-connection
  /// response order the protocol promises. Other connections dispatch
  /// freely, which is the whole point of the off-thread load. Also bounds
  /// load workers to one per connection.
  bool admin_busy = false;
};

/// One queued response, in per-connection request order. Exactly one of
/// {ready bytes, single future, batch futures, frame future} is populated.
struct WireServer::Pending {
  std::shared_ptr<Connection> conn;
  std::vector<uint8_t> ready;  ///< pre-encoded frame (control responses)
  bool is_future = false;
  std::future<DiscoveryResponse> future;
  bool is_batch = false;
  std::vector<std::future<DiscoveryResponse>> batch_futures;
  /// A response frame computed off-thread (LoadModel's checkpoint I/O runs
  /// on a worker so it cannot stall the poll thread's dispatch).
  bool is_frame_future = false;
  std::future<std::vector<uint8_t>> frame_future;
  /// The request's trace (Detect frames under observability): the
  /// completion thread marks the encode span, finishes it and lands it in
  /// the trace ring. Null otherwise.
  std::shared_ptr<obs::Trace> trace;
  /// Clear the connection's admin_busy flag (and wake the poll thread to
  /// resume decoding its buffered frames) once this response is delivered.
  bool clears_admin_busy = false;
  bool close_after = false;
};

WireServer::WireServer(InferenceEngine* engine,
                       const WireServerOptions& options)
    : engine_(engine), options_(options) {
  CF_CHECK(engine != nullptr);
  if (options_.obs != nullptr) {
    obs::MetricsRegistry& metrics = options_.obs->metrics();
    obs_frames_ = metrics.GetCounter("wire_frames_total");
    obs_wire_errors_ = metrics.GetCounter("wire_errors_total");
    obs_connections_ = metrics.GetCounter("wire_connections_total");
  }
}

WireServer::~WireServer() { Stop(); }

Status WireServer::Start() {
  if (started_) return Status::FailedPrecondition("server already started");
  // Any failure below must release every fd opened so far, or an aborted
  // Start() leaks the bound port and a retry leaks the wake pipe.
  const auto abandon = [this](Status status) {
    TcpClose(listen_fd_);
    listen_fd_ = -1;
    TcpClose(wake_pipe_[0]);
    TcpClose(wake_pipe_[1]);
    wake_pipe_[0] = wake_pipe_[1] = -1;
    port_ = 0;
    return status;
  };
  auto listen = TcpListen(options_.port, options_.backlog);
  if (!listen.ok()) return listen.status();
  listen_fd_ = *listen;
  const auto port = TcpLocalPort(listen_fd_);
  if (!port.ok()) return abandon(port.status());
  port_ = *port;
  if (::pipe(wake_pipe_) != 0) {
    return abandon(
        Status::Internal(std::string("pipe: ") + std::strerror(errno)));
  }
  if (Status st = TcpSetNonBlocking(listen_fd_, true); !st.ok()) {
    return abandon(std::move(st));
  }
  // Both pipe ends are non-blocking: a full wake pipe must never block the
  // completion thread (a dropped wake byte is fine because the poll thread
  // drains the pipe before sleeping).
  if (Status st = TcpSetNonBlocking(wake_pipe_[0], true); !st.ok()) {
    return abandon(std::move(st));
  }
  if (Status st = TcpSetNonBlocking(wake_pipe_[1], true); !st.ok()) {
    return abandon(std::move(st));
  }
  running_ = true;
  started_ = true;
  poll_thread_ = std::thread([this] {
    obs::RegisterProfilingThread("cf-poll");
    PollLoop();
  });
  completion_thread_ = std::thread([this] {
    obs::RegisterProfilingThread("cf-complete");
    CompletionLoop();
  });
  return Status::Ok();
}

void WireServer::Stop() {
  if (!started_) return;
  running_ = false;
  WakePoll();
  completion_cv_.notify_all();
  if (poll_thread_.joinable()) poll_thread_.join();
  if (completion_thread_.joinable()) completion_thread_.join();
  TcpClose(listen_fd_);
  listen_fd_ = -1;
  TcpClose(wake_pipe_[0]);
  TcpClose(wake_pipe_[1]);
  wake_pipe_[0] = wake_pipe_[1] = -1;
  started_ = false;
}

WireServer::Stats WireServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void WireServer::WakePoll() {
  if (wake_pipe_[1] >= 0) {
    const char byte = 1;
    // A full pipe already guarantees a pending wake-up.
    (void)!::write(wake_pipe_[1], &byte, 1);
  }
}

void WireServer::PushPending(Pending pending) {
  {
    std::lock_guard<std::mutex> lock(completion_mu_);
    completions_.push_back(std::move(pending));
  }
  completion_cv_.notify_one();
}

void WireServer::PushReady(const std::shared_ptr<Connection>& conn,
                           wire::MessageType type,
                           std::vector<uint8_t> payload, bool close_after) {
  Pending pending;
  pending.conn = conn;
  pending.ready = wire::EncodeFrame(type, std::move(payload));
  pending.close_after = close_after;
  PushPending(std::move(pending));
}

std::vector<uint8_t> WireServer::EncodeResponse(
    const DiscoveryResponse& response) {
  if (!response.status.ok()) {
    return wire::EncodeFrame(wire::MessageType::kError,
                             wire::EncodeError(response.status));
  }
  return wire::EncodeFrame(wire::MessageType::kDetectResult,
                           wire::EncodeDetectResult(ToResultMsg(response)));
}

bool WireServer::HandleFrame(const std::shared_ptr<Connection>& conn,
                             wire::Frame frame) {
  using wire::MessageType;
  if (frame.version != wire::kVersion) {
    // Version negotiation (docs/wire-protocol.md §3): answer with our
    // version's Error frame, then close.
    PushReady(conn, MessageType::kError,
              wire::EncodeError(Status::FailedPrecondition(
                  "unsupported wire version " +
                  std::to_string(frame.version) + " (server speaks " +
                  std::to_string(wire::kVersion) + ")")),
              /*close_after=*/true);
    return true;
  }
  // Decode failures of a CRC-valid frame leave the stream consistent: answer
  // kError and keep the connection open.
  const auto reject = [&](const Status& status) {
    if (obs_wire_errors_ != nullptr) obs_wire_errors_->Increment();
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.wire_errors;
    PushReady(conn, MessageType::kError, wire::EncodeError(status));
  };
  switch (frame.type) {
    case MessageType::kPing: {
      uint64_t token = 0;
      if (const Status st = wire::DecodePing(frame.payload, &token); !st.ok()) {
        reject(st);
        return true;
      }
      PushReady(conn, MessageType::kPong, wire::EncodePing(token));
      return true;
    }
    case MessageType::kDetect: {
      // The trace opens *before* payload decoding so its first span covers
      // the decode work the frame actually cost.
      std::shared_ptr<obs::Trace> trace;
      if (options_.obs != nullptr) trace = options_.obs->StartTrace("decode");
      wire::DetectMsg msg;
      if (const Status st = wire::DecodeDetect(frame.payload, &msg);
          !st.ok()) {
        reject(st);
        return true;
      }
      DiscoveryRequest request;
      request.model = std::move(msg.model);
      request.windows = std::move(msg.windows);
      request.options = msg.options;
      request.trace = trace;
      Pending pending;
      pending.conn = conn;
      pending.is_future = true;
      pending.trace = std::move(trace);
      pending.future = engine_->SubmitAsync(std::move(request));
      PushPending(std::move(pending));
      return true;
    }
    case MessageType::kDetectBatch: {
      wire::DetectBatchMsg msg;
      if (const Status st = wire::DecodeDetectBatch(frame.payload, &msg);
          !st.ok()) {
        reject(st);
        return true;
      }
      Pending pending;
      pending.conn = conn;
      pending.is_batch = true;
      pending.batch_futures.reserve(msg.windows.size());
      for (auto& windows : msg.windows) {
        DiscoveryRequest request;
        request.model = msg.model;
        request.windows = std::move(windows);
        request.options = msg.options;
        pending.batch_futures.push_back(
            engine_->SubmitAsync(std::move(request)));
      }
      PushPending(std::move(pending));
      return true;
    }
    case MessageType::kStats: {
      wire::StatsResultMsg msg;
      const EngineStats engine_stats = engine_->stats();
      const auto& cache = engine_stats.cache;
      msg.cache_hits = cache.hits;
      msg.cache_misses = cache.misses;
      msg.cache_evictions = cache.evictions;
      msg.cache_expirations = cache.expirations;
      msg.cache_size = cache.size;
      msg.cache_capacity = cache.capacity;
      const auto& batch = engine_stats.batcher;
      msg.batch_requests = batch.requests;
      msg.batch_batches = batch.batches;
      msg.batch_coalesced = batch.coalesced;
      msg.batch_max = batch.max_batch;
      msg.batch_rejected = batch.rejected;
      msg.batch_in_flight_limit = batch.in_flight_limit;
      msg.batch_shape_buckets = batch.shape_buckets;
      msg.dedup_hits = engine_stats.dedup.hits;
      msg.dedup_in_flight = engine_stats.dedup.in_flight;
      {
        std::lock_guard<std::mutex> lock(mu_);
        msg.server_connections = stats_.connections_accepted;
        msg.server_frames = stats_.frames;
        msg.server_wire_errors = stats_.wire_errors;
      }
      for (const auto& info : engine_->registry().List()) {
        wire::StatsResultMsg::Model model;
        model.name = info.name;
        model.num_parameters = info.num_parameters;
        model.generation = info.generation;
        model.num_series = info.options.num_series;
        model.window = info.options.window;
        msg.models.push_back(std::move(model));
      }
      // msg.shards stays empty: the v6 shard table goes out as zero rows.
      PushReady(conn, MessageType::kStatsResult, wire::EncodeStatsResult(msg));
      return true;
    }
    case MessageType::kLoadModel: {
      if (!options_.allow_admin) {
        reject(Status::FailedPrecondition("admin frames disabled"));
        return true;
      }
      wire::LoadModelMsg msg;
      if (const Status st = wire::DecodeLoadModel(frame.payload, &msg);
          !st.ok()) {
        reject(st);
        return true;
      }
      // Checkpoint deserialisation is file I/O plus tensor building — far
      // too slow for the poll thread, where it would stall every
      // connection's dispatch. Run it on a worker; the completion queue
      // keeps this connection's responses in request order regardless of
      // which thread produced the bytes, and admin_busy parks this
      // connection's later frames until the load's effects are visible.
      {
        std::lock_guard<std::mutex> lock(conn->out_mu);
        conn->admin_busy = true;
      }
      Pending pending;
      pending.conn = conn;
      pending.clears_admin_busy = true;
      pending.is_frame_future = true;
      pending.frame_future = std::async(
          std::launch::async, [this, msg = std::move(msg)]() mutable {
            const Status st = engine_->registry().Load(
                msg.name, msg.checkpoint_path, msg.options);
            if (!st.ok()) {
              if (obs_wire_errors_ != nullptr) obs_wire_errors_->Increment();
              std::lock_guard<std::mutex> lock(mu_);
              ++stats_.wire_errors;
              return wire::EncodeFrame(wire::MessageType::kError,
                                       wire::EncodeError(st));
            }
            wire::LoadModelOkMsg ok;
            for (const auto& info : engine_->registry().List()) {
              if (info.name == msg.name) {
                ok.num_parameters = info.num_parameters;
                ok.generation = info.generation;
              }
            }
            return wire::EncodeFrame(wire::MessageType::kLoadModelOk,
                                     wire::EncodeLoadModelOk(ok));
          });
      PushPending(std::move(pending));
      return true;
    }
    case MessageType::kUnloadModel: {
      if (!options_.allow_admin) {
        reject(Status::FailedPrecondition("admin frames disabled"));
        return true;
      }
      std::string name;
      if (const Status st = wire::DecodeUnloadModel(frame.payload, &name);
          !st.ok()) {
        reject(st);
        return true;
      }
      if (const Status st = engine_->UnloadModel(name); !st.ok()) {
        reject(st);
        return true;
      }
      PushReady(conn, MessageType::kUnloadModelOk, {});
      return true;
    }
    case MessageType::kStreamOpen: {
      if (options_.stream_backend == nullptr) {
        reject(Status::FailedPrecondition("streaming disabled"));
        return true;
      }
      wire::StreamOpenMsg msg;
      if (const Status st = wire::DecodeStreamOpen(frame.payload, &msg);
          !st.ok()) {
        reject(st);
        return true;
      }
      auto ok = options_.stream_backend->OpenStream(msg);
      if (!ok.ok()) {
        reject(ok.status());
        return true;
      }
      PushReady(conn, MessageType::kStreamOpenOk,
                wire::EncodeStreamOpenOk(*ok));
      return true;
    }
    case MessageType::kStreamClose: {
      if (options_.stream_backend == nullptr) {
        reject(Status::FailedPrecondition("streaming disabled"));
        return true;
      }
      std::string name;
      if (const Status st = wire::DecodeStreamClose(frame.payload, &name);
          !st.ok()) {
        reject(st);
        return true;
      }
      if (const Status st = options_.stream_backend->CloseStream(name);
          !st.ok()) {
        reject(st);
        return true;
      }
      PushReady(conn, MessageType::kStreamCloseOk, {});
      return true;
    }
    case MessageType::kAppendSamples: {
      if (options_.stream_backend == nullptr) {
        reject(Status::FailedPrecondition("streaming disabled"));
        return true;
      }
      wire::AppendSamplesMsg msg;
      if (const Status st = wire::DecodeAppendSamples(frame.payload, &msg);
          !st.ok()) {
        reject(st);
        return true;
      }
      // Appending only *submits* detections (SubmitAsync never blocks on
      // model work), so this is safe on the poll thread.
      auto ok = options_.stream_backend->AppendSamples(msg.stream, msg.samples);
      if (!ok.ok()) {
        reject(ok.status());
        return true;
      }
      PushReady(conn, MessageType::kAppendSamplesOk,
                wire::EncodeAppendSamplesOk(*ok));
      return true;
    }
    case MessageType::kStreamReports: {
      if (options_.stream_backend == nullptr) {
        reject(Status::FailedPrecondition("streaming disabled"));
        return true;
      }
      wire::StreamReportsMsg msg;
      if (const Status st = wire::DecodeStreamReports(frame.payload, &msg);
          !st.ok()) {
        reject(st);
        return true;
      }
      auto reports = options_.stream_backend->TakeReports(msg.stream,
                                                         msg.max_reports);
      if (!reports.ok()) {
        reject(reports.status());
        return true;
      }
      PushReady(conn, MessageType::kStreamReportsResult,
                wire::EncodeStreamReportsResult(*reports));
      return true;
    }
    case MessageType::kMetrics: {
      if (options_.obs == nullptr) {
        reject(Status::FailedPrecondition("metrics not enabled"));
        return true;
      }
      if (const Status st =
              wire::PayloadReader(frame.payload.data(), frame.payload.size())
                  .ExpectEnd();
          !st.ok()) {
        reject(st);
        return true;
      }
      if (options_.process_metrics != nullptr) {
        options_.process_metrics->Update();
      }
      wire::MetricsResultMsg msg;
      msg.text = options_.obs->metrics().RenderText();
      for (const obs::HistogramSummary& h :
           options_.obs->metrics().HistogramSummaries()) {
        wire::HistogramSummaryMsg row;
        row.name = h.name;
        row.count = h.count;
        row.sum = h.sum;
        row.p50 = h.p50;
        row.p90 = h.p90;
        row.p99 = h.p99;
        msg.histograms.push_back(std::move(row));
      }
      PushReady(conn, MessageType::kMetricsResult,
                wire::EncodeMetricsResult(msg));
      return true;
    }
    case MessageType::kDump: {
      if (options_.flight_recorder == nullptr) {
        reject(Status::FailedPrecondition("flight recorder not enabled"));
        return true;
      }
      if (const Status st =
              wire::PayloadReader(frame.payload.data(), frame.payload.size())
                  .ExpectEnd();
          !st.ok()) {
        reject(st);
        return true;
      }
      const obs::DiagnosticBundle bundle =
          options_.flight_recorder->BuildBundle();
      wire::DumpResultMsg msg;
      msg.files.reserve(bundle.files.size());
      for (const obs::DiagnosticFile& file : bundle.files) {
        msg.files.push_back({file.name, file.content});
      }
      PushReady(conn, MessageType::kDumpResult, wire::EncodeDumpResult(msg));
      return true;
    }
    case MessageType::kProfile: {
      if (options_.profiler == nullptr) {
        reject(Status::FailedPrecondition("profiler not enabled"));
        return true;
      }
      wire::ProfileMsg msg;
      if (const Status st = wire::DecodeProfile(frame.payload, &msg);
          !st.ok()) {
        reject(st);
        return true;
      }
      if (msg.seconds < 1 || msg.seconds > 60) {
        reject(Status::InvalidArgument(
            "profile seconds out of range [1, 60]: " +
            std::to_string(msg.seconds)));
        return true;
      }
      // Collect() sleeps for the whole sampling window — far too long for
      // the poll thread. Run it on a worker like kLoadModel; unlike admin
      // frames the connection stays live for pipelined queries (those
      // responses queue behind this one, which is the protocol's ordering
      // guarantee, but dispatch for other connections never stalls).
      Pending pending;
      pending.conn = conn;
      pending.is_frame_future = true;
      pending.frame_future = std::async(
          std::launch::async, [this, seconds = msg.seconds]() {
            auto report = options_.profiler->Collect(
                static_cast<double>(seconds));
            if (!report.ok()) {
              if (obs_wire_errors_ != nullptr) obs_wire_errors_->Increment();
              std::lock_guard<std::mutex> lock(mu_);
              ++stats_.wire_errors;
              return wire::EncodeFrame(wire::MessageType::kError,
                                       wire::EncodeError(report.status()));
            }
            wire::ProfileResultMsg result;
            result.samples = report.value().samples;
            result.drops = report.value().drops;
            result.folded = std::move(report.value().folded);
            result.json = std::move(report.value().chrome_json);
            return wire::EncodeFrame(wire::MessageType::kProfileResult,
                                     wire::EncodeProfileResult(result));
          });
      PushPending(std::move(pending));
      return true;
    }
    default: {
      // Response-typed frames from a client are a protocol violation.
      if (obs_wire_errors_ != nullptr) obs_wire_errors_->Increment();
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.wire_errors;
      PushReady(conn, MessageType::kError,
                wire::EncodeError(Status::InvalidArgument(
                    "unexpected message type " +
                    std::to_string(static_cast<int>(frame.type)))),
                /*close_after=*/true);
      return true;
    }
  }
}

void WireServer::PollLoop() {
  std::vector<pollfd> fds;
  std::vector<std::shared_ptr<Connection>> polled;
  while (running_) {
    fds.clear();
    polled.clear();
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    fds.push_back({listen_fd_, POLLIN, 0});
    for (const auto& conn : connections_) {
      short events = conn->closing ? 0 : POLLIN;
      {
        std::lock_guard<std::mutex> lock(conn->out_mu);
        if (!conn->outbuf.empty()) events |= POLLOUT;
      }
      fds.push_back({conn->fd, events, 0});
      polled.push_back(conn);
    }
    if (::poll(fds.data(), static_cast<nfds_t>(fds.size()), -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (!running_) break;

    if (fds[0].revents & POLLIN) {
      char drain[256];
      while (::read(wake_pipe_[0], drain, sizeof(drain)) > 0) {
      }
    }

    if (fds[1].revents & POLLIN) {
      for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;
        if (connections_.size() >= options_.max_connections) {
          TcpClose(fd);
          continue;
        }
        (void)TcpSetNonBlocking(fd, true);
        (void)TcpNoDelay(fd);
        auto conn = std::make_shared<Connection>();
        conn->fd = fd;
        connections_.push_back(std::move(conn));
        if (obs_connections_ != nullptr) obs_connections_->Increment();
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.connections_accepted;
      }
    }

    for (size_t i = 0; i < polled.size(); ++i) {
      const auto& conn = polled[i];
      const short revents = fds[i + 2].revents;
      bool drop = (revents & (POLLERR | POLLNVAL)) != 0;

      bool peer_closed = false;
      if (!drop && (revents & POLLIN) && !conn->closing) {
        // Drain the socket into the connection's input buffer.
        for (;;) {
          uint8_t chunk[kReadChunk];
          const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
          if (n > 0) {
            conn->inbuf.insert(conn->inbuf.end(), chunk, chunk + n);
            continue;
          }
          if (n == 0) peer_closed = true;
          if (n < 0 && (errno == EINTR)) continue;
          if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
            peer_closed = true;
          }
          break;
        }
      } else if (revents & POLLHUP) {
        // No readable data pending and the peer hung up.
        drop = true;
      }

      // Decode every complete buffered frame. This runs on every poll
      // iteration (not only after a read) so frames parked behind an
      // in-progress LoadModel resume decoding when the completion thread
      // clears admin_busy and wakes the poll.
      if (!drop && !conn->closing && !conn->inbuf.empty()) {
        size_t off = 0;
        while (!conn->closing) {
          {
            // An off-thread LoadModel is running: stop here so this
            // connection's later frames observe its effects.
            std::lock_guard<std::mutex> lock(conn->out_mu);
            if (conn->admin_busy) break;
          }
          wire::Frame frame;
          size_t consumed = 0;
          std::string error;
          const auto result =
              wire::DecodeFrame(conn->inbuf.data() + off,
                                conn->inbuf.size() - off, &frame, &consumed,
                                &error);
          if (result == wire::DecodeResult::kFrame) {
            off += consumed;
            if (obs_frames_ != nullptr) obs_frames_->Increment();
            {
              std::lock_guard<std::mutex> lock(mu_);
              ++stats_.frames;
            }
            if (!HandleFrame(conn, std::move(frame))) drop = true;
            continue;
          }
          if (result == wire::DecodeResult::kNeedMore) break;
          if (obs_wire_errors_ != nullptr) obs_wire_errors_->Increment();
          {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.wire_errors;
          }
          if (result == wire::DecodeResult::kMalformed) {
            // Framing is broken but the peer spoke our magic: report why,
            // flush, close (docs/wire-protocol.md §6).
            conn->closing = true;
            PushReady(conn, wire::MessageType::kError,
                      wire::EncodeError(Status::InvalidArgument(
                          "malformed frame: " + error)),
                      /*close_after=*/true);
          } else {  // kBadMagic: not our protocol; close without replying.
            drop = true;
          }
          break;
        }
        conn->inbuf.erase(conn->inbuf.begin(),
                          conn->inbuf.begin() + static_cast<long>(off));
      }
      if (peer_closed) drop = true;

      if (!drop && (revents & POLLOUT)) {
        std::lock_guard<std::mutex> lock(conn->out_mu);
        size_t sent = 0;
        while (sent < conn->outbuf.size()) {
          const ssize_t n =
              ::send(conn->fd, conn->outbuf.data() + sent,
                     conn->outbuf.size() - sent, MSG_NOSIGNAL);
          if (n > 0) {
            sent += static_cast<size_t>(n);
            continue;
          }
          if (n < 0 && errno == EINTR) continue;
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          drop = true;
          break;
        }
        conn->outbuf.erase(conn->outbuf.begin(),
                           conn->outbuf.begin() + static_cast<long>(sent));
        if (conn->outbuf.empty() && conn->close_after_flush) drop = true;
      }

      if (drop) {
        {
          std::lock_guard<std::mutex> lock(conn->out_mu);
          conn->dead = true;
        }
        TcpClose(conn->fd);
        conn->fd = -1;
      }
    }

    connections_.erase(
        std::remove_if(connections_.begin(), connections_.end(),
                       [](const std::shared_ptr<Connection>& c) {
                         return c->fd < 0;
                       }),
        connections_.end());
  }

  for (const auto& conn : connections_) {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    conn->dead = true;
    TcpClose(conn->fd);
    conn->fd = -1;
  }
  connections_.clear();
}

namespace {

template <typename T>
bool FutureReady(const std::future<T>& future) {
  return future.wait_for(std::chrono::seconds(0)) ==
         std::future_status::ready;
}

}  // namespace

bool WireServer::PendingIsReady(const Pending& pending) {
  if (pending.is_future) return FutureReady(pending.future);
  if (pending.is_frame_future) return FutureReady(pending.frame_future);
  if (pending.is_batch) {
    for (const auto& future : pending.batch_futures) {
      if (!FutureReady(future)) return false;
    }
  }
  return true;
}

void WireServer::AwaitPendingBriefly(Pending& pending) {
  constexpr auto kStall = std::chrono::milliseconds(1);
  if (pending.is_future && !FutureReady(pending.future)) {
    pending.future.wait_for(kStall);
    return;
  }
  if (pending.is_frame_future && !FutureReady(pending.frame_future)) {
    pending.frame_future.wait_for(kStall);
    return;
  }
  if (pending.is_batch) {
    for (auto& future : pending.batch_futures) {
      if (!FutureReady(future)) {
        future.wait_for(kStall);
        return;
      }
    }
  }
}

void WireServer::CompletionLoop() {
  std::unique_lock<std::mutex> lock(completion_mu_);
  for (;;) {
    if (completions_.empty()) {
      if (!running_) return;
      completion_cv_.wait(
          lock, [this] { return !completions_.empty() || !running_; });
      continue;
    }

    // Dispatch the oldest pending of any connection whose response is ready.
    // Only each connection's *first* pending is a candidate, so responses on
    // a connection stay in request order while a slow Detect on one
    // connection cannot head-of-line block everyone else's completed work.
    auto ready_it = completions_.end();
    std::vector<const Connection*> seen;
    for (auto it = completions_.begin(); it != completions_.end(); ++it) {
      const Connection* conn = it->conn.get();
      if (std::find(seen.begin(), seen.end(), conn) != seen.end()) continue;
      seen.push_back(conn);
      if (PendingIsReady(*it)) {
        ready_it = it;
        break;
      }
    }
    if (ready_it == completions_.end()) {
      // Every connection head is still computing. Engine futures have no
      // hook into completion_cv_, so wait on the oldest pending's first
      // unresolved future outside the lock: wait_for returns the instant it
      // resolves, and the bound re-scans for other connections' futures
      // that resolved meanwhile. push_back never invalidates deque element
      // references, and only this thread erases, so the reference stays
      // valid unlocked.
      Pending& stall = completions_.front();
      lock.unlock();
      AwaitPendingBriefly(stall);
      lock.lock();
      continue;
    }
    Pending pending = std::move(*ready_it);
    completions_.erase(ready_it);
    lock.unlock();

    std::vector<uint8_t> frame;
    if (pending.is_batch) {
      std::vector<wire::DetectResultMsg> results;
      results.reserve(pending.batch_futures.size());
      Status first_error;
      for (auto& future : pending.batch_futures) {
        DiscoveryResponse response = future.get();
        if (!response.status.ok()) {
          if (first_error.ok()) first_error = response.status;
          continue;
        }
        results.push_back(ToResultMsg(response));
      }
      // All-or-nothing: any failed sub-query fails the whole batch frame.
      frame = first_error.ok()
                  ? wire::EncodeFrame(wire::MessageType::kDetectBatchResult,
                                      wire::EncodeDetectBatchResult(results))
                  : wire::EncodeFrame(wire::MessageType::kError,
                                      wire::EncodeError(first_error));
    } else if (pending.is_future) {
      const DiscoveryResponse response = pending.future.get();
      if (pending.trace != nullptr) pending.trace->StartSpan("encode");
      frame = EncodeResponse(response);
      if (pending.trace != nullptr) {
        pending.trace->Finish();
        options_.obs->traces().Add(pending.trace);
      }
    } else if (pending.is_frame_future) {
      frame = pending.frame_future.get();
    } else {
      frame = std::move(pending.ready);
    }

    {
      std::lock_guard<std::mutex> out_lock(pending.conn->out_mu);
      if (!pending.conn->dead) {
        pending.conn->outbuf.insert(pending.conn->outbuf.end(), frame.begin(),
                                    frame.end());
        if (pending.close_after) pending.conn->close_after_flush = true;
      }
      // The off-thread load finished (its registry effects are visible):
      // let the poll thread resume decoding this connection's parked
      // frames. WakePoll below re-runs its decode pass.
      if (pending.clears_admin_busy) pending.conn->admin_busy = false;
    }
    WakePoll();
    lock.lock();
  }
}

}  // namespace serve
}  // namespace causalformer

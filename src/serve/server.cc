#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <mutex>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/process_metrics.h"
#include "obs/profiler.h"
#include "serve/stream_backend.h"
#include "tensor/allocator.h"
#include "util/logging.h"
#include "util/socket.h"

namespace causalformer {
namespace serve {

namespace {

constexpr size_t kReadChunk = 64 * 1024;
// Accepted-connection bound: each accept beyond it is closed at once.
constexpr size_t kMaxConnections = 256;

// The Waker of the server whose poll thread is the calling thread (null on
// every other thread). A fill made on a poll thread needs no wake byte: that
// thread drains every connection after dispatching.
thread_local const void* t_poll_waker = nullptr;

void AppendResult(wire::PayloadWriter* w, const DiscoveryResponse& response) {
  wire::AppendDetectResult(w, response.cache_hit, response.deduped,
                           response.batch_size, response.latency_seconds,
                           *response.result);
}

// A frame buffer holding the header's reserved bytes, with capacity for
// exactly `payload_bytes` more: the payload is written after the header and
// sealed in place, with no regrowth and no copy.
std::vector<uint8_t> StartFrame(size_t payload_bytes) {
  std::vector<uint8_t> frame;
  frame.reserve(wire::kHeaderSize + payload_bytes);
  frame.resize(wire::kHeaderSize);
  return frame;
}

// One Detect response frame, encoded straight from the shared result.
std::vector<uint8_t> EncodeResponse(const DiscoveryResponse& response) {
  if (!response.status.ok()) {
    return wire::EncodeFrame(wire::MessageType::kError,
                             wire::EncodeError(response.status));
  }
  std::vector<uint8_t> frame =
      StartFrame(wire::DetectResultSize(*response.result));
  wire::PayloadWriter w(&frame);
  AppendResult(&w, response);
  wire::SealFrame(wire::MessageType::kDetectResult, &frame);
  return frame;
}

// A DetectBatch response: all-or-nothing, so the first failed sub-query (by
// sub-request index) fails the whole frame.
std::vector<uint8_t> EncodeBatchResponse(
    const std::vector<DiscoveryResponse>& responses) {
  for (const DiscoveryResponse& response : responses) {
    if (!response.status.ok()) {
      return wire::EncodeFrame(wire::MessageType::kError,
                               wire::EncodeError(response.status));
    }
  }
  size_t payload_bytes = 4;
  for (const DiscoveryResponse& response : responses) {
    payload_bytes += wire::DetectResultSize(*response.result);
  }
  std::vector<uint8_t> frame = StartFrame(payload_bytes);
  wire::PayloadWriter w(&frame);
  w.U32(static_cast<uint32_t>(responses.size()));
  for (const DiscoveryResponse& response : responses) AppendResult(&w, response);
  // Many results (dedup followers of one query resolve together) can exceed
  // kMaxPayload; SealFrame answers that with an OUT_OF_RANGE Error instead.
  wire::SealFrame(wire::MessageType::kDetectBatchResult, &frame);
  return frame;
}

}  // namespace

/// The self-pipe that wakes the poll thread, owned jointly by the server and
/// its connections: a completion that runs after Stop() writes to a pipe
/// that is still open, never to a closed or reused fd.
struct WireServer::Waker {
  int fds[2] = {-1, -1};  ///< non-blocking; [0] is polled, [1] is written
  /// A wake byte is in the pipe (or about to be) and the poll thread has not
  /// drained it yet: later completions skip the write.
  std::atomic<bool> pending{false};

  ~Waker() {
    TcpClose(fds[0]);
    TcpClose(fds[1]);
  }

  /// Off-thread completion: at most one byte per drain.
  void Wake() {
    if (t_poll_waker == this || pending.exchange(true)) return;
    const char byte = 1;
    (void)!::write(fds[1], &byte, 1);
  }

  /// Poll thread, before it scans the connections: empty the pipe, then
  /// re-arm. Re-arming first would let the read swallow the byte of a Wake()
  /// that set `pending` after the re-arm, leaving it set over an empty pipe.
  void Drain() {
    char drain[256];
    while (::read(fds[0], drain, sizeof(drain)) > 0) {
    }
    pending.store(false);
  }
};

/// One accepted socket. The poll thread alone owns the socket and buffers;
/// the response slots are shared, under `mu`, with every thread that
/// completes a request on this connection.
struct WireServer::Connection {
  /// One reserved response, in request order.
  struct Slot {
    bool filled = false;
    bool close_after = false;  ///< close once this frame is flushed
    std::vector<uint8_t> frame;
    /// The request's finished trace (Detect frames under observability):
    /// the poll thread lands it in the trace ring before the frame can be
    /// sent. Null otherwise.
    std::shared_ptr<obs::Trace> trace;
  };

  int fd = -1;
  std::vector<uint8_t> inbuf;
  std::vector<uint8_t> outbuf;
  /// Set after a malformed frame: stop reading, flush the error, close.
  bool closing = false;
  bool close_after_flush = false;
  std::shared_ptr<Waker> waker;

  std::mutex mu;  // guards everything below
  std::deque<Slot> slots;
  uint64_t first_slot = 0;  ///< sequence number of slots.front()
  bool dead = false;  ///< closed: later fills are dropped
  /// A LoadModel is executing on a worker thread. The poll thread holds off
  /// decoding this connection's *next* frames (they stay buffered in inbuf)
  /// until the load completes, so pipelined frames observe the load's
  /// effects — per-connection effect order matches the per-connection
  /// response order the protocol promises. Other connections dispatch
  /// freely, which is the whole point of the off-thread load. Also bounds
  /// load workers to one per connection.
  bool admin_busy = false;

  /// Reserves the next response slot (poll thread, at dispatch); returns its
  /// sequence number.
  uint64_t Reserve() {
    std::lock_guard<std::mutex> lock(mu);
    slots.emplace_back();
    return first_slot + slots.size() - 1;
  }

  /// Stores the response for slot `seq` (any thread) and wakes the poll
  /// thread when it has something to do: the oldest slot is now filled, or
  /// `resume` (a LoadModel finished, so parked frames may decode).
  void Fill(uint64_t seq, Slot slot, bool resume = false) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (dead) return;
      slot.filled = true;
      slots[seq - first_slot] = std::move(slot);
      if (resume) admin_busy = false;
      if (!resume && seq != first_slot) return;
    }
    waker->Wake();
  }

  /// Closes the socket and drops every pending response (poll thread).
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu);
      dead = true;
      slots.clear();
    }
    TcpClose(fd);
    fd = -1;
  }
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
    waker_.reset();
    port_ = 0;
    return status;
  };
  // The accept queue holds as many pending connects as the server accepts
  // (the kernel caps it at net.core.somaxconn). A shorter queue overflows on
  // a burst of connects before the poll thread drains it, and each dropped
  // SYN stalls its connect() for a one-second retransmit.
  auto listen = TcpListen(options_.port, static_cast<int>(kMaxConnections));
  if (!listen.ok()) return listen.status();
  listen_fd_ = *listen;
  const auto port = TcpLocalPort(listen_fd_);
  if (!port.ok()) return abandon(port.status());
  port_ = *port;
  waker_ = std::make_shared<Waker>();
  if (::pipe(waker_->fds) != 0) {
    return abandon(
        Status::Internal(std::string("pipe: ") + std::strerror(errno)));
  }
  if (Status st = TcpSetNonBlocking(listen_fd_, true); !st.ok()) {
    return abandon(std::move(st));
  }
  // Both pipe ends are non-blocking: a full wake pipe must never block a
  // completing thread (a dropped wake byte is fine because the poll thread
  // drains the pipe before sleeping).
  for (const int fd : waker_->fds) {
    if (Status st = TcpSetNonBlocking(fd, true); !st.ok()) {
      return abandon(std::move(st));
    }
  }
  running_ = true;
  started_ = true;
  poll_thread_ = std::thread([this] {
    obs::RegisterProfilingThread("cf-poll");
    PollLoop();
  });
  return Status::Ok();
}

void WireServer::Stop() {
  if (!started_) return;
  running_ = false;
  const char byte = 1;
  (void)!::write(waker_->fds[1], &byte, 1);
  if (poll_thread_.joinable()) poll_thread_.join();
  for (Worker& worker : workers_) worker.thread.join();
  workers_.clear();
  TcpClose(listen_fd_);
  listen_fd_ = -1;
  waker_.reset();
  started_ = false;
}

WireServer::Stats WireServer::stats() const {
  Stats s;
  s.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  s.frames = frames_.load(std::memory_order_relaxed);
  s.wire_errors = wire_errors_.load(std::memory_order_relaxed);
  return s;
}

void WireServer::CountWireError() {
  if (obs_wire_errors_ != nullptr) obs_wire_errors_->Increment();
  wire_errors_.fetch_add(1, std::memory_order_relaxed);
}

void WireServer::PushReady(const std::shared_ptr<Connection>& conn,
                           wire::MessageType type,
                           std::vector<uint8_t> payload, bool close_after) {
  Connection::Slot slot;
  slot.frame = wire::EncodeFrame(type, std::move(payload));
  slot.close_after = close_after;
  conn->Fill(conn->Reserve(), std::move(slot));
}

void WireServer::SpawnWorker(std::function<void()> task) {
  workers_.remove_if([](Worker& worker) {
    if (!worker.done) return false;
    worker.thread.join();
    return true;
  });
  Worker& worker = workers_.emplace_back();
  worker.thread = std::thread([&worker, task = std::move(task)] {
    task();
    worker.done = true;
  });
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
    CountWireError();
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
      // Inline for a cache hit or rejection, on an executor otherwise: the
      // callback encodes into this frame's slot either way.
      engine_->Submit(
          std::move(request),
          [conn, seq = conn->Reserve(),
           trace = std::move(trace)](DiscoveryResponse response) {
            Connection::Slot slot;
            if (trace != nullptr) trace->StartSpan("encode");
            slot.frame = EncodeResponse(response);
            if (trace != nullptr) {
              trace->Finish();
              slot.trace = trace;
            }
            conn->Fill(seq, std::move(slot));
          });
      return true;
    }
    case MessageType::kDetectBatch: {
      wire::DetectBatchMsg msg;
      if (const Status st = wire::DecodeDetectBatch(frame.payload, &msg);
          !st.ok()) {
        reject(st);
        return true;
      }
      // One slot for the whole frame, filled by whichever sub-request
      // resolves last.
      struct BatchReply {
        std::vector<DiscoveryResponse> responses;
        std::atomic<size_t> remaining{0};
      };
      auto reply = std::make_shared<BatchReply>();
      reply->responses.resize(msg.windows.size());
      reply->remaining = msg.windows.size();
      const uint64_t seq = conn->Reserve();
      for (size_t i = 0; i < msg.windows.size(); ++i) {
        DiscoveryRequest request;
        request.model = msg.model;
        request.windows = std::move(msg.windows[i]);
        request.options = msg.options;
        engine_->Submit(std::move(request), [conn, seq, reply,
                                             i](DiscoveryResponse response) {
          reply->responses[i] = std::move(response);
          if (reply->remaining.fetch_sub(1) != 1) return;
          Connection::Slot slot;
          slot.frame = EncodeBatchResponse(reply->responses);
          conn->Fill(seq, std::move(slot));
        });
      }
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
      msg.dedup_hits = cache.followers;
      msg.dedup_in_flight = cache.running;
      const Stats server = stats();
      msg.server_connections = server.connections_accepted;
      msg.server_frames = server.frames;
      msg.server_wire_errors = server.wire_errors;
      for (const auto& info : engine_->registry().List()) {
        wire::StatsResultMsg::Model model;
        model.name = info.name;
        model.num_parameters = info.num_parameters;
        model.generation = info.generation;
        model.num_series = info.options.num_series;
        model.window = info.options.window;
        msg.models.push_back(std::move(model));
      }
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
      // connection's dispatch. Run it on a worker; the slot keeps this
      // connection's responses in request order regardless of which thread
      // produced the bytes, and admin_busy parks this connection's later
      // frames until the load's effects are visible.
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        conn->admin_busy = true;
      }
      SpawnWorker([this, conn, seq = conn->Reserve(), msg = std::move(msg)] {
        Connection::Slot slot;
        const Status st = engine_->registry().Load(
            msg.name, msg.checkpoint_path, msg.options);
        if (!st.ok()) {
          CountWireError();
          slot.frame = wire::EncodeFrame(wire::MessageType::kError,
                                         wire::EncodeError(st));
        } else {
          wire::LoadModelOkMsg ok;
          for (const auto& info : engine_->registry().List()) {
            if (info.name == msg.name) {
              ok.num_parameters = info.num_parameters;
              ok.generation = info.generation;
            }
          }
          slot.frame = wire::EncodeFrame(wire::MessageType::kLoadModelOk,
                                         wire::EncodeLoadModelOk(ok));
        }
        // The load's registry effects are visible: let the poll thread
        // resume decoding this connection's parked frames.
        conn->Fill(seq, std::move(slot), /*resume=*/true);
      });
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
      // Appending only *submits* detections (Submit never blocks on model
      // work), so this is safe on the poll thread.
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
      SpawnWorker([this, conn, seq = conn->Reserve(), seconds = msg.seconds] {
        Connection::Slot slot;
        auto report = options_.profiler->Collect(static_cast<double>(seconds));
        if (!report.ok()) {
          CountWireError();
          slot.frame = wire::EncodeFrame(wire::MessageType::kError,
                                         wire::EncodeError(report.status()));
        } else {
          wire::ProfileResultMsg result;
          result.samples = report.value().samples;
          result.drops = report.value().drops;
          result.folded = std::move(report.value().folded);
          result.json = std::move(report.value().chrome_json);
          slot.frame = wire::EncodeFrame(wire::MessageType::kProfileResult,
                                         wire::EncodeProfileResult(result));
        }
        conn->Fill(seq, std::move(slot));
      });
      return true;
    }
    default: {
      // Response-typed frames from a client are a protocol violation.
      CountWireError();
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
  t_poll_waker = waker_.get();
  // Decoded request tensors come from this thread's arena, so a repeated
  // geometry reuses a pooled block. A window that reaches an executor is
  // freed there and returns to this arena.
  ScopedAllocator arena_guard(DetectArena());
  std::vector<pollfd> fds;
  std::vector<std::shared_ptr<Connection>> polled;
  std::vector<std::shared_ptr<obs::Trace>> finished;
  while (running_) {
    fds.clear();
    polled.clear();
    fds.push_back({waker_->fds[0], POLLIN, 0});
    fds.push_back({listen_fd_, POLLIN, 0});
    for (const auto& conn : connections_) {
      short events = conn->closing ? 0 : POLLIN;
      if (!conn->outbuf.empty()) events |= POLLOUT;
      fds.push_back({conn->fd, events, 0});
      polled.push_back(conn);
    }
    if (::poll(fds.data(), static_cast<nfds_t>(fds.size()), -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (!running_) break;

    if (fds[0].revents & POLLIN) waker_->Drain();

    if (fds[1].revents & POLLIN) {
      for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;
        if (connections_.size() >= kMaxConnections) {
          TcpClose(fd);
          continue;
        }
        (void)TcpSetNonBlocking(fd, true);
        (void)TcpNoDelay(fd);
        auto conn = std::make_shared<Connection>();
        conn->fd = fd;
        conn->waker = waker_;
        connections_.push_back(std::move(conn));
        if (obs_connections_ != nullptr) obs_connections_->Increment();
        connections_accepted_.fetch_add(1, std::memory_order_relaxed);
      }
    }

    // Pass 1: read and dispatch. Requests answered right here (control
    // frames, rejections, cache hits) fill their slots inline, on any of
    // this server's connections; pass 2 drains them without a wake byte.
    for (size_t i = 0; i < polled.size(); ++i) {
      Connection& conn = *polled[i];
      const short revents = fds[i + 2].revents;
      bool drop = (revents & (POLLERR | POLLNVAL)) != 0;

      bool peer_closed = false;
      if (!drop && (revents & POLLIN) && !conn.closing) {
        // Drain the socket into the connection's input buffer. A short read
        // emptied it: stop there rather than pay a recv that returns EAGAIN.
        // poll() is level-triggered, so later bytes and EOF still wake us.
        for (;;) {
          uint8_t chunk[kReadChunk];
          const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
          if (n > 0) {
            conn.inbuf.insert(conn.inbuf.end(), chunk, chunk + n);
            if (static_cast<size_t>(n) < sizeof(chunk)) break;
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
      // in-progress LoadModel resume decoding when its worker clears
      // admin_busy and wakes the poll.
      if (!drop && !conn.closing && !conn.inbuf.empty()) {
        size_t off = 0;
        while (!conn.closing) {
          {
            // An off-thread LoadModel is running: stop here so this
            // connection's later frames observe its effects.
            std::lock_guard<std::mutex> lock(conn.mu);
            if (conn.admin_busy) break;
          }
          wire::Frame frame;
          size_t consumed = 0;
          std::string error;
          const auto result =
              wire::DecodeFrame(conn.inbuf.data() + off,
                                conn.inbuf.size() - off, &frame, &consumed,
                                &error);
          if (result == wire::DecodeResult::kFrame) {
            off += consumed;
            if (obs_frames_ != nullptr) obs_frames_->Increment();
            frames_.fetch_add(1, std::memory_order_relaxed);
            if (!HandleFrame(polled[i], std::move(frame))) drop = true;
            continue;
          }
          if (result == wire::DecodeResult::kNeedMore) break;
          CountWireError();
          if (result == wire::DecodeResult::kMalformed) {
            // Framing is broken but the peer spoke our magic: report why,
            // flush, close (docs/wire-protocol.md §6).
            conn.closing = true;
            PushReady(polled[i], wire::MessageType::kError,
                      wire::EncodeError(Status::InvalidArgument(
                          "malformed frame: " + error)),
                      /*close_after=*/true);
          } else {  // kBadMagic: not our protocol; close without replying.
            drop = true;
          }
          break;
        }
        conn.inbuf.erase(conn.inbuf.begin(),
                         conn.inbuf.begin() + static_cast<long>(off));
      }
      if (drop || peer_closed) conn.Close();
    }

    // Pass 2: move each connection's finished responses, in request order,
    // to its output buffer, and write only where poll() reported POLLOUT.
    for (size_t i = 0; i < polled.size(); ++i) {
      Connection& conn = *polled[i];
      if (conn.fd < 0) continue;
      {
        std::lock_guard<std::mutex> lock(conn.mu);
        while (!conn.slots.empty() && conn.slots.front().filled) {
          Connection::Slot& slot = conn.slots.front();
          conn.outbuf.insert(conn.outbuf.end(), slot.frame.begin(),
                             slot.frame.end());
          if (slot.close_after) conn.close_after_flush = true;
          if (slot.trace != nullptr) finished.push_back(std::move(slot.trace));
          conn.slots.pop_front();
          ++conn.first_slot;
        }
      }
      // A finished trace lands in the ring before its frame can be sent.
      for (auto& trace : finished) options_.obs->traces().Add(std::move(trace));
      finished.clear();

      bool drop = false;
      if (fds[i + 2].revents & POLLOUT) {
        size_t sent = 0;
        while (sent < conn.outbuf.size()) {
          const ssize_t n =
              ::send(conn.fd, conn.outbuf.data() + sent,
                     conn.outbuf.size() - sent, MSG_NOSIGNAL);
          if (n > 0) {
            sent += static_cast<size_t>(n);
            continue;
          }
          if (n < 0 && errno == EINTR) continue;
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          drop = true;
          break;
        }
        conn.outbuf.erase(conn.outbuf.begin(),
                          conn.outbuf.begin() + static_cast<long>(sent));
        if (conn.outbuf.empty() && conn.close_after_flush) drop = true;
      }
      if (drop) conn.Close();
    }

    connections_.erase(
        std::remove_if(connections_.begin(), connections_.end(),
                       [](const std::shared_ptr<Connection>& c) {
                         return c->fd < 0;
                       }),
        connections_.end());
  }

  for (const auto& conn : connections_) conn->Close();
  connections_.clear();
  t_poll_waker = nullptr;
}

}  // namespace serve
}  // namespace causalformer

#ifndef CAUSALFORMER_SERVE_SERVER_H_
#define CAUSALFORMER_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <thread>
#include <vector>

#include "obs/observability.h"
#include "serve/inference_engine.h"
#include "serve/wire.h"
#include "util/status.h"

/// \file
/// Poll-based TCP front-end of the inference engine.
///
/// The server speaks the length-prefixed wire protocol (serve/wire.h,
/// docs/wire-protocol.md) and feeds every decoded Detect request straight
/// into InferenceEngine::Submit, so queries arriving on unrelated
/// connections coalesce into one micro-batch exactly like in-process
/// callers. One thread per server, the poll thread, owns all socket I/O:
/// accept, non-blocking reads, frame decoding, request dispatch, and
/// non-blocking writes, made only when poll() reports POLLOUT.
///
/// Responses on a connection are sent in request order (the protocol allows
/// pipelining); ordering across connections is unspecified. Dispatch
/// reserves a response slot per frame, control frames included, in the
/// connection's request order. Whichever thread finishes a request encodes
/// its frame into that slot: the poll thread for control frames, rejections
/// and cache hits, an engine executor for computed results and dedup
/// followers, a transient worker for LoadModel and Profile. The poll thread
/// moves each connection's filled slot prefix to its output buffer, so no
/// response overtakes an earlier one on its connection. An off-thread fill
/// wakes the poll thread through a self-pipe, with at most one wake byte per
/// poll-loop drain. LoadModel's checkpoint deserialisation and Profile's
/// sampling window run on their worker — never the poll thread — so they
/// cannot stall dispatch for other connections.

namespace causalformer {

namespace obs {
class FlightRecorder;
class ProcessMetrics;
class Profiler;
}  // namespace obs

namespace serve {

class StreamBackend;

/// WireServer construction knobs.
struct WireServerOptions {
  /// TCP port to listen on; 0 binds an ephemeral port (see port()).
  uint16_t port = 0;
  /// Permit LoadModel/UnloadModel frames. Off, they answer
  /// kFailedPrecondition — queries cannot mutate the registry.
  bool allow_admin = true;
  /// Handler for the v2 streaming frames (stream/window_scheduler.h is the
  /// production implementation; must outlive the server). Null answers every
  /// streaming frame kFailedPrecondition — streaming is disabled.
  StreamBackend* stream_backend = nullptr;
  /// Observability bundle (not owned; must outlive the server). When set,
  /// every Detect frame gets a per-request trace (decode → enqueue →
  /// execute → encode) landing in the bundle's ring, server counters are
  /// mirrored as wire_* metrics, and kMetrics frames are answered from the
  /// bundle's registry. Null answers kMetrics kFailedPrecondition and makes
  /// every instrumentation site a pointer check.
  obs::Observability* obs = nullptr;
  /// Flight recorder answering v5 kDump frames with a point-in-time
  /// diagnostic bundle (not owned; must outlive the server). Null answers
  /// kDump kFailedPrecondition — remote diagnostics are disabled.
  obs::FlightRecorder* flight_recorder = nullptr;
  /// Process-level resource gauges (not owned; must outlive the server).
  /// When set, every kMetrics scrape refreshes the cf_process_* gauges
  /// first, so clients always read current RSS/CPU/fd/uptime values
  /// without a background poller. Null leaves the gauges wherever their
  /// owner last set them.
  obs::ProcessMetrics* process_metrics = nullptr;
  /// Running sampling profiler answering v7 kProfile frames (not owned;
  /// must outlive the server). A kProfile request collects a timed window
  /// from it on a transient worker thread — never the poll thread — so the
  /// multi-second sleep cannot stall dispatch. Null answers kProfile
  /// kFailedPrecondition — remote profiling is disabled.
  obs::Profiler* profiler = nullptr;
};

/// A TCP server bridging wire-protocol clients onto one InferenceEngine.
///
/// Lifecycle: construct, Start(), serve until Stop() (or destruction). The
/// engine — and through it the registry — must outlive the server.
class WireServer {
 public:
  /// Point-in-time server counters (also exported over the wire via Stats).
  struct Stats {
    uint64_t connections_accepted = 0;  ///< lifetime accepted connections
    uint64_t frames = 0;                ///< request frames decoded
    uint64_t wire_errors = 0;  ///< malformed frames / protocol violations
  };

  /// Binds the server to `engine`; no sockets are opened until Start().
  WireServer(InferenceEngine* engine, const WireServerOptions& options = {});
  /// Stops the server (idempotent with Stop()).
  ~WireServer();

  WireServer(const WireServer&) = delete;             ///< not copyable
  WireServer& operator=(const WireServer&) = delete;  ///< not copyable

  /// Opens the listening socket and spawns the poll thread.
  /// Fails if the port is taken or Start() was already called.
  Status Start();

  /// Closes every connection, joins the poll thread and any LoadModel or
  /// Profile worker. Does not wait for engine work: queued requests still
  /// complete inside the engine, and their callbacks find the connection
  /// closed and drop the response. Idempotent.
  void Stop();

  /// The bound TCP port (resolves ephemeral port 0 binds). 0 before Start().
  uint16_t port() const { return port_; }

  /// Snapshot of the server counters.
  Stats stats() const;

 private:
  struct Connection;
  struct Waker;
  /// A transient LoadModel/Profile thread.
  struct Worker {
    std::thread thread;
    std::atomic<bool> done{false};  ///< the task returned; join is quick
  };

  void PollLoop();
  /// Dispatches one decoded frame; returns false when the connection must
  /// close without a response (unsalvageable framing).
  bool HandleFrame(const std::shared_ptr<Connection>& conn,
                   wire::Frame frame);
  /// Reserves the connection's next response slot and fills it at once (a
  /// response the poll thread can answer itself).
  void PushReady(const std::shared_ptr<Connection>& conn,
                 wire::MessageType type, std::vector<uint8_t> payload,
                 bool close_after = false);
  /// Runs `task` on a new worker thread, first joining finished ones.
  void SpawnWorker(std::function<void()> task);
  /// Counts one malformed frame or failed request.
  void CountWireError();

  InferenceEngine* engine_;
  WireServerOptions options_;
  /// Mirrored wire counters (stable pointers into the bundle's registry,
  /// resolved at construction; all null when observability is off).
  obs::Counter* obs_frames_ = nullptr;
  obs::Counter* obs_wire_errors_ = nullptr;
  obs::Counter* obs_connections_ = nullptr;
  uint16_t port_ = 0;

  int listen_fd_ = -1;
  /// The self-pipe; shared with every connection, so a completion that
  /// outlives Stop() still writes to an open pipe, never a reused fd.
  std::shared_ptr<Waker> waker_;
  std::atomic<bool> running_{false};
  bool started_ = false;

  std::vector<std::shared_ptr<Connection>> connections_;  // poll thread only
  std::list<Worker> workers_;  // poll thread only, then Stop() after its join

  // Stats counters: relaxed atomics, so the poll thread's per-frame count
  // takes no lock.
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> frames_{0};
  std::atomic<uint64_t> wire_errors_{0};
  std::thread poll_thread_;  // after everything the poll thread touches
};

}  // namespace serve
}  // namespace causalformer

#endif  // CAUSALFORMER_SERVE_SERVER_H_

#ifndef CAUSALFORMER_SERVE_SERVER_H_
#define CAUSALFORMER_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
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
/// into InferenceEngine::SubmitAsync, so queries arriving on unrelated
/// connections coalesce into one micro-batch exactly like in-process
/// callers. Two threads per server:
///
///  * the poll thread owns all socket I/O: accept, non-blocking reads,
///    frame decoding, request dispatch, and non-blocking writes of queued
///    response bytes;
///  * the completion thread awaits engine futures in submission order,
///    encodes responses, appends them to the owning connection's output
///    buffer, and wakes the poll thread through a self-pipe.
///
/// Responses on a connection are sent in request order (the protocol allows
/// pipelining); ordering across connections is unspecified. Control frames
/// (Ping/Stats/Load/Unload and the streaming frames) are answered through
/// the same completion queue so they cannot overtake an earlier Detect on
/// the same connection. LoadModel's checkpoint deserialisation runs on a
/// transient worker thread — never the poll thread — so a model load cannot
/// stall dispatch for other connections.

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
  /// listen(2) backlog.
  int backlog = 64;
  /// Accepted-connection bound; excess connections are closed immediately.
  size_t max_connections = 256;
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

  /// Opens the listening socket and spawns the poll + completion threads.
  /// Fails if the port is taken or Start() was already called.
  Status Start();

  /// Closes every connection and joins both threads. Queued requests still
  /// complete inside the engine; their responses are dropped. Idempotent.
  void Stop();

  /// The bound TCP port (resolves ephemeral port 0 binds). 0 before Start().
  uint16_t port() const { return port_; }

  /// Snapshot of the server counters.
  Stats stats() const;

 private:
  struct Connection;
  struct Pending;

  void PollLoop();
  void CompletionLoop();
  /// True when encoding `pending` cannot block (every future resolved).
  static bool PendingIsReady(const Pending& pending);
  /// Blocks briefly (≤ 1 ms) on the first unresolved future of `pending`,
  /// returning immediately when it is ready. Called unlocked by the
  /// completion thread as its bounded stall.
  static void AwaitPendingBriefly(Pending& pending);
  /// Dispatches one decoded frame; returns false when the connection must
  /// close without a response (unsalvageable framing).
  bool HandleFrame(const std::shared_ptr<Connection>& conn,
                   wire::Frame frame);
  void PushPending(Pending pending);
  void PushReady(const std::shared_ptr<Connection>& conn,
                 wire::MessageType type, std::vector<uint8_t> payload,
                 bool close_after = false);
  void WakePoll();
  /// Encodes one resolved engine response (result or error frame).
  static std::vector<uint8_t> EncodeResponse(const DiscoveryResponse& response);

  InferenceEngine* engine_;
  WireServerOptions options_;
  /// Mirrored wire counters (stable pointers into the bundle's registry,
  /// resolved at construction; all null when observability is off).
  obs::Counter* obs_frames_ = nullptr;
  obs::Counter* obs_wire_errors_ = nullptr;
  obs::Counter* obs_connections_ = nullptr;
  uint16_t port_ = 0;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::thread poll_thread_;
  std::thread completion_thread_;
  std::atomic<bool> running_{false};
  bool started_ = false;

  mutable std::mutex mu_;  // guards connections_ + stats_
  std::vector<std::shared_ptr<Connection>> connections_;
  Stats stats_;

  std::mutex completion_mu_;
  std::condition_variable completion_cv_;
  std::deque<Pending> completions_;
};

}  // namespace serve
}  // namespace causalformer

#endif  // CAUSALFORMER_SERVE_SERVER_H_

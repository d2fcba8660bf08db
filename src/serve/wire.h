#ifndef CAUSALFORMER_SERVE_WIRE_H_
#define CAUSALFORMER_SERVE_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/causality_transformer.h"
#include "core/detector.h"
#include "serve/types.h"
#include "tensor/tensor.h"
#include "util/status.h"

/// \file
/// The length-prefixed binary wire protocol of the causal-discovery service.
///
/// Every message travels in one frame: a fixed 16-byte header (magic,
/// version, message type, payload length, CRC-32 of the payload) followed by
/// the payload. All integers and floats are little-endian regardless of host
/// byte order. The normative byte-level specification — offset tables for
/// every message type, version-negotiation rules, error codes, and a worked
/// hex dump — lives in docs/wire-protocol.md and is kept in sync with the
/// constants here by tests/wire_test.cc (which encodes the documented
/// example frames and compares bytes).
///
/// Encoding never fails; decoding is total: DecodeFrame classifies any byte
/// prefix as a complete frame, "need more bytes", or malformed (bad magic /
/// oversized length / CRC mismatch), and the typed payload decoders return
/// Status instead of trusting the peer.

namespace causalformer {
namespace serve {

/// Frame format and typed messages of the serve wire protocol.
namespace wire {

/// First frame bytes, "CFWP" — rejects non-protocol peers immediately.
inline constexpr uint8_t kMagic[4] = {0x43, 0x46, 0x57, 0x50};
/// Protocol version spoken by this build (header byte 4). Version 2 added
/// the streaming frames (StreamOpen/Append/Reports) and the
/// cache_expirations field of StatsResult; version 3 added the in-flight
/// dedup and adaptive-batcher gauges to StatsResult, `deduped_windows` to
/// AppendSamplesOk and the `deduped` report flag; version 4 added the
/// metrics frames (kMetrics/kMetricsResult: Prometheus-style text
/// exposition plus per-histogram quantile summaries); version 5 added the
/// diagnostics frames (kDump/kDumpResult: the flight recorder's bundle —
/// log tail, metrics snapshot, chrome-trace JSON, engine state — fetched
/// remotely); version 6 added StatsResult's `shard_count` field, now
/// reserved (always 0; decoders reject any other value); version 7 added
/// the profiling frames (kProfile/kProfileResult: a timed sampling-profiler
/// window returning folded stacks and chrome-trace JSON) — see
/// docs/wire-protocol.md §3 for the version history and negotiation rules.
inline constexpr uint8_t kVersion = 7;
/// Fixed frame header size in bytes (payload follows immediately).
inline constexpr size_t kHeaderSize = 16;
/// Upper bound on the payload length field; larger frames are malformed
/// (memory-exhaustion guard against hostile or corrupted peers).
inline constexpr uint32_t kMaxPayload = 64u << 20;

/// Frame type tag (header byte 5). Odd values are requests, the following
/// even value is the success response; kError answers any request. Value 14
/// is reserved (it would pair as "kError's response"); the streaming frames
/// added in protocol version 2 resume the odd/even pairing at 15.
enum class MessageType : uint8_t {
  kPing = 1,               ///< liveness probe; payload: u64 token
  kPong = 2,               ///< Ping response echoing the token
  kLoadModel = 3,          ///< load a checkpoint into the registry
  kLoadModelOk = 4,        ///< LoadModel response (params, generation)
  kUnloadModel = 5,        ///< drop a model from the registry
  kUnloadModelOk = 6,      ///< UnloadModel response (empty payload)
  kDetect = 7,             ///< one causal-discovery query
  kDetectResult = 8,       ///< Detect response (scores, delays, graph)
  kDetectBatch = 9,        ///< several window batches in one request
  kDetectBatchResult = 10, ///< DetectBatch response (one result per batch)
  kStats = 11,             ///< engine/server counters request (empty payload)
  kStatsResult = 12,       ///< Stats response
  kError = 13,             ///< error response: u32 code + string message
  // 14 reserved.
  kStreamOpen = 15,          ///< create a named server-side stream (v2)
  kStreamOpenOk = 16,        ///< StreamOpen response (resolved config)
  kStreamClose = 17,         ///< drop a stream; payload: str name (v2)
  kStreamCloseOk = 18,       ///< StreamClose response (empty payload)
  kAppendSamples = 19,       ///< append samples to a stream (v2)
  kAppendSamplesOk = 20,     ///< AppendSamples response (stream counters)
  kStreamReports = 21,       ///< drain a stream's window reports (v2)
  kStreamReportsResult = 22, ///< StreamReports response
  kMetrics = 23,             ///< observability scrape request (empty, v4)
  kMetricsResult = 24,       ///< Metrics response (exposition + summaries)
  kDump = 25,                ///< diagnostic bundle request (empty, v5)
  kDumpResult = 26,          ///< Dump response (flight-recorder bundle)
  kProfile = 27,             ///< timed sampling-profile request (v7)
  kProfileResult = 28,       ///< Profile response (folded stacks + JSON)
};

/// True for type values defined by this protocol version (used by frame
/// decoding on both ends; value 14 and values past kProfileResult are
/// unknown).
bool IsKnownMessageType(uint8_t type);

/// One decoded frame: header fields plus raw payload bytes.
struct Frame {
  uint8_t version = 0;     ///< header version byte (callers enforce kVersion)
  MessageType type = MessageType::kPing;  ///< frame type tag
  std::vector<uint8_t> payload;           ///< CRC-verified payload bytes
};

/// Seals a frame in place. `*frame` holds kHeaderSize reserved bytes
/// followed by the payload; SealFrame writes magic, kVersion, `type`, the
/// payload length and its CRC-32 into the reserved bytes, so a response
/// encoded straight into its frame buffer is never copied. A payload over
/// kMaxPayload, which no peer's decoder accepts, is replaced by an Error
/// payload with code OUT_OF_RANGE, and the frame is sealed as kError.
void SealFrame(MessageType type, std::vector<uint8_t>* frame);

/// Builds a complete frame (header + CRC + payload) around `payload`: a
/// copy into a new buffer, then SealFrame.
std::vector<uint8_t> EncodeFrame(MessageType type,
                                 std::vector<uint8_t> payload);

/// DecodeFrame outcome for a byte-stream prefix.
enum class DecodeResult {
  kFrame,     ///< one complete, CRC-valid frame was consumed
  kNeedMore,  ///< prefix of a plausible frame; read more bytes and retry
  kBadMagic,  ///< stream is not this protocol; close without replying
  kMalformed, ///< framing violation (reserved bytes, length, CRC); reply
              ///< with kError then close — see docs/wire-protocol.md §6
};

/// Attempts to decode one frame from the front of [data, data+size).
/// On kFrame fills `*frame` and sets `*consumed` to the frame's total size;
/// otherwise `*consumed` is 0. `error` (optional) receives a diagnostic for
/// kBadMagic/kMalformed.
DecodeResult DecodeFrame(const uint8_t* data, size_t size, Frame* frame,
                         size_t* consumed, std::string* error = nullptr);

// ---- Payload primitives ------------------------------------------------

/// Appends little-endian primitives to a payload buffer. Writing never
/// fails; the buffer grows as needed.
class PayloadWriter {
 public:
  /// Appends into `out` (not owned; must outlive the writer).
  explicit PayloadWriter(std::vector<uint8_t>* out) : out_(out) {}

  void U8(uint8_t v);    ///< 1 byte
  void U32(uint32_t v);  ///< 4 bytes LE
  void U64(uint64_t v);  ///< 8 bytes LE
  void I32(int32_t v);   ///< 4 bytes LE, two's complement
  void I64(int64_t v);   ///< 8 bytes LE, two's complement
  void F32(float v);     ///< IEEE-754 binary32 bit pattern, LE
  void F64(double v);    ///< IEEE-754 binary64 bit pattern, LE
  /// `count` binary32 bit patterns, LE, appended in one step (the window
  /// and sample arrays).
  void F32Array(const float* v, size_t count);
  /// u32 byte length followed by the raw bytes (no terminator).
  void Str(const std::string& v);
  /// Grows the buffer by `n` bytes at once and returns the first new byte,
  /// for an encoder that writes a block of known size through its own
  /// cursor (AppendDetectResult).
  uint8_t* Extend(size_t n);

 private:
  std::vector<uint8_t>* out_;
};

/// Bounds-checked little-endian cursor over a received payload. Every read
/// returns a Status instead of trusting the peer's length fields.
class PayloadReader {
 public:
  /// Reads from [data, data+size); the buffer must outlive the reader.
  PayloadReader(const uint8_t* data, size_t size)
      : data_(data), size_(size) {}

  Status U8(uint8_t* v);    ///< reads 1 byte
  Status U32(uint32_t* v);  ///< reads 4 bytes LE
  Status U64(uint64_t* v);  ///< reads 8 bytes LE
  Status I32(int32_t* v);   ///< reads 4 bytes LE, two's complement
  Status I64(int64_t* v);   ///< reads 8 bytes LE, two's complement
  Status F32(float* v);     ///< reads an IEEE-754 binary32, LE
  Status F64(double* v);    ///< reads an IEEE-754 binary64, LE
  /// Reads `count` binary32s, LE, into `v` after one bounds check.
  Status F32Array(float* v, size_t count);
  Status Str(std::string* v);  ///< reads u32 length + bytes

  size_t remaining() const { return size_ - pos_; }  ///< unread byte count
  /// Fails unless the payload was consumed exactly (no trailing bytes).
  Status ExpectEnd() const;

 private:
  Status Take(size_t n, const uint8_t** p);

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// ---- Typed messages ----------------------------------------------------

/// kLoadModel request: materialise `checkpoint_path` under `name`.
struct LoadModelMsg {
  std::string name;             ///< registry name to register under
  std::string checkpoint_path;  ///< server-local CFPM checkpoint path
  core::ModelOptions options;   ///< architecture the checkpoint must match
};

/// kLoadModelOk response.
struct LoadModelOkMsg {
  int64_t num_parameters = 0;  ///< parameter count of the loaded model
  uint64_t generation = 0;     ///< registry generation assigned to it
};

/// kDetect request: one causal-discovery query against a registered model.
struct DetectMsg {
  std::string model;              ///< registry name to query
  core::DetectorOptions options;  ///< detector knobs (clusters, ablations)
  Tensor windows;                 ///< [B, N, T] window batch
};

/// kDetectBatch request: several window batches against one model, submitted
/// as independent engine requests (they coalesce in the micro-batcher).
struct DetectBatchMsg {
  std::string model;              ///< registry name to query
  core::DetectorOptions options;  ///< shared detector knobs
  std::vector<Tensor> windows;    ///< one [B_i, N, T] batch per query
};

/// kDetectResult response (also the repeated unit of kDetectBatchResult).
struct DetectResultMsg {
  bool cache_hit = false;       ///< answered from the server's ScoreCache
  bool deduped = false;         ///< answered by in-flight dedup fan-in (v3)
  int32_t batch_size = 0;       ///< requests coalesced into the executing batch
  double latency_seconds = 0;   ///< server-side submit-to-completion time
  /// Scores, delays and graph edges. Default-constructed as a 1-series
  /// placeholder (DetectionResult checks num_series > 0); decode replaces it.
  core::DetectionResult result{1};
};

/// kStatsResult response: a point-in-time snapshot of server counters.
struct StatsResultMsg {
  /// One registered model, as reported by ModelRegistry::List().
  struct Model {
    std::string name;            ///< registry name
    int64_t num_parameters = 0;  ///< parameter count
    uint64_t generation = 0;     ///< registry generation
    int64_t num_series = 0;      ///< N the model was built for
    int64_t window = 0;          ///< T the model was built for
  };
  uint64_t cache_hits = 0;        ///< ScoreCache hits
  uint64_t cache_misses = 0;      ///< ScoreCache misses
  uint64_t cache_evictions = 0;   ///< ScoreCache evictions
  uint64_t cache_expirations = 0; ///< ScoreCache TTL expirations (v2)
  uint64_t cache_size = 0;        ///< current ScoreCache entries
  uint64_t cache_capacity = 0;    ///< ScoreCache capacity
  uint64_t batch_requests = 0;    ///< requests submitted to the batcher
  uint64_t batch_batches = 0;     ///< batches dispatched
  uint64_t batch_coalesced = 0;   ///< requests that rode in a batch of > 1
  int32_t batch_max = 0;          ///< largest batch dispatched so far
  uint64_t batch_rejected = 0;    ///< requests rejected (queue full/shutdown)
  /// Followers coalesced onto an identical in-flight query (v3).
  uint64_t dedup_hits = 0;
  /// Running entries of the score table: unique queries in flight (gauge,
  /// v3).
  uint64_t dedup_in_flight = 0;
  /// Executor count of the batcher, fixed at startup (v3; carried an
  /// occupancy-driven admission limit until that was removed).
  int32_t batch_in_flight_limit = 0;
  /// Shape buckets currently holding pending requests (gauge, v3).
  int32_t batch_shape_buckets = 0;
  uint64_t server_connections = 0;  ///< connections accepted since start
  uint64_t server_frames = 0;       ///< request frames decoded
  uint64_t server_wire_errors = 0;  ///< malformed frames / protocol errors
  std::vector<Model> models;        ///< registered models, sorted by name
};

/// kError response: a wire-mapped Status.
struct ErrorMsg {
  uint32_t code = 0;    ///< numeric StatusCode (docs/wire-protocol.md §5)
  std::string message;  ///< human-readable diagnostic
};

// ---- Metrics messages (protocol version 4) -----------------------------

/// One histogram's quantile summary (the repeated unit of kMetricsResult):
/// what a dashboard needs without parsing the text exposition.
struct HistogramSummaryMsg {
  std::string name;   ///< full series name, labels included
  uint64_t count = 0; ///< samples recorded
  double sum = 0;     ///< sum of recorded values
  double p50 = 0;     ///< estimated 50th percentile
  double p90 = 0;     ///< estimated 90th percentile
  double p99 = 0;     ///< estimated 99th percentile
};

/// kMetricsResult response: the server's full metrics state — the
/// Prometheus-style text exposition (counters, gauges and histogram
/// buckets) plus one pre-computed quantile row per histogram. The request
/// (kMetrics) has an empty payload.
struct MetricsResultMsg {
  std::string text;  ///< Prometheus-style text exposition
  std::vector<HistogramSummaryMsg> histograms;  ///< per-histogram summaries
};

// ---- Diagnostics messages (protocol version 5) -------------------------

/// One member file of a kDumpResult diagnostic bundle.
struct DumpFileMsg {
  std::string name;     ///< bundle-relative file name ("trace.json", …)
  std::string content;  ///< full file content (text or JSON)
};

/// kDumpResult response: the flight recorder's diagnostic bundle — the
/// same files a SIGUSR1 dump writes to disk (logs.txt, metrics.txt,
/// trace.json, traces.txt, state.txt), delivered over the wire so
/// `serve_cli dump --connect` can pull evidence out of a remote server.
/// The request (kDump) has an empty payload.
struct DumpResultMsg {
  std::vector<DumpFileMsg> files;  ///< bundle member files, server order
};

// ---- Profiling messages (protocol version 7) ---------------------------

/// kProfile request: sample the server's installed CPU profiler for a
/// bounded window and return the result. The server rejects requests when
/// no profiler is installed (FAILED_PRECONDITION) and clamps nothing —
/// out-of-range durations are an INVALID_ARGUMENT error.
struct ProfileMsg {
  uint32_t seconds = 2;  ///< sampling window in whole seconds (1..60)
};

/// kProfileResult response: one completed profiling window.
struct ProfileResultMsg {
  uint64_t samples = 0;  ///< stack samples captured during the window
  uint64_t drops = 0;    ///< samples dropped (buffer full) during it
  std::string folded;    ///< folded-stack text (`frame;frame;... count`)
  std::string json;      ///< chrome://tracing JSON of the same samples
};

// ---- Streaming messages (protocol version 2) ---------------------------

/// kStreamOpen request: create a named sliding-window stream on the server.
struct StreamOpenMsg {
  std::string stream;             ///< stream name (unique per server)
  std::string model;              ///< registry model to detect with
  int64_t window = 0;             ///< window width; 0 = the model's window
  int64_t stride = 1;             ///< samples between window emissions
  int64_t history = 0;            ///< ring capacity in samples; 0 = default
  uint32_t max_in_flight = 4;     ///< in-flight detection debounce bound
  uint32_t max_reports = 256;     ///< retained (undrained) report bound
  core::DetectorOptions options;  ///< detector knobs for every window
  double drift_score_threshold = 0.25;  ///< DriftOptions::score_delta_threshold
  double drift_flip_threshold = 0.34;   ///< DriftOptions::flip_fraction_threshold
  int32_t stability_window = 3;         ///< DriftOptions::stability_window
};

/// kStreamOpenOk response: the config after server-side defaulting.
struct StreamOpenOkMsg {
  int64_t window = 0;   ///< resolved window width
  int64_t stride = 0;   ///< resolved stride
  int64_t history = 0;  ///< resolved ring capacity
};

/// kAppendSamples request: push samples onto a stream's ring.
struct AppendSamplesMsg {
  std::string stream;  ///< stream to append to
  Tensor samples;      ///< [N, K] series-major sample columns
};

/// kAppendSamplesOk response: the stream's counters after the append —
/// enough for a producer to observe backpressure (pending), loss
/// (windows_dropped) and detection failures (windows_failed, e.g. the
/// stream's model was unloaded) without a separate stats round-trip.
struct AppendSamplesOkMsg {
  uint64_t total_samples = 0;    ///< stream length after the append
  uint64_t windows_emitted = 0;  ///< detections submitted so far (lifetime)
  uint64_t windows_dropped = 0;  ///< windows lost to ring overrun (lifetime)
  uint64_t windows_failed = 0;   ///< detections that errored (lifetime)
  uint32_t pending = 0;          ///< detections currently in flight
  /// Windows answered by in-flight dedup fan-in — another stream or ad-hoc
  /// query was already computing the identical window (lifetime, v3).
  uint64_t deduped_windows = 0;
};

/// kStreamReports request: drain up to max_reports completed-window reports
/// (0 = all available). Reports are drained oldest first, at most once.
struct StreamReportsMsg {
  std::string stream;        ///< stream to drain
  uint32_t max_reports = 0;  ///< drain bound; 0 = everything available
};

/// One completed window's report (the repeated unit of
/// kStreamReportsResult): the discovered graph plus the drift comparison
/// against the stream's previous window.
struct StreamReportMsg {
  uint64_t window_index = 0;   ///< ordinal of the window in its stream
  int64_t window_start = 0;    ///< absolute sample index of the first column
  bool cache_hit = false;      ///< answered from the ScoreCache
  bool deduped = false;        ///< answered by in-flight dedup fan-in (v3)
  bool has_baseline = false;   ///< false for the stream's first window
  bool drifted = false;        ///< the pair exceeded a drift threshold
  bool regime_change = false;  ///< drift persisted for stability_window
  int32_t batch_size = 0;      ///< micro-batch size the window rode in
  double latency_seconds = 0;  ///< submit→completion seconds
  int32_t num_series = 0;      ///< series count (edge endpoint bound)
  std::vector<CausalEdge> edges;  ///< the window's discovered graph
  // Drift fields, zeroed when !has_baseline:
  int32_t consecutive_drifts = 0;   ///< drifting windows in a row
  int32_t edges_added = 0;          ///< edges new vs the previous window
  int32_t edges_removed = 0;        ///< edges gone vs the previous window
  int32_t edges_kept = 0;           ///< edges shared with the previous window
  int32_t delay_changes = 0;        ///< kept edges whose delay moved
  double mean_abs_score_delta = 0;  ///< mean |Δscore| over all pairs
  double max_abs_score_delta = 0;   ///< max |Δscore| over all pairs
  double jaccard = 1.0;             ///< edge-set stability (1 = identical)
  std::vector<CausalEdge> added;    ///< the flipped-on edges
  std::vector<CausalEdge> removed;  ///< the flipped-off edges
};

/// Encodes a Ping/Pong payload carrying `token`.
std::vector<uint8_t> EncodePing(uint64_t token);
/// Decodes a Ping/Pong payload into `*token`.
Status DecodePing(const std::vector<uint8_t>& payload, uint64_t* token);

/// Encodes a kLoadModel payload.
std::vector<uint8_t> EncodeLoadModel(const LoadModelMsg& msg);
/// Decodes a kLoadModel payload.
Status DecodeLoadModel(const std::vector<uint8_t>& payload, LoadModelMsg* msg);

/// Encodes a kLoadModelOk payload.
std::vector<uint8_t> EncodeLoadModelOk(const LoadModelOkMsg& msg);
/// Decodes a kLoadModelOk payload.
Status DecodeLoadModelOk(const std::vector<uint8_t>& payload,
                         LoadModelOkMsg* msg);

/// Encodes a kUnloadModel payload (just the model name).
std::vector<uint8_t> EncodeUnloadModel(const std::string& name);
/// Decodes a kUnloadModel payload.
Status DecodeUnloadModel(const std::vector<uint8_t>& payload,
                         std::string* name);

/// Encodes a kDetect payload.
std::vector<uint8_t> EncodeDetect(const DetectMsg& msg);
/// Decodes a kDetect payload (rebuilds the [B, N, T] window tensor).
Status DecodeDetect(const std::vector<uint8_t>& payload, DetectMsg* msg);

/// Encodes a kDetectBatch payload.
std::vector<uint8_t> EncodeDetectBatch(const DetectBatchMsg& msg);
/// Decodes a kDetectBatch payload.
Status DecodeDetectBatch(const std::vector<uint8_t>& payload,
                         DetectBatchMsg* msg);

/// Encodes a kDetectResult payload.
std::vector<uint8_t> EncodeDetectResult(const DetectResultMsg& msg);
/// Bytes AppendDetectResult writes for `result`, so a response can reserve
/// its exact frame size before encoding.
size_t DetectResultSize(const core::DetectionResult& result);
/// Appends one DetectResult unit (the whole kDetectResult payload, or one
/// repeated unit of kDetectBatchResult) straight from a shared `result`,
/// without copying the result into a DetectResultMsg. The payload grows once
/// by DetectResultSize(result) and every field is written through one
/// cursor that must end exactly there. EncodeDetectResult,
/// EncodeDetectBatchResult and the server's responses all encode through it.
void AppendDetectResult(PayloadWriter* w, bool cache_hit, bool deduped,
                        int32_t batch_size, double latency_seconds,
                        const core::DetectionResult& result);
/// Decodes a kDetectResult payload (rebuilds scores, delays and the graph).
Status DecodeDetectResult(const std::vector<uint8_t>& payload,
                          DetectResultMsg* msg);

/// Encodes a kDetectBatchResult payload (u32 count + repeated results).
std::vector<uint8_t> EncodeDetectBatchResult(
    const std::vector<DetectResultMsg>& results);
/// Decodes a kDetectBatchResult payload.
Status DecodeDetectBatchResult(const std::vector<uint8_t>& payload,
                               std::vector<DetectResultMsg>* results);

/// Encodes a kStatsResult payload.
std::vector<uint8_t> EncodeStatsResult(const StatsResultMsg& msg);
/// Decodes a kStatsResult payload.
Status DecodeStatsResult(const std::vector<uint8_t>& payload,
                         StatsResultMsg* msg);

/// Encodes a kStreamOpen payload.
std::vector<uint8_t> EncodeStreamOpen(const StreamOpenMsg& msg);
/// Decodes a kStreamOpen payload.
Status DecodeStreamOpen(const std::vector<uint8_t>& payload,
                        StreamOpenMsg* msg);

/// Encodes a kStreamOpenOk payload.
std::vector<uint8_t> EncodeStreamOpenOk(const StreamOpenOkMsg& msg);
/// Decodes a kStreamOpenOk payload.
Status DecodeStreamOpenOk(const std::vector<uint8_t>& payload,
                          StreamOpenOkMsg* msg);

/// Encodes a kStreamClose payload (just the stream name).
std::vector<uint8_t> EncodeStreamClose(const std::string& stream);
/// Decodes a kStreamClose payload.
Status DecodeStreamClose(const std::vector<uint8_t>& payload,
                         std::string* stream);

/// Encodes a kAppendSamples payload.
std::vector<uint8_t> EncodeAppendSamples(const AppendSamplesMsg& msg);
/// Decodes a kAppendSamples payload (rebuilds the [N, K] sample tensor).
Status DecodeAppendSamples(const std::vector<uint8_t>& payload,
                           AppendSamplesMsg* msg);

/// Encodes a kAppendSamplesOk payload.
std::vector<uint8_t> EncodeAppendSamplesOk(const AppendSamplesOkMsg& msg);
/// Decodes a kAppendSamplesOk payload.
Status DecodeAppendSamplesOk(const std::vector<uint8_t>& payload,
                             AppendSamplesOkMsg* msg);

/// Encodes a kStreamReports payload.
std::vector<uint8_t> EncodeStreamReports(const StreamReportsMsg& msg);
/// Decodes a kStreamReports payload.
Status DecodeStreamReports(const std::vector<uint8_t>& payload,
                           StreamReportsMsg* msg);

/// Encodes a kStreamReportsResult payload (u32 count + repeated reports).
std::vector<uint8_t> EncodeStreamReportsResult(
    const std::vector<StreamReportMsg>& reports);
/// Decodes a kStreamReportsResult payload.
Status DecodeStreamReportsResult(const std::vector<uint8_t>& payload,
                                 std::vector<StreamReportMsg>* reports);

/// Encodes a kMetricsResult payload.
std::vector<uint8_t> EncodeMetricsResult(const MetricsResultMsg& msg);
/// Decodes a kMetricsResult payload.
Status DecodeMetricsResult(const std::vector<uint8_t>& payload,
                           MetricsResultMsg* msg);

/// Encodes a kDumpResult payload.
std::vector<uint8_t> EncodeDumpResult(const DumpResultMsg& msg);
/// Decodes a kDumpResult payload.
Status DecodeDumpResult(const std::vector<uint8_t>& payload,
                        DumpResultMsg* msg);

/// Encodes a kProfile payload (u32 seconds).
std::vector<uint8_t> EncodeProfile(const ProfileMsg& msg);
/// Decodes a kProfile payload.
Status DecodeProfile(const std::vector<uint8_t>& payload, ProfileMsg* msg);

/// Encodes a kProfileResult payload.
std::vector<uint8_t> EncodeProfileResult(const ProfileResultMsg& msg);
/// Decodes a kProfileResult payload.
Status DecodeProfileResult(const std::vector<uint8_t>& payload,
                           ProfileResultMsg* msg);

/// Encodes a kError payload from a Status (code + message).
std::vector<uint8_t> EncodeError(const Status& status);
/// Decodes a kError payload.
Status DecodeError(const std::vector<uint8_t>& payload, ErrorMsg* msg);

/// Maps a decoded ErrorMsg back onto a Status with the original code
/// (unknown codes map to kInternal).
Status ErrorToStatus(const ErrorMsg& msg);

}  // namespace wire
}  // namespace serve
}  // namespace causalformer

#endif  // CAUSALFORMER_SERVE_WIRE_H_

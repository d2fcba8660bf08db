#ifndef CFBENCH_LOADGEN_H_
#define CFBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/detector.h"
#include "graph/causal_graph.h"
#include "tensor/tensor.h"
#include "util/status.h"

/// \file
/// The load generators. Both talk to the server only through CFWP frames,
/// count every error frame, refusal, timeout and dropped window as a failed
/// op, and never abort: a dead server ends a phase early with failures.

namespace cfbench {

/// Spans kept per connection or stream; later ops are measured but not kept.
inline constexpr size_t kMaxSpansPerLane = 10000;

/// One traced op: client-side interval plus the server-reported latency.
struct OpSpan {
  uint32_t lane = 0;     ///< connection (closed loop) or stream (open loop)
  uint64_t op = 0;       ///< request index or window index
  double start = 0;      ///< seconds since phase start: sent, or due
  double end = 0;        ///< seconds since phase start: response decoded
  double engine = 0;     ///< server latency_seconds of the response
};

// ---- Closed loop: pipelined Detect requests --------------------------------

struct ClosedLoopOptions {
  uint16_t port = 0;
  int connections = 1;
  int depth = 1;          ///< requests kept in flight per connection
  double seconds = 1;     ///< sending stops after this long
  uint64_t first_index = 0;  ///< index of the phase's first request
  /// The encoded Detect frame of request `index` (indices are global across
  /// connections and never reused). Called concurrently.
  std::function<std::vector<uint8_t>(uint64_t index)> frame;
  /// When > 0, request `index` asks for distinct batch `index % distinct`;
  /// each batch's first response is kept and every repeat must match it.
  uint64_t distinct = 0;
  /// When set, the decoded result of request `index` is kept for the oracle
  /// if keep(index) holds.
  std::function<bool(uint64_t index)> keep;
  bool trace = false;  ///< keep one OpSpan per completed op
};

struct ClosedLoopResult {
  uint64_t attempted = 0;      ///< requests sent (or refused at connect)
  uint64_t ok = 0;             ///< Detect results received and decoded
  uint64_t error_frames = 0;   ///< kError (or undecodable) replies
  uint64_t lost = 0;           ///< refused, timed out or cut off
  uint64_t repeat_mismatches = 0;  ///< repeats differing from the first
  uint64_t bytes = 0;          ///< bytes sent + received
  double elapsed_s = 0;        ///< phase start to last response
  std::vector<double> rtt_s;       ///< per ok op, send to decode
  std::vector<double> engine_s;    ///< per ok op, server latency_seconds
  std::vector<double> done_at_s;   ///< per ok op, completion time
  std::map<uint64_t, causalformer::core::DetectionResult> kept;  ///< by index
  /// distinct > 0: the first response of each batch, by batch.
  std::map<uint64_t, causalformer::core::DetectionResult> first;
  std::vector<OpSpan> spans;

  uint64_t failed() const {
    return error_frames + lost + repeat_mismatches;
  }
};

ClosedLoopResult RunClosedLoop(const ClosedLoopOptions& options);

// ---- Open loop: live streams ------------------------------------------------

struct StreamLane {
  std::string name;                    ///< server-side stream name
  const causalformer::Tensor* series;  ///< [N, L] samples to replay
  double offset_s = 0;  ///< schedule offset of this lane's appends
};

struct OpenLoopOptions {
  uint16_t port = 0;
  std::vector<StreamLane> lanes;  ///< one connection and thread each
  int64_t window = 0;             ///< model window T
  int64_t stride = 1;             ///< samples per append = per window
  double period_s = 0.02;         ///< one append per lane per period
  double seconds = 1;             ///< appending stops after this long
  bool trace = false;
};

/// One delivered window report.
struct DeliveredReport {
  int lane = 0;
  int64_t window_start = 0;
  bool reused = false;  ///< cache hit or in-flight dedup
  std::vector<causalformer::CausalEdge> edges;
};

struct OpenLoopResult {
  uint64_t attempted = 0;        ///< windows due across lanes
  uint64_t ok = 0;               ///< window reports delivered
  uint64_t error_frames = 0;     ///< kError replies
  uint64_t lost = 0;             ///< transport failures and missing reports
  uint64_t windows_dropped = 0;  ///< server ring overruns (from append acks)
  uint64_t windows_failed = 0;   ///< server-side detection errors
  uint64_t bytes = 0;
  double elapsed_s = 0;
  std::vector<double> latency_s;    ///< per report: due to drained
  std::vector<double> engine_s;     ///< per report: server latency_seconds
  std::vector<double> done_at_s;    ///< per report: drain time
  std::vector<double> lag_s;        ///< per append: sent minus due
  std::vector<double> append_rtt_s; ///< per append round trip
  std::vector<double> drain_rtt_s;  ///< per StreamReports round trip
  std::vector<DeliveredReport> reports;
  std::vector<OpSpan> spans;

  uint64_t failed() const {
    return error_frames + lost + windows_dropped + windows_failed;
  }
};

OpenLoopResult RunOpenLoop(const OpenLoopOptions& options);

}  // namespace cfbench

#endif  // CFBENCH_LOADGEN_H_

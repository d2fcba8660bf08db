#ifndef CFBENCH_WORKLOADS_H_
#define CFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/causality_transformer.h"
#include "core/detector.h"
#include "core/trainer.h"
#include "server_process.h"
#include "tensor/tensor.h"
#include "util/status.h"

/// \file
/// The three workloads: their model geometry, seeded inputs, the set-up that
/// trains and serves their model, and the in-process oracle that recomputes
/// what the server answered.

namespace cfbench {

enum class Kind { kColdServing, kHotRepeat, kStreamFmri15 };

struct Workload {
  const char* name;
  Kind kind;
  causalformer::core::ModelOptions model;  ///< num_series..d_ffn set
  int64_t windows_per_op;  ///< windows in one Detect (or stream window)
  int64_t train_length;    ///< series prefix the model trains on
  int64_t train_stride;    ///< training window stride
  int train_epochs;
};

/// The workload called `name`, or null.
const Workload* FindWorkload(const std::string& name);
/// "cold_serving|hot_repeat|stream_fmri15".
std::string WorkloadNames();

// Closed-loop shape (cold_serving, hot_repeat).
inline constexpr int kPipelineDepth = 32;  ///< requests in flight per conn
inline constexpr uint64_t kHotBatches = 32;  ///< hot working set, < cache 256
inline constexpr uint64_t kColdSampleEvery = 97;  ///< oracle sample stride
inline constexpr uint64_t kColdSampleCap = 4096;  ///< oracle sample bound

/// Whether the oracle recomputes cold_serving request `index` of a phase
/// whose first request is `first`: every kColdSampleEvery-th request of the
/// phase, up to kColdSampleCap of them. The sample spans ~400k requests, so
/// it covers a whole phase and every value generation in it.
inline bool KeepColdSample(uint64_t first, uint64_t index) {
  const uint64_t n = index - first;
  return n % kColdSampleEvery == 0 && n / kColdSampleEvery < kColdSampleCap;
}

// Open-loop shape (stream_fmri15): one append of kStreamStride samples per
// lane every kStreamPeriodS seconds, i.e. one window per lane per period.
// Two independent subjects plus a twin give 2 / kStreamPeriodS distinct
// windows per second, about half of what the server detects at N=15 on a
// 4-core host, so a healthy server drops nothing. Its ops_per_s is thus the
// schedule's kStreamLanes / kStreamPeriodS and moves only when windows are
// dropped or lost; a slower detector shows in latency_p50_ms.
inline constexpr int64_t kStreamStride = 4;
inline constexpr double kStreamPeriodS = 0.06;
inline constexpr int kStreamLanes = 3;

/// What one set-up produced: the inputs, the checkpoint, and timings.
struct SetupResult {
  std::string checkpoint;
  std::vector<causalformer::Tensor> series;  ///< [N, L]; stream: A, B
  causalformer::core::TrainReport train;
  double train_s = 0;  ///< wall time of TrainCausalityTransformer
  double setup_s = 0;  ///< data + train + checkpoint + launch + first OK
};

/// serve_cli arguments for a workload's server.
std::vector<std::string> ServerArgs(const Workload& w,
                                    const std::string& checkpoint);

/// Generates the seeded inputs, trains and checkpoints the model into
/// `workdir`, launches `serve_cli` there and waits for the first OK Detect.
/// `seconds` sizes the stream data.
causalformer::Status RunSetup(const Workload& w, uint64_t seed, double seconds,
                              const std::string& serve_cli,
                              const std::string& workdir, ServerProcess* server,
                              SetupResult* out);

/// The model the server serves, loaded in process from the checkpoint.
causalformer::StatusOr<
    std::unique_ptr<causalformer::core::CausalityTransformer>>
LoadModel(const Workload& w, const std::string& checkpoint);

/// The [windows_per_op, N, T] windows of Detect request `index`: cold
/// requests never repeat; hot requests cycle through kHotBatches batches.
causalformer::Tensor RequestWindows(const Workload& w,
                                    const causalformer::Tensor& series,
                                    uint64_t index);

/// The encoded Detect frame asking the default model about `windows`.
std::vector<uint8_t> DetectFrame(const causalformer::Tensor& windows);

/// The [1, N, T] window starting at `start` of `series`.
causalformer::Tensor StreamWindow(const causalformer::Tensor& series,
                                  int64_t start, int64_t window);

/// Runs `fn(i)` for i in [0, count) on up to `threads` threads.
void ParallelOver(size_t count, int threads,
                  const std::function<void(size_t)>& fn);

}  // namespace cfbench

#endif  // CFBENCH_WORKLOADS_H_

#ifndef CFBENCH_PROBES_H_
#define CFBENCH_PROBES_H_

#include <cstdint>
#include <vector>

#include "core/causality_transformer.h"
#include "core/detector.h"
#include "serve/wire.h"
#include "tensor/tensor.h"

/// \file
/// In-process layer probes. Each times calls into a stable public entry
/// point (the detector, the kernel table, the wire codec, the rolling
/// hasher) at a workload's own geometry, within a wall-time budget, and
/// reports a median over repetitions.

namespace cfbench {

struct DetectorProbe {
  double detect_ms = 0;     ///< one DetectCausalGraphBatched call
  double forward_ms = 0;    ///< obs::PhaseCollector phases of that call
  double backward_ms = 0;
  double relevance_ms = 0;
  double cluster_ms = 0;
  double matmul_ms = 0;     ///< kernel timers, nested inside the phases
  double softmax_ms = 0;
  int reps = 0;
};

/// Times DetectCausalGraphBatched(model, {windows}) with a PhaseCollector
/// installed around each call.
DetectorProbe ProbeDetector(
    const causalformer::core::CausalityTransformer& model,
    const causalformer::Tensor& windows, double budget_s);

/// Detects per second from `lanes` concurrent callers divided by detects
/// per second from one caller (no collector installed).
double ProbeLaneScaling(const causalformer::core::CausalityTransformer& model,
                        const causalformer::Tensor& windows, int lanes,
                        double budget_s);

struct GemmProbe {
  double gflops = 0;  ///< 2*m*k*n flops per product over its median time
  double bytes = 0;   ///< bytes one product touches: 4*(m*k + k*n + m*n)
};

/// Times an m x k by k x n product as m simd::Active().gemm_row calls.
GemmProbe ProbeGemmRow(int64_t m, int64_t k, int64_t n, double budget_s);

struct CodecProbe {
  double encode_us = 0;  ///< request: typed encoder + EncodeFrame
  double decode_us = 0;  ///< response: DecodeFrame + typed decoder
};

/// Detect request / DetectResult response codec cost on the given frames.
CodecProbe ProbeDetectCodec(const causalformer::Tensor& windows,
                            const causalformer::core::DetectionResult& result,
                            double budget_s);

/// AppendSamples request / StreamReportsResult response codec cost.
CodecProbe ProbeStreamCodec(
    const causalformer::Tensor& samples,
    const std::vector<causalformer::serve::wire::StreamReportMsg>& reports,
    double budget_s);

/// Microseconds per window of stream::RollingWindowHasher: digest `stride`
/// new samples, then hash the window ending there.
double ProbeRollingHash(const causalformer::Tensor& series, int64_t window,
                        int64_t stride, double budget_s);

}  // namespace cfbench

#endif  // CFBENCH_PROBES_H_

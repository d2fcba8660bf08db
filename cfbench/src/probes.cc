#include "probes.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <thread>

#include "obs/trace.h"
#include "stats.h"
#include "stream/ring_series.h"
#include "tensor/ops.h"
#include "tensor/simd.h"

namespace cfbench {

namespace cf = causalformer;
namespace wire = causalformer::serve::wire;

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Median seconds per call of `fn`, timed in batches of `per_batch` calls
// until `budget_s` has passed (at least three batches).
double MedianPerCall(const std::function<void()>& fn, int per_batch,
                     double budget_s) {
  std::vector<double> per_call;
  const Clock::time_point start = Clock::now();
  while (per_call.size() < 3 || Since(start) < budget_s) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < per_batch; ++i) fn();
    per_call.push_back(Since(t0) / per_batch);
    if (per_call.size() >= 100000) break;
  }
  return Percentile(per_call, 0.5);
}

}  // namespace

DetectorProbe ProbeDetector(const cf::core::CausalityTransformer& model,
                            const cf::Tensor& windows, double budget_s) {
  const std::vector<cf::Tensor> batch = {windows};
  (void)cf::core::DetectCausalGraphBatched(model, batch);  // warm the arena
  std::vector<double> total, forward, backward, relevance, cluster, matmul,
      softmax;
  const Clock::time_point start = Clock::now();
  while (total.size() < 5 || Since(start) < budget_s) {
    cf::obs::PhaseCollector collector;
    const Clock::time_point t0 = Clock::now();
    {
      cf::obs::ScopedPhaseCollector install(&collector);
      (void)cf::core::DetectCausalGraphBatched(model, batch);
    }
    total.push_back(Since(t0));
    double f = 0, b = 0, r = 0, c = 0, mm = 0, sm = 0;
    for (const auto& [name, seconds] : collector.phases()) {
      if (name == "forward") f += seconds;
      if (name == "backward") b += seconds;
      if (name == "relevance") r += seconds;
      if (name == "cluster") c += seconds;
      if (name == "kernel.matmul") mm += seconds;
      if (name == "kernel.softmax") sm += seconds;
    }
    forward.push_back(f);
    backward.push_back(b);
    relevance.push_back(r);
    cluster.push_back(c);
    matmul.push_back(mm);
    softmax.push_back(sm);
  }
  DetectorProbe p;
  p.reps = static_cast<int>(total.size());
  p.detect_ms = Percentile(total, 0.5) * 1e3;
  p.forward_ms = Percentile(forward, 0.5) * 1e3;
  p.backward_ms = Percentile(backward, 0.5) * 1e3;
  p.relevance_ms = Percentile(relevance, 0.5) * 1e3;
  p.cluster_ms = Percentile(cluster, 0.5) * 1e3;
  p.matmul_ms = Percentile(matmul, 0.5) * 1e3;
  p.softmax_ms = Percentile(softmax, 0.5) * 1e3;
  return p;
}

double ProbeLaneScaling(const cf::core::CausalityTransformer& model,
                        const cf::Tensor& windows, int lanes,
                        double budget_s) {
  const std::vector<cf::Tensor> batch = {windows};
  const auto rate = [&](int callers) {
    std::atomic<uint64_t> done{0};
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < callers; ++i) {
      threads.emplace_back([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          (void)cf::core::DetectCausalGraphBatched(model, batch);
          done.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(budget_s / 2));
    stop = true;
    for (auto& t : threads) t.join();
    return static_cast<double>(done.load()) / Since(t0);
  };
  const double one = rate(1);
  const double many = rate(lanes);
  return one > 0 ? many / one : 0;
}

GemmProbe ProbeGemmRow(int64_t m, int64_t k, int64_t n, double budget_s) {
  std::vector<float> a(static_cast<size_t>(m * k));
  std::vector<float> b(static_cast<size_t>(k * n));
  std::vector<float> c(static_cast<size_t>(m * n));
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = 0.001f * static_cast<float>(i % 97);
  }
  for (size_t i = 0; i < b.size(); ++i) {
    b[i] = 0.002f * static_cast<float>(i % 89);
  }
  const cf::simd::KernelTable& kt = cf::simd::Active();
  const int per_batch = static_cast<int>(
      std::max<int64_t>(1, 200000 / std::max<int64_t>(1, m * k * n)));
  const double seconds = MedianPerCall(
      [&] {
        for (int64_t i = 0; i < m; ++i) {
          kt.gemm_row(a.data() + i * k, 1, b.data(), c.data() + i * n, k, n);
        }
      },
      per_batch, budget_s);
  volatile float sink = c[0];
  (void)sink;
  GemmProbe p;
  p.gflops = 2.0 * static_cast<double>(m * k * n) / seconds / 1e9;
  p.bytes = 4.0 * static_cast<double>(m * k + k * n + m * n);
  return p;
}

CodecProbe ProbeDetectCodec(const cf::Tensor& windows,
                            const cf::core::DetectionResult& result,
                            double budget_s) {
  wire::DetectMsg request;
  request.model = "default";
  request.windows = windows;
  wire::DetectResultMsg response;
  response.result = result;
  const std::vector<uint8_t> response_frame = wire::EncodeFrame(
      wire::MessageType::kDetectResult, wire::EncodeDetectResult(response));
  const auto encode = [&] {
    const auto frame = wire::EncodeFrame(wire::MessageType::kDetect,
                                         wire::EncodeDetect(request));
    volatile size_t sink = frame.size();
    (void)sink;
  };
  const auto decode = [&] {
    wire::Frame frame;
    size_t consumed = 0;
    wire::DetectResultMsg msg;
    if (wire::DecodeFrame(response_frame.data(), response_frame.size(),
                          &frame, &consumed) == wire::DecodeResult::kFrame) {
      (void)wire::DecodeDetectResult(frame.payload, &msg);
    }
  };
  CodecProbe p;
  p.encode_us = MedianPerCall(encode, 64, budget_s / 2) * 1e6;
  p.decode_us = MedianPerCall(decode, 64, budget_s / 2) * 1e6;
  return p;
}

CodecProbe ProbeStreamCodec(const cf::Tensor& samples,
                            const std::vector<wire::StreamReportMsg>& reports,
                            double budget_s) {
  wire::AppendSamplesMsg request;
  request.stream = "probe";
  request.samples = samples;
  const std::vector<uint8_t> response_frame =
      wire::EncodeFrame(wire::MessageType::kStreamReportsResult,
                        wire::EncodeStreamReportsResult(reports));
  const auto encode = [&] {
    const auto frame = wire::EncodeFrame(wire::MessageType::kAppendSamples,
                                         wire::EncodeAppendSamples(request));
    volatile size_t sink = frame.size();
    (void)sink;
  };
  const auto decode = [&] {
    wire::Frame frame;
    size_t consumed = 0;
    std::vector<wire::StreamReportMsg> out;
    if (wire::DecodeFrame(response_frame.data(), response_frame.size(),
                          &frame, &consumed) == wire::DecodeResult::kFrame) {
      (void)wire::DecodeStreamReportsResult(frame.payload, &out);
    }
  };
  CodecProbe p;
  p.encode_us = MedianPerCall(encode, 64, budget_s / 2) * 1e6;
  p.decode_us = MedianPerCall(decode, 64, budget_s / 2) * 1e6;
  return p;
}

double ProbeRollingHash(const cf::Tensor& series, int64_t window,
                        int64_t stride, double budget_s) {
  const int64_t n = series.dim(0);
  const int64_t length = series.dim(1);
  std::vector<cf::Tensor> chunks;
  for (int64_t t = 0; t + stride <= length; t += stride) {
    chunks.push_back(cf::Slice(series, 1, t, t + stride).Detach());
  }
  std::vector<double> per_window;
  const Clock::time_point start = Clock::now();
  while (per_window.size() < 3 || Since(start) < budget_s) {
    cf::stream::RollingWindowHasher hasher(n, length);
    int64_t windows = 0;
    const Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < chunks.size(); ++i) {
      (void)hasher.Append(chunks[i]);
      const int64_t end = static_cast<int64_t>(i + 1) * stride;
      if (end >= window && hasher.Window(end, window).ok()) ++windows;
    }
    if (windows == 0) break;
    per_window.push_back(Since(t0) / static_cast<double>(windows));
  }
  return Percentile(per_window, 0.5) * 1e6;
}

}  // namespace cfbench

// Kernel microbenchmarks: times the tensor hot loops (conv, matmul, softmax,
// elementwise, reductions, relevance) and one serving-size detect once with
// the scalar reference kernel table and once with the best vectorized table
// this build/CPU offers, in the same process via simd::SetLevelForTesting. Reports per-kernel speedups and
// their geometric mean, which CI gates at > 2x on SIMD-capable hosts (and
// checks that every case below is present).
//
// Self-contained (no google-benchmark): each case runs for a fixed iteration
// budget, 10 repetitions, single-threaded (CF_NUM_THREADS is pinned to 1
// before the pool spins up so ParallelFor runs inline). Each table reports
// the best repetition, which the gated geomean is computed from, and the
// 10th percentile of the repetitions: on a shared host whole runs fall into
// modes about 2x apart, so the best alone can hide which mode a run was in.
//
// Results are printed as a table and written to BENCH_perf.json.
//
// Environment knobs: CF_BENCH_PERF_ITERS scales the per-case iteration
// budget (percent, default 100), CF_FAST=1 (smoke: 10% iterations).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "core/causal_conv.h"
#include "core/causality_transformer.h"
#include "core/detector.h"
#include "interpret/relevance.h"
#include "tensor/allocator.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace cf = causalformer;

namespace {

int EnvInt(const char* name, int fallback) {
  if (const char* value = std::getenv(name)) {
    const int v = std::atoi(value);
    if (v > 0) return v;
  }
  return fallback;
}

// A volatile sink so the optimizer cannot drop the benchmarked work.
volatile float g_sink = 0.0f;

struct BenchCase {
  std::string name;
  int iters = 0;                   // per repetition, before scaling
  std::function<void()> fn;        // one iteration of the workload
};

// Milliseconds per iteration of the best repetition and of the 10th
// percentile (linear between the two nearest ranks) over `reps` repetitions
// of `iters` iterations.
struct Timing {
  double best_ms = 0;
  double p10_ms = 0;
};

Timing TimeCase(const BenchCase& c, int iters, int reps) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    cf::Stopwatch sw;
    for (int i = 0; i < iters; ++i) c.fn();
    ms.push_back(sw.ElapsedSeconds() * 1000.0 / iters);
  }
  std::sort(ms.begin(), ms.end());
  const double rank = 0.1 * static_cast<double>(ms.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, ms.size() - 1);
  Timing t;
  t.best_ms = ms.front();
  t.p10_ms = ms[lo] + (rank - static_cast<double>(lo)) * (ms[hi] - ms[lo]);
  return t;
}

struct Result {
  std::string name;
  Timing scalar;
  Timing simd;
  double speedup = 1;
};

}  // namespace

int main() {
  // Single-thread the pool before anything touches it: kernel speedups must
  // not be confounded by ParallelFor splits.
  setenv("CF_NUM_THREADS", "1", /*overwrite=*/0);
  const bool fast = std::getenv("CF_FAST") != nullptr;
  const int pct = EnvInt("CF_BENCH_PERF_ITERS", fast ? 10 : 100);
  constexpr int reps = 10;

  // Run under the detect arena, as the serving path does: intermediate
  // tensors recycle instead of round-tripping through malloc (and its page
  // faults) on every iteration, so the timings isolate the kernels.
  cf::ScopedAllocator arena_guard(cf::DetectArena());

  cf::Rng rng(42);

  // Workloads sized to stay cache-resident so the measurement is the kernel,
  // not memory bandwidth. Every case exercises forward *and* backward where
  // the detector does.
  cf::Tensor mm_a = cf::Tensor::Randn(cf::Shape{128, 128}, &rng);
  cf::Tensor mm_b = cf::Tensor::Randn(cf::Shape{128, 128}, &rng);
  cf::Tensor mm_at = mm_a.Clone().set_requires_grad(true);

  cf::Tensor sm_x = cf::Tensor::Randn(cf::Shape{128, 256}, &rng);
  cf::Tensor sm_x3 = cf::Tensor::Randn(cf::Shape{16, 64, 64}, &rng);

  cf::Tensor ew_a = cf::Tensor::Randn(cf::Shape{4096}, &rng);
  cf::Tensor ew_b = cf::Tensor::Randn(cf::Shape{4096}, &rng);
  cf::Tensor ew_o = cf::Tensor::Zeros(cf::Shape{4096});

  cf::Tensor conv_x = cf::Tensor::Randn(cf::Shape{4, 8, 128}, &rng);
  cf::Tensor conv_k = cf::Tensor::Randn(cf::Shape{8, 8, 128}, &rng);
  cf::Tensor conv_xg = conv_x.Clone().set_requires_grad(true);
  cf::Tensor conv_kg = conv_k.Clone().set_requires_grad(true);
  cf::Tensor conv_seed = cf::Tensor::Ones(cf::Shape{4, 8, 8, 128});

  // The serving geometry of cfbench's cold_serving workload: one batch of 15
  // requests of 4 windows each, N=4 series, T=8 steps, a kernel group per
  // request. The detector reads only the kernel's cotangent.
  constexpr int64_t kServeRequests = 15, kServeWindows = 4;
  cf::Tensor serve_x = cf::Tensor::Randn(
      cf::Shape{kServeRequests * kServeWindows, 4, 8}, &rng);
  cf::Tensor serve_k =
      cf::Tensor::Randn(cf::Shape{kServeRequests, 4, 4, 8}, &rng)
          .set_requires_grad(true);
  std::vector<int> serve_groups(kServeRequests * kServeWindows);
  for (size_t b = 0; b < serve_groups.size(); ++b) {
    serve_groups[b] = static_cast<int>(b / kServeWindows);
  }
  cf::Tensor serve_seed =
      cf::Tensor::Ones(cf::Shape{kServeRequests * kServeWindows, 4, 4, 8});

  cf::core::ModelOptions mopt;
  mopt.num_series = 8;
  mopt.window = 32;
  mopt.d_model = 64;
  mopt.d_qk = 64;
  mopt.heads = 2;
  mopt.d_ffn = 64;
  cf::core::CausalityTransformer model(mopt, &rng);
  cf::Tensor model_x = cf::Tensor::Randn(cf::Shape{8, 8, 32}, &rng);
  const auto model_fwd = model.Forward(model_x);
  cf::Tensor rel_seed = cf::Tensor::Ones(model_fwd.prediction.shape());

  // cfbench's cold_serving detect: one micro-batch of 16 requests of 4
  // windows each at the Diamond serving geometry (N=4, T=8, d=16, 2 heads).
  cf::core::ModelOptions serve_opt;
  serve_opt.num_series = 4;
  serve_opt.window = 8;
  serve_opt.d_model = 16;
  serve_opt.d_qk = 16;
  serve_opt.heads = 2;
  serve_opt.d_ffn = 16;
  cf::core::CausalityTransformer serve_model(serve_opt, &rng);
  std::vector<cf::Tensor> serve_requests;
  for (int r = 0; r < 16; ++r) {
    serve_requests.push_back(cf::Tensor::Randn(cf::Shape{4, 4, 8}, &rng));
  }

  std::vector<BenchCase> cases;
  cases.push_back({"matmul_128", 60, [&] {
                     g_sink = cf::MatMul(mm_a, mm_b).data()[0];
                   }});
  cases.push_back({"matmul_backward_128", 30, [&] {
                     cf::Tensor out = cf::MatMul(mm_at, mm_b);
                     out.Backward(cf::Tensor::Ones(out.shape()));
                     g_sink = out.data()[0];
                   }});
  cases.push_back({"softmax_rows_256", 200, [&] {
                     g_sink = cf::Softmax(sm_x, 1).data()[0];
                   }});
  cases.push_back({"softmax_strided_axis1", 100, [&] {
                     g_sink = cf::Softmax(sm_x3, 1).data()[0];
                   }});
  // Elementwise is measured at the kernel-table level (L1-resident row, no
  // op dispatch/autograd overhead): at op level the fixed per-op cost is the
  // same for both tables and would measure dispatch, not the kernel.
  cases.push_back({"elementwise_add_4k", 20000, [&] {
                     cf::simd::Active().binary_tiled(
                         cf::simd::ArithOp::kAdd, ew_a.data(), ew_b.data(),
                         4096, ew_o.data(), 4096);
                     g_sink = ew_o.data()[0];
                   }});
  cases.push_back({"elementwise_fma_4k", 20000, [&] {
                     cf::simd::Active().fma_into(ew_o.data(), ew_a.data(),
                                                 ew_b.data(), 4096);
                     g_sink = ew_o.data()[0];
                   }});
  cases.push_back({"reduce_sum_axis", 400, [&] {
                     g_sink = cf::Sum(sm_x, 1, false).data()[0];
                   }});
  cases.push_back({"causal_conv_forward", 20, [&] {
                     g_sink =
                         cf::core::MultiKernelCausalConv(conv_x, conv_k)
                             .data()[0];
                   }});
  cases.push_back({"causal_conv_backward", 10, [&] {
                     cf::Tensor out =
                         cf::core::MultiKernelCausalConv(conv_xg, conv_kg);
                     out.Backward(conv_seed);
                     g_sink = out.data()[0];
                   }});
  cases.push_back({"causal_conv_serving", 200, [&] {
                     cf::Tensor out = cf::core::GroupedMultiKernelCausalConv(
                         serve_x, serve_k, serve_groups);
                     out.Backward(serve_seed);
                     g_sink = out.data()[0];
                   }});
  cases.push_back({"relevance_propagation", 10, [&] {
                     const auto map = cf::interpret::PropagateRelevance(
                         model_fwd.prediction, rel_seed);
                     g_sink = static_cast<float>(map.size());
                   }});
  cases.push_back({"detect_serving", 100, [&] {
                     const auto results = cf::core::DetectCausalGraphBatched(
                         serve_model, serve_requests, {});
                     g_sink = static_cast<float>(results[0].scores.at(0, 1));
                   }});

  const cf::simd::IsaLevel best_level = cf::simd::ActiveLevel();
  const char* level_name = cf::simd::LevelName(best_level);
  std::vector<Result> results;

  std::printf("%-26s %12s %12s %12s %12s %9s\n", "kernel", "scalar ms/it",
              "scalar p10", (std::string(level_name) + " ms/it").c_str(),
              (std::string(level_name) + " p10").c_str(), "speedup");
  for (const BenchCase& c : cases) {
    const int iters = std::max(1, c.iters * pct / 100);
    Result r;
    r.name = c.name;
    // Warm the arena/pool and the instruction cache once per table.
    cf::simd::SetLevelForTesting(cf::simd::IsaLevel::kScalar);
    c.fn();
    r.scalar = TimeCase(c, iters, reps);
    cf::simd::SetLevelForTesting(best_level);
    c.fn();
    r.simd = TimeCase(c, iters, reps);
    r.speedup = r.simd.best_ms > 0 ? r.scalar.best_ms / r.simd.best_ms : 1.0;
    results.push_back(r);
    std::printf("%-26s %12.4f %12.4f %12.4f %12.4f %8.2fx\n", r.name.c_str(),
                r.scalar.best_ms, r.scalar.p10_ms, r.simd.best_ms,
                r.simd.p10_ms, r.speedup);
  }

  double log_sum = 0.0;
  for (const Result& r : results) log_sum += std::log(r.speedup);
  const double geomean =
      results.empty() ? 1.0
                      : std::exp(log_sum / static_cast<double>(results.size()));
  std::printf("%-26s %60.2fx\n", "geomean", geomean);

  FILE* f = std::fopen("BENCH_perf.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"bench\": \"perf_micro\",\n");
    std::fprintf(f, "  \"simd_level\": \"%s\",\n", level_name);
    std::fprintf(f, "  \"kernels\": [\n");
    for (size_t i = 0; i < results.size(); ++i) {
      const Result& r = results[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"scalar_ms\": %.6f, "
                   "\"scalar_p10_ms\": %.6f, \"simd_ms\": %.6f, "
                   "\"simd_p10_ms\": %.6f, \"speedup\": %.4f}%s\n",
                   r.name.c_str(), r.scalar.best_ms, r.scalar.p10_ms,
                   r.simd.best_ms, r.simd.p10_ms, r.speedup,
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"kernel_speedup_geomean\": %.4f\n}\n", geomean);
    std::fclose(f);
    std::printf("wrote BENCH_perf.json (simd_level=%s)\n", level_name);
  }
  return 0;
}

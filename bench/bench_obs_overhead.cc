// Observability-overhead benchmark: the production diagnostics layer must
// cost at most 2% of request latency (docs/observability.md). Four pairs,
// each an uninstrumented (off) and an instrumented (on) arm of one scenario,
// in one process against one trained model per scenario:
//
//   obs         duplicate-heavy closed loop (64 clients on 8 distinct
//               4-window Diamond batches, cache off, so identical queries
//               coalesce through in-flight dedup), with and without the
//               obs::Observability bundle on the engine: traces, latency/
//               queue-wait/occupancy histograms, detector phase timers.
//   log_hot     the same loop; the on arm carries the bundle and also sends
//               every request through a CF_LOG_EVERY_N(kWarning, 256) site
//               into a null sink, so the limiter, record assembly, LogRing
//               and sink fan-out are measured rather than stderr I/O.
//   profiler    the same uninstrumented loop with the 97 Hz obs::Profiler
//               (the serve_cli default) armed in the on arm and not
//               installed in the off arm.
//   stream_obs  a stride-8 live replay through a WindowScheduler (cache
//               off, so every window computes), engine and scheduler with
//               and without the bundle.
//
// Every pair runs the same fixed number of rounds. A round runs both arms,
// in an order that alternates from round to round, and yields one ratio:
// the on arm's p50 latency over the off arm's. The overhead is the median
// ratio, and its 90% interval comes from 2000 fixed-seed bootstrap
// resamples of the per-round ratios. The verdict is "within" when the
// interval's upper end is at most +2%, "over" when its lower end is above
// +2%, and "unresolved" otherwise. Every verdict exits 0: on a shared host
// a 2% gate would flake.
//
// Results are printed as a table and written to BENCH_obs.json
// (docs/benchmarks.md). CF_FAST=1 runs a smoke-sized version.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/trainer.h"
#include "data/synthetic.h"
#include "data/windowing.h"
#include "obs/observability.h"
#include "obs/profiler.h"
#include "serve/inference_engine.h"
#include "stream/window_scheduler.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table.h"

namespace cf = causalformer;

namespace {

constexpr double kBudgetPct = 2.0;
constexpr int kBootstrapResamples = 2000;
constexpr uint64_t kBootstrapSeed = 20;

// Nearest-rank percentile; p = 0.5 is the median (the upper middle value
// for an even count).
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(idx, values.size() - 1)];
}

struct PairResult {
  std::string name;
  std::string scenario;
  std::vector<double> off_p50_ms;  // per round
  std::vector<double> on_p50_ms;   // per round
  double median_pct = 0;
  double ci_lo_pct = 0;
  double ci_hi_pct = 0;
  const char* verdict = "";
};

// Runs `rounds` rounds of the pair, alternating which arm goes first. `arm`
// runs one arm (instrumented when its argument is true) and returns its p50
// latency in milliseconds.
PairResult RunPair(const std::string& name, const std::string& scenario,
                   int rounds, const std::function<double(bool)>& arm) {
  PairResult pair;
  pair.name = name;
  pair.scenario = scenario;
  std::vector<double> ratios;
  for (int round = 0; round < rounds; ++round) {
    const bool on_first = round % 2 != 0;
    double off_ms = 0, on_ms = 0;
    for (const bool on : {on_first, !on_first}) (on ? on_ms : off_ms) = arm(on);
    pair.off_p50_ms.push_back(off_ms);
    pair.on_p50_ms.push_back(on_ms);
    ratios.push_back(on_ms / off_ms);
    std::fprintf(stderr, "  [%s round %d] off p50=%.3fms on p50=%.3fms\n",
                 name.c_str(), round + 1, off_ms, on_ms);
  }

  cf::Rng rng(kBootstrapSeed);
  std::vector<double> sample(ratios.size());
  std::vector<double> medians;
  medians.reserve(kBootstrapResamples);
  for (int b = 0; b < kBootstrapResamples; ++b) {
    for (double& x : sample) {
      x = ratios[static_cast<size_t>(
          rng.UniformInt(static_cast<int64_t>(ratios.size())))];
    }
    medians.push_back(Percentile(sample, 0.50));
  }
  pair.median_pct = (Percentile(ratios, 0.50) - 1.0) * 100.0;
  pair.ci_lo_pct = (Percentile(medians, 0.05) - 1.0) * 100.0;
  pair.ci_hi_pct = (Percentile(medians, 0.95) - 1.0) * 100.0;
  pair.verdict = pair.ci_hi_pct <= kBudgetPct  ? "within"
                 : pair.ci_lo_pct > kBudgetPct ? "over"
                                               : "unresolved";
  return pair;
}

// Swallows records so the log-hot arm measures the logging pipeline
// (limiter, record assembly, LogRing, sink fan-out), not stderr I/O.
class NullLogSink : public cf::LogSink {
 public:
  void Send(const cf::LogRecord&) override {}
};

// Duplicate-heavy closed loop: `concurrency` clients all hammer the same
// `batches` working set with the cache disabled, so at any instant many
// in-flight queries are content-identical and coalesce through dedup.
// Returns the p50 request latency in milliseconds.
double RunDuplicateHeavy(cf::serve::ModelRegistry* registry,
                         const std::vector<cf::Tensor>& batches,
                         int concurrency, int total_queries,
                         cf::obs::Observability* obs, bool log_hot) {
  cf::serve::EngineOptions eopts;
  eopts.cache_capacity = 0;  // no after-the-fact caching
  eopts.obs = obs;
  cf::serve::InferenceEngine engine(registry, eopts);

  std::atomic<int> next{0};
  std::mutex mu;
  std::vector<double> latencies;
  latencies.reserve(static_cast<size_t>(total_queries));

  std::vector<std::thread> clients;
  for (int c = 0; c < concurrency; ++c) {
    clients.emplace_back([&] {
      std::vector<double> local;
      for (int i = next.fetch_add(1); i < total_queries;
           i = next.fetch_add(1)) {
        cf::serve::DiscoveryRequest request;
        request.model = "bench";
        request.windows = batches[static_cast<size_t>(i) % batches.size()];
        cf::Stopwatch timer;
        const auto response = engine.Discover(std::move(request));
        if (!response.status.ok()) std::abort();
        if (log_hot) {
          CF_LOG_EVERY_N(kWarning, 256)
              << "bench: duplicate-heavy request"
              << cf::LogKV("index", i)
              << cf::LogKV("distinct", static_cast<int>(batches.size()));
        }
        local.push_back(timer.ElapsedSeconds());
      }
      std::lock_guard<std::mutex> lock(mu);
      latencies.insert(latencies.end(), local.begin(), local.end());
    });
  }
  for (auto& c : clients) c.join();
  return Percentile(latencies, 0.50) * 1e3;
}

// Replays `series` through a named stream, one stride per append, measuring
// closed-loop append→graph latency (Flush after each append so the window
// completes before the clock stops) into `latencies`.
void Replay(cf::stream::WindowScheduler* scheduler, const std::string& name,
            const cf::Tensor& series, int64_t window, int64_t stride,
            std::vector<double>* latencies) {
  const int64_t length = series.dim(1);
  for (int64_t t = 0; t < length; t += stride) {
    const int64_t k = std::min(stride, length - t);
    const cf::Tensor samples = cf::Slice(series, 1, t, t + k).Detach();
    cf::Stopwatch timer;
    const auto stats = scheduler->Append(name, samples);
    if (!stats.ok()) std::abort();
    scheduler->Flush();
    // Only appends that completed a window measure the detection path.
    if (t + k >= window) latencies->push_back(timer.ElapsedSeconds());
  }
}

// One small model trained on `dataset`, registered as `name`.
void TrainAndRegister(cf::serve::ModelRegistry* registry,
                      const std::string& name,
                      const cf::data::Dataset& dataset,
                      int64_t window, bool fast, cf::Rng* rng) {
  cf::core::ModelOptions mopt;
  mopt.num_series = dataset.num_series();
  mopt.window = window;
  mopt.d_model = 16;
  mopt.d_qk = 16;
  mopt.heads = 2;
  mopt.d_ffn = 16;
  auto model = std::make_unique<cf::core::CausalityTransformer>(mopt, rng);
  cf::core::TrainOptions topt;
  topt.max_epochs = fast ? 2 : 5;
  topt.stride = 2;
  TrainCausalityTransformer(model.get(), dataset.series, topt, rng, nullptr);
  if (!registry->Register(name, std::move(model)).ok()) std::abort();
}

}  // namespace

int main() {
  const bool fast = std::getenv("CF_FAST") != nullptr;
  // Sized so a full run takes about three minutes on a 4-core host.
  const int rounds = fast ? 10 : 240;
  const int64_t window = 8;

  // Duplicate-heavy scenario: Diamond N=4, 8 distinct 4-window batches.
  const int dup_conns = fast ? 16 : 64;
  // Dedup-on runs of a few hundred queries finish in tens of milliseconds,
  // which a 64-thread spawn/join would dominate; each arm runs long enough
  // that steady-state latency is what gets measured.
  const int dup_queries = fast ? 1600 : 6000;
  // Stream scenario: Mediator, replayed at stride 8, several passes into one
  // continuous stream so each arm measures steady state, not startup.
  const int samples = fast ? 96 : 240;
  const int stream_passes = fast ? 2 : 8;
  const int64_t stream_stride = 8;

  std::printf("observability overhead benchmark: %d rounds per pair, "
              "budget %.0f%%\n",
              rounds, kBudgetPct);

  cf::serve::ModelRegistry registry;
  cf::Rng dup_rng(99);
  cf::data::SyntheticOptions dup_data;
  dup_data.length = 400;
  const auto diamond = GenerateSynthetic(
      cf::data::SyntheticStructure::kDiamond, dup_data, &dup_rng);
  TrainAndRegister(&registry, "bench", diamond, window, fast, &dup_rng);
  cf::Rng stream_rng(2026);
  cf::data::SyntheticOptions stream_data;
  stream_data.length = samples;
  const auto mediator = GenerateSynthetic(
      cf::data::SyntheticStructure::kMediator, stream_data, &stream_rng);
  TrainAndRegister(&registry, "stream", mediator, window, fast, &stream_rng);

  const cf::Tensor windows = cf::data::MakeWindows(diamond.series, window, 1);
  std::vector<cf::Tensor> batches;
  for (int i = 0; i < 8; ++i) {
    std::vector<int64_t> idx;
    for (int64_t k = 0; k < 4; ++k) {
      idx.push_back((i * 11 + k * 5) % windows.dim(0));
    }
    batches.push_back(cf::data::GatherWindows(windows, idx));
  }

  const std::string dup_scenario = cf::StrFormat(
      "duplicate_heavy: %d clients, 8 distinct 4-window batches, "
      "%d queries, cache off",
      dup_conns, dup_queries);
  std::vector<PairResult> pairs;

  {
    cf::obs::Observability obs;
    pairs.push_back(RunPair("obs", dup_scenario, rounds, [&](bool on) {
      return RunDuplicateHeavy(&registry, batches, dup_conns, dup_queries,
                               on ? &obs : nullptr, /*log_hot=*/false);
    }));
  }

  {
    cf::obs::Observability obs;
    NullLogSink null_sink;
    cf::AddLogSink(&null_sink);
    pairs.push_back(RunPair("log_hot", dup_scenario, rounds, [&](bool on) {
      return RunDuplicateHeavy(&registry, batches, dup_conns, dup_queries,
                               on ? &obs : nullptr, /*log_hot=*/on);
    }));
    cf::RemoveLogSink(&null_sink);
  }

  {
    cf::obs::Profiler profiler;
    pairs.push_back(RunPair("profiler", dup_scenario, rounds, [&](bool on) {
      if (on) {
        const cf::Status st = profiler.Start();
        if (!st.ok()) {
          std::fprintf(stderr, "profiler start failed: %s\n",
                       st.ToString().c_str());
          std::exit(1);
        }
      }
      const double p50_ms = RunDuplicateHeavy(
          &registry, batches, dup_conns, dup_queries, nullptr, false);
      if (on) {
        (void)profiler.Stop();
        profiler.Clear();
      }
      return p50_ms;
    }));
  }

  {
    cf::obs::Observability obs;
    const std::string scenario = cf::StrFormat(
        "stream_replay: Mediator N=3, window 8, stride 8, %d samples x %d "
        "passes, cache off",
        samples, stream_passes);
    pairs.push_back(RunPair("stream_obs", scenario, rounds, [&](bool on) {
      cf::serve::EngineOptions eopts;
      eopts.cache_capacity = 0;
      eopts.obs = on ? &obs : nullptr;
      cf::serve::InferenceEngine engine(&registry, eopts);
      cf::stream::WindowScheduler scheduler(&engine, on ? &obs : nullptr);
      cf::stream::StreamConfig config;
      config.model = "stream";
      config.stride = stream_stride;
      config.history = samples;
      const std::string name = on ? "obs_on" : "obs_off";
      if (!scheduler.Open(name, config).ok()) std::abort();
      std::vector<double> latencies;
      for (int pass = 0; pass < stream_passes; ++pass) {
        Replay(&scheduler, name, mediator.series, window, stream_stride,
               &latencies);
      }
      return Percentile(latencies, 0.50) * 1e3;
    }));
  }

  cf::Table table({"pair", "off p50 ms (median)", "on p50 ms (median)",
                   "overhead %", "90% interval %", "verdict"});
  for (const auto& p : pairs) {
    table.AddRow({p.name, cf::StrFormat("%.3f", Percentile(p.off_p50_ms, 0.50)),
                  cf::StrFormat("%.3f", Percentile(p.on_p50_ms, 0.50)),
                  cf::StrFormat("%+.2f", p.median_pct),
                  cf::StrFormat("[%+.2f, %+.2f]", p.ci_lo_pct, p.ci_hi_pct),
                  p.verdict});
  }
  std::printf("%s\n", table.ToString().c_str());

  FILE* json = std::fopen("BENCH_obs.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_obs.json\n");
    return 1;
  }
  const auto print_array = [json](const std::vector<double>& values) {
    std::fprintf(json, "[");
    for (size_t i = 0; i < values.size(); ++i) {
      std::fprintf(json, "%s%.4f", i ? ", " : "", values[i]);
    }
    std::fprintf(json, "]");
  };
  std::fprintf(json,
               "{\n  \"bench\": \"obs_overhead\",\n  \"budget_pct\": %.0f,\n"
               "  \"rounds\": %d,\n  \"pairs\": [\n",
               kBudgetPct, rounds);
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto& p = pairs[i];
    std::fprintf(json, "    {\"name\": \"%s\", \"scenario\": \"%s\",\n",
                 p.name.c_str(), p.scenario.c_str());
    std::fprintf(json, "     \"off_p50_ms\": ");
    print_array(p.off_p50_ms);
    std::fprintf(json, ",\n     \"on_p50_ms\": ");
    print_array(p.on_p50_ms);
    std::fprintf(json,
                 ",\n     \"median_pct\": %.3f, \"ci90_pct\": [%.3f, %.3f], "
                 "\"verdict\": \"%s\"}%s\n",
                 p.median_pct, p.ci_lo_pct, p.ci_hi_pct, p.verdict,
                 i + 1 < pairs.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_obs.json\n");
  return 0;
}

// serve_cli — the causal-discovery inference service driver.
//
// Demonstrates the full serving workflow (checkpoint -> registry -> queries),
// both in-process and over the TCP wire protocol (docs/wire-protocol.md).
//
// Run: ./build/serve_cli --selftest          (after cmake --build build -j)
//
// Workflow:
//
//   # 1. Train a demo model and persist checkpoint + data:
//   serve_cli --train ck.cfpm
//
//   # 2a. Serve discovery queries in-process, from a replay file or
//   #     interactively from stdin:
//   serve_cli --checkpoint ck.cfpm --csv ck.cfpm.csv --replay queries.txt
//   echo "q 0 16" | serve_cli --checkpoint ck.cfpm --csv ck.cfpm.csv
//
//   # 2b. Or serve the same engine over TCP and query it across the wire
//   #     (unrelated connections coalesce into micro-batches server-side):
//   serve_cli serve --port 7071 --checkpoint ck.cfpm
//   echo "q 0 16" | serve_cli query --connect 127.0.0.1:7071 --csv ck.cfpm.csv
//
//   # 2c. Or replay a CSV as a live stream against that server: samples are
//   #     appended in chunks, the server cuts sliding windows, detects them
//   #     through the micro-batcher, and streams back drift reports
//   #     (docs/streaming.md):
//   serve_cli stream --connect 127.0.0.1:7071 --csv ck.cfpm.csv --stride 2
//
//   # 2d. Observe the server: one-shot metrics scrape (Prometheus-style
//   #     text exposition + per-histogram p50/p90/p99) or a live top-style
//   #     refresh (docs/observability.md):
//   serve_cli metrics --connect 127.0.0.1:7071
//   serve_cli top --connect 127.0.0.1:7071 --watch --interval 2
//
//   # 2e. Diagnose the server: `kill -USR1 <pid>` dumps a flight-recorder
//   #     bundle (log tail, metrics, chrome-trace JSON, engine state) to
//   #     --dump-dir; the same bundle is fetched remotely over the v5 Dump
//   #     frame, and `trace` exports the trace ring for ui.perfetto.dev:
//   serve_cli dump --connect 127.0.0.1:7071 --out bundle/
//   serve_cli trace --connect 127.0.0.1:7071 --last 10
//   serve_cli trace --connect 127.0.0.1:7071 --json > trace.json
//
//   # 2f. Profile the server: cut a timed window out of its continuous
//   #     sampling profiler as folded stacks (flamegraph.pl / speedscope)
//   #     or chrome-trace JSON (docs/observability.md):
//   serve_cli profile --connect 127.0.0.1:7071 --seconds 2 > prof.folded
//   serve_cli profile --connect 127.0.0.1:7071 --json --out prof.json
//
//   Query language (one command per line, serve/query modes):
//     q <start> <count>   discover on `count` windows starting at row <start>
//     models              list registered models
//     stats               engine/cache/batcher (and wire server) counters
//     metrics             latency histogram quantiles (query mode only)
//     ping                wire liveness round-trip (query mode only)
//     quit                exit
//
//   # 3. Acceptance self-test: trains, checkpoints, reloads through the
//   #    registry and answers >= 100 concurrent queries with batched
//   #    execution, verifying (a) batched == sequential element-wise and
//   #    (b) a cached repeat query is >= 10x faster than a cold one:
//   serve_cli --selftest
//
// Model-architecture flags (--series/--window/--d_model/--d_qk/--heads/
// --d_ffn) must match the checkpoint; the --train defaults are the serve
// defaults, so the pair works out of the box. `query` mode needs no model
// flags: it reads the geometry from the server's Stats frame.

#include <poll.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/trainer.h"
#include "data/synthetic.h"
#include "data/windowing.h"
#include "nn/serialize.h"
#include "obs/flight_recorder.h"
#include "obs/observability.h"
#include "obs/process_metrics.h"
#include "obs/profiler.h"
#include "serve/client.h"
#include "serve/inference_engine.h"
#include "serve/server.h"
#include "stream/window_scheduler.h"
#include "tensor/allocator.h"
#include "util/csv.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace cf = causalformer;

namespace {

struct CliOptions {
  // "train", "serve", "selftest", "netserve", "query", "stream", "metrics",
  // "top", "dump", "trace" or "profile".
  std::string mode;
  std::string checkpoint;
  std::string csv;
  std::string replay;
  std::string connect;     // query/stream modes: host:port
  std::string model_name = "default";  // registry name to query/stream against
  std::string stream_name = "cli";     // stream mode: server-side stream name
  int port = 0;            // netserve mode: listen port (0 = ephemeral)
  bool allow_admin = true; // netserve mode: accept LoadModel/UnloadModel
  int queries = 120;  // selftest query count
  int64_t stride = 1;  // stream mode: samples between detection windows
  int64_t chunk = 0;   // stream mode: samples per append (0 = stride)
  bool watch = false;      // top mode: refresh until interrupted
  int64_t interval = 2;    // top mode: seconds between refreshes
  // netserve: requests slower than this log one structured warning line
  // with the full span/phase breakdown (0 disables).
  double slow_request = 0.0;
  // serve/netserve: score-cache max age. Dead streams' and one-off queries'
  // cached windows age out even when LRU capacity is never reached; 0
  // disables expiry.
  double cache_ttl = 900.0;
  // netserve: flight-recorder bundles land here (SIGUSR1 / CF_CHECK /
  // slow-request triggers).
  std::string dump_dir = "cf_dumps";
  // dump mode: write the fetched bundle files into this directory instead
  // of printing a summary to stdout (empty = print).
  std::string out_dir;
  int64_t last = 20;   // trace mode: print the newest N traces
  bool json = false;   // trace/profile modes: emit chrome-trace JSON
  bool folded = false;     // profile mode: force folded-stack text output
  int64_t seconds = 2;     // profile mode: sampling window length
  cf::core::ModelOptions model;
  cf::core::DetectorOptions detector;

  CliOptions() {
    model.num_series = 3;
    model.window = 8;
    model.d_model = 16;
    model.d_qk = 16;
    model.heads = 2;
    model.d_ffn = 16;
  }
};

void Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  serve_cli --train <out.cfpm> [--csv data.csv] [model flags]\n"
               "  serve_cli --checkpoint <ck.cfpm> --csv <data.csv> "
               "[--replay <queries.txt>] [model flags]\n"
               "  serve_cli serve --port <N> --checkpoint <ck.cfpm> "
               "[--no-admin] [--cache-ttl SECONDS] "
               "[--slow-request MS] [--dump-dir DIR] [model flags]\n"
               "  serve_cli query --connect <host:port> --csv <data.csv> "
               "[--replay <queries.txt>] [--model name]\n"
               "  serve_cli stream --connect <host:port> --csv <data.csv> "
               "[--stream name] [--model name] [--stride S] [--chunk K]\n"
               "  serve_cli metrics --connect <host:port>\n"
               "  serve_cli top --connect <host:port> [--watch] "
               "[--interval SECONDS]\n"
               "  serve_cli dump --connect <host:port> [--out DIR]\n"
               "  serve_cli trace --connect <host:port> [--last N] [--json]\n"
               "  serve_cli profile --connect <host:port> [--seconds N] "
               "[--folded|--json] [--out FILE]\n"
               "  serve_cli --selftest [--queries N]\n"
               "model flags: --series N --window T --d_model D --d_qk D "
               "--heads H --d_ffn D\n");
}

bool ParseArgs(int argc, char** argv, CliOptions* opts) {
  int i = 1;
  if (argc > 1 && argv[1][0] != '-') {
    const std::string sub = argv[1];
    if (sub == "serve") {
      opts->mode = "netserve";
    } else if (sub == "query") {
      opts->mode = "query";
    } else if (sub == "stream") {
      opts->mode = "stream";
    } else if (sub == "metrics") {
      opts->mode = "metrics";
    } else if (sub == "top") {
      opts->mode = "top";
    } else if (sub == "dump") {
      opts->mode = "dump";
    } else if (sub == "trace") {
      opts->mode = "trace";
    } else if (sub == "profile") {
      opts->mode = "profile";
    } else {
      std::fprintf(stderr, "unknown subcommand: %s\n", sub.c_str());
      return false;
    }
    i = 2;
  }
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](int64_t* out) {
      if (i + 1 >= argc) return false;
      *out = std::atoll(argv[++i]);
      return true;
    };
    if (arg == "--train" && i + 1 < argc) {
      opts->mode = "train";
      opts->checkpoint = argv[++i];
    } else if (arg == "--checkpoint" && i + 1 < argc) {
      if (opts->mode.empty()) opts->mode = "serve";
      opts->checkpoint = argv[++i];
    } else if (arg == "--csv" && i + 1 < argc) {
      opts->csv = argv[++i];
    } else if (arg == "--replay" && i + 1 < argc) {
      opts->replay = argv[++i];
    } else if (arg == "--connect" && i + 1 < argc) {
      opts->connect = argv[++i];
    } else if (arg == "--model" && i + 1 < argc) {
      opts->model_name = argv[++i];
    } else if (arg == "--stream" && i + 1 < argc) {
      opts->stream_name = argv[++i];
    } else if (arg == "--stride") {
      if (!next(&opts->stride) || opts->stride < 1) return false;
    } else if (arg == "--chunk") {
      if (!next(&opts->chunk) || opts->chunk < 1) return false;
    } else if (arg == "--cache-ttl") {
      int64_t v;
      if (!next(&v) || v < 0) return false;
      opts->cache_ttl = static_cast<double>(v);
    } else if (arg == "--port") {
      int64_t v;
      if (!next(&v) || v < 0 || v > 65535) return false;
      opts->port = static_cast<int>(v);
    } else if (arg == "--no-admin") {
      opts->allow_admin = false;
    } else if (arg == "--dump-dir" && i + 1 < argc) {
      opts->dump_dir = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      opts->out_dir = argv[++i];
    } else if (arg == "--last") {
      if (!next(&opts->last) || opts->last < 1) return false;
    } else if (arg == "--json") {
      opts->json = true;
    } else if (arg == "--folded") {
      opts->folded = true;
    } else if (arg == "--seconds") {
      if (!next(&opts->seconds) || opts->seconds < 1 || opts->seconds > 60) {
        return false;
      }
    } else if (arg == "--watch") {
      opts->watch = true;
    } else if (arg == "--interval") {
      if (!next(&opts->interval) || opts->interval < 1) return false;
    } else if (arg == "--slow-request") {
      int64_t v;
      if (!next(&v) || v < 0) return false;
      opts->slow_request = static_cast<double>(v) * 1e-3;  // milliseconds
    } else if (arg == "--selftest") {
      opts->mode = "selftest";
    } else if (arg == "--queries") {
      int64_t v;
      if (!next(&v)) return false;
      opts->queries = static_cast<int>(v);
    } else if (arg == "--series") {
      if (!next(&opts->model.num_series)) return false;
    } else if (arg == "--window") {
      if (!next(&opts->model.window)) return false;
    } else if (arg == "--d_model") {
      if (!next(&opts->model.d_model)) return false;
    } else if (arg == "--d_qk") {
      if (!next(&opts->model.d_qk)) return false;
    } else if (arg == "--heads") {
      if (!next(&opts->model.heads)) return false;
    } else if (arg == "--d_ffn") {
      if (!next(&opts->model.d_ffn)) return false;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  if (opts->mode == "netserve" && opts->checkpoint.empty()) {
    std::fprintf(stderr, "serve mode needs --checkpoint\n");
    return false;
  }
  if ((opts->mode == "query" || opts->mode == "stream" ||
       opts->mode == "metrics" || opts->mode == "top" ||
       opts->mode == "dump" || opts->mode == "trace" ||
       opts->mode == "profile") &&
      opts->connect.empty()) {
    std::fprintf(stderr, "%s mode needs --connect host:port\n",
                 opts->mode.c_str());
    return false;
  }
  if (opts->mode == "stream" && opts->csv.empty()) {
    std::fprintf(stderr, "stream mode needs --csv data.csv\n");
    return false;
  }
  return !opts->mode.empty();
}

// Splits "host:port"; returns false on a malformed spec.
bool ParseHostPort(const std::string& spec, std::string* host, uint16_t* port) {
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == spec.size()) {
    return false;
  }
  const long value = std::atol(spec.c_str() + colon + 1);
  if (value < 1 || value > 65535) return false;
  *host = spec.substr(0, colon);
  *port = static_cast<uint16_t>(value);
  return true;
}

// Reads a CSV (rows = time steps, columns = series) into an [N, L] tensor.
cf::StatusOr<cf::Tensor> LoadSeriesCsv(const std::string& path) {
  auto rows = cf::ReadCsv(path, /*skip_header=*/false);
  if (!rows.ok()) return rows.status();
  if (rows->empty() || (*rows)[0].empty()) {
    return cf::Status::InvalidArgument("empty csv: " + path);
  }
  const int64_t length = static_cast<int64_t>(rows->size());
  const int64_t n = static_cast<int64_t>((*rows)[0].size());
  cf::Tensor series = cf::Tensor::Zeros(cf::Shape{n, length});
  float* p = series.data();
  for (int64_t t = 0; t < length; ++t) {
    const auto& row = (*rows)[static_cast<size_t>(t)];
    if (static_cast<int64_t>(row.size()) != n) {
      return cf::Status::InvalidArgument("ragged csv row " + std::to_string(t));
    }
    for (int64_t j = 0; j < n; ++j) {
      p[j * length + t] = static_cast<float>(row[static_cast<size_t>(j)]);
    }
  }
  return series;
}

int RunTrain(const CliOptions& opts) {
  cf::Rng rng(2025);
  cf::Tensor series;
  if (!opts.csv.empty()) {
    auto loaded = LoadSeriesCsv(opts.csv);
    if (!loaded.ok()) {
      CF_LOG(kError) << "csv: " << loaded.status().ToString();
      return 1;
    }
    series = *loaded;
  } else {
    cf::data::SyntheticOptions data_opt;
    data_opt.length = 400;
    const auto dataset = GenerateSynthetic(
        cf::data::SyntheticStructure::kMediator, data_opt, &rng);
    series = dataset.series;
    std::printf("synthetic ground truth: %s\n", dataset.truth.ToString().c_str());
  }

  cf::core::ModelOptions mopt = opts.model;
  mopt.num_series = series.dim(0);
  cf::core::CausalityTransformer model(mopt, &rng);
  cf::core::TrainOptions topt;
  topt.max_epochs = 20;
  topt.stride = 2;
  const auto report =
      TrainCausalityTransformer(&model, series, topt, &rng, nullptr);
  std::printf("trained %d epochs, final loss %.4f\n", report.epochs_run,
              report.final_train_loss);

  cf::Status st = SaveParameters(model, opts.checkpoint);
  if (!st.ok()) {
    CF_LOG(kError) << "save: " << st.ToString();
    return 1;
  }
  std::printf("checkpoint -> %s (N=%lld, T=%lld)\n", opts.checkpoint.c_str(),
              static_cast<long long>(mopt.num_series),
              static_cast<long long>(mopt.window));

  // Persist the series alongside so serve mode has data to window.
  const std::string csv_out =
      opts.csv.empty() ? opts.checkpoint + ".csv" : opts.csv;
  if (opts.csv.empty()) {
    std::vector<std::vector<double>> rows(
        static_cast<size_t>(series.dim(1)),
        std::vector<double>(static_cast<size_t>(series.dim(0))));
    const float* p = series.data();
    for (int64_t j = 0; j < series.dim(0); ++j) {
      for (int64_t t = 0; t < series.dim(1); ++t) {
        rows[static_cast<size_t>(t)][static_cast<size_t>(j)] = p[j * series.dim(1) + t];
      }
    }
    st = cf::WriteCsv(csv_out, rows);
    if (!st.ok()) {
      CF_LOG(kError) << "csv save: " << st.ToString();
      return 1;
    }
    std::printf("series -> %s\n", csv_out.c_str());
  }
  return 0;
}

// Points *in at the replay file when one is given, else stdin. False (with
// a diagnostic) when the replay file cannot be opened.
bool OpenInput(const std::string& replay, std::ifstream* file,
               std::istream** in) {
  *in = &std::cin;
  if (replay.empty()) return true;
  file->open(replay);
  if (!*file) {
    CF_LOG(kError) << "cannot open replay file " << replay;
    return false;
  }
  *in = file;
  return true;
}

// Validates a `q <start> <count>` range against the loaded series and builds
// the [count, N, window] batch — shared by the in-process and wire modes so
// their query semantics cannot diverge.
cf::StatusOr<cf::Tensor> QueryWindows(const cf::Tensor& series, int64_t window,
                                      int64_t start, int64_t count) {
  if (count < 1 || start < 0 || start + window + count - 1 > series.dim(1)) {
    return cf::Status::InvalidArgument(
        "bad range (have L=" + std::to_string(series.dim(1)) +
        ", T=" + std::to_string(window) + ")");
  }
  const cf::Tensor span =
      cf::Slice(series, 1, start, start + window + count - 1);
  return cf::data::MakeWindows(span.Detach(), window, 1);
}

void PrintResponse(const std::string& tag,
                   const cf::serve::DiscoveryResponse& response) {
  if (!response.status.ok()) {
    std::printf("%s ERROR %s\n", tag.c_str(),
                response.status.ToString().c_str());
    return;
  }
  std::printf("%s edges=[%s] cache_hit=%d deduped=%d batch=%d "
              "latency=%.3fms\n",
              tag.c_str(), response.result->graph.ToString().c_str(),
              response.cache_hit ? 1 : 0, response.deduped ? 1 : 0,
              response.batch_size, response.latency_seconds * 1e3);
}

int RunServe(const CliOptions& opts) {
  auto loaded = LoadSeriesCsv(opts.csv);
  if (!loaded.ok()) {
    CF_LOG(kError) << "csv: " << loaded.status().ToString()
                   << " (use --csv; --train writes one)";
    return 1;
  }
  const cf::Tensor series = *loaded;

  cf::core::ModelOptions mopt = opts.model;
  mopt.num_series = series.dim(0);
  cf::serve::ModelRegistry registry;
  cf::Status st = registry.Load("default", opts.checkpoint, mopt);
  if (!st.ok()) {
    CF_LOG(kError) << "registry: " << st.ToString();
    return 1;
  }
  cf::serve::EngineOptions eopts;
  eopts.cache_ttl_seconds = opts.cache_ttl;
  cf::serve::InferenceEngine engine(&registry, eopts);
  std::printf("loaded '%s' (%lld params) — serving; N=%lld T=%lld L=%lld\n",
              opts.checkpoint.c_str(),
              static_cast<long long>(registry.List()[0].num_parameters),
              static_cast<long long>(mopt.num_series),
              static_cast<long long>(mopt.window),
              static_cast<long long>(series.dim(1)));

  std::ifstream replay_file;
  std::istream* in = nullptr;
  if (!OpenInput(opts.replay, &replay_file, &in)) return 1;

  // Pipelined submission: every `q` line is submitted immediately so
  // back-to-back queries coalesce into micro-batches; answers print in order.
  std::vector<std::pair<std::string, std::future<cf::serve::DiscoveryResponse>>>
      pending;
  auto drain = [&] {
    for (auto& [tag, future] : pending) PrintResponse(tag, future.get());
    pending.clear();
  };

  std::string line;
  int64_t query_no = 0;
  while (std::getline(*in, line)) {
    std::istringstream tokens(cf::StrTrim(line));
    std::string cmd;
    tokens >> cmd;
    if (cmd.empty() || cmd[0] == '#') continue;
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "models") {
      drain();
      for (const auto& info : registry.List()) {
        std::printf("  %s: %lld params, checkpoint=%s\n", info.name.c_str(),
                    static_cast<long long>(info.num_parameters),
                    info.checkpoint_path.c_str());
      }
      continue;
    }
    if (cmd == "stats") {
      drain();
      const auto stats = engine.stats();
      const auto& cache = stats.cache;
      const auto& batch = stats.batcher;
      std::printf(
          "  cache: %llu hits / %llu misses, %zu/%zu entries, "
          "%llu expired\n"
          "  batcher: %llu requests, %llu batches (max %d), %llu coalesced, "
          "executors %d\n"
          "  dedup: %llu coalesced followers, %zu in flight\n",
          static_cast<unsigned long long>(cache.hits),
          static_cast<unsigned long long>(cache.misses), cache.size,
          cache.capacity,
          static_cast<unsigned long long>(cache.expirations),
          static_cast<unsigned long long>(batch.requests),
          static_cast<unsigned long long>(batch.batches), batch.max_batch,
          static_cast<unsigned long long>(batch.coalesced),
          batch.in_flight_limit,
          static_cast<unsigned long long>(cache.followers), cache.running);
      continue;
    }
    if (cmd == "q") {
      int64_t start = 0, count = 0;
      tokens >> start >> count;  // extraction failure leaves 0 0 -> rejected
      auto windows = QueryWindows(series, mopt.window, start, count);
      if (!windows.ok()) {
        std::printf("q%lld ERROR %s\n", static_cast<long long>(query_no),
                    windows.status().message().c_str());
        ++query_no;
        continue;
      }
      cf::serve::DiscoveryRequest request;
      request.model = "default";
      request.windows = std::move(windows).value();
      request.options = opts.detector;
      pending.emplace_back("q" + std::to_string(query_no),
                           engine.SubmitAsync(std::move(request)));
      ++query_no;
      continue;
    }
    std::printf("unknown command: %s\n", cmd.c_str());
  }
  drain();
  std::fflush(stdout);
  const auto batch = engine.batcher_stats();
  CF_LOG(kInfo) << "served " << query_no << " queries in " << batch.batches
                << " batches (max batch " << batch.max_batch << ")";
  return 0;
}

std::atomic<bool> g_interrupted{false};

// Self-pipe: the async-signal-safe end of signal handling. The handler may
// only touch sig_atomic_t flags and write(2) to the pipe (never allocate,
// lock, or log); the serving loop polls the read end and does the real work
// — dumping a bundle or shutting down — on its own thread.
int g_signal_pipe[2] = {-1, -1};
volatile std::sig_atomic_t g_got_terminate = 0;
volatile std::sig_atomic_t g_got_usr1 = 0;

void OnSignal(int) { g_interrupted = true; }

void OnServeSignal(int signum) {
  unsigned char byte;
  if (signum == SIGUSR1) {
    g_got_usr1 = 1;
    byte = 'U';
  } else {
    g_got_terminate = 1;
    g_interrupted = true;
    byte = 'T';
  }
  if (g_signal_pipe[1] >= 0) {
    // EAGAIN (pipe full) is fine: a byte is already pending, the poll loop
    // will drain it and read the flags.
    [[maybe_unused]] ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
  }
}

// sigaction over std::signal: BSD-reset semantics never un-install the
// handler after the first delivery, and SA_RESTART keeps unrelated
// syscalls from failing with EINTR.
void InstallSignalHandler(int signum, void (*handler)(int)) {
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = handler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  ::sigaction(signum, &action, nullptr);
}

// `serve --port N`: the same engine as RunServe, but behind the TCP wire
// protocol. Runs until stdin says "quit" (or closes and SIGINT/SIGTERM
// arrives). SIGUSR1 dumps a flight-recorder bundle to --dump-dir.
int RunNetServe(const CliOptions& opts) {
  cf::core::ModelOptions mopt = opts.model;
  cf::serve::ModelRegistry registry;
  cf::Status st = registry.Load("default", opts.checkpoint, mopt);
  if (!st.ok()) {
    CF_LOG(kError) << "registry: " << st.ToString();
    return 1;
  }
  // One observability bundle for the whole serving stack: the engine, wire
  // server and streaming scheduler all record into it, and clients scrape it
  // through the v4 Metrics frame (`serve_cli metrics --connect ...`).
  cf::obs::ObservabilityOptions oopts;
  oopts.slow_request_seconds = opts.slow_request;
  cf::obs::Observability obs(oopts);
  // Continuous in-process sampling profiler: started here and left running
  // for the server's lifetime, so `serve_cli profile --connect` can cut a
  // timed window out of it at any time and flight-recorder bundles carry a
  // profile.folded member (docs/observability.md). Declared before the
  // engine so it outlives every thread it samples.
  // Process-level resource gauges (cf_process_*): registered up front,
  // refreshed by the server on every kMetrics scrape.
  cf::obs::ProcessMetrics process_metrics(&obs.metrics());
  cf::obs::RegisterProfilingThread("cf-main");
  cf::obs::ProfilerOptions profopts;
  profopts.metrics = &obs.metrics();
  cf::obs::Profiler profiler(profopts);
  if (const cf::Status pst = profiler.Start(); !pst.ok()) {
    CF_LOG(kWarning) << "profiler disabled: " << pst.ToString();
  }
  // One engine (score table for cache and dedup, micro-batcher with the
  // default executor count) serves every Detect and stream.
  cf::serve::EngineOptions eopts;
  eopts.cache_ttl_seconds = opts.cache_ttl;
  eopts.obs = &obs;
  cf::serve::InferenceEngine engine(&registry, eopts);
  // The streaming scheduler shares the engine's micro-batcher and score
  // cache with one-shot Detect traffic and must outlive the server.
  cf::stream::WindowScheduler scheduler(&engine, &obs);

  // The flight recorder sees the whole stack: the obs bundle (logs,
  // metrics, traces) plus live engine/batcher/scheduler/server state.
  cf::obs::FlightRecorderOptions fropts;
  fropts.directory = opts.dump_dir;
  cf::obs::FlightRecorder recorder(&obs, fropts);
  recorder.AddStateProvider("engine", [&engine] {
    const auto s = engine.stats();
    std::string out;
    out += "cache: hits=" + std::to_string(s.cache.hits) +
           " misses=" + std::to_string(s.cache.misses) +
           " evictions=" + std::to_string(s.cache.evictions) +
           " expirations=" + std::to_string(s.cache.expirations) +
           " size=" + std::to_string(s.cache.size) + "/" +
           std::to_string(s.cache.capacity) + "\n";
    out += "batcher: requests=" + std::to_string(s.batcher.requests) +
           " batches=" + std::to_string(s.batcher.batches) +
           " coalesced=" + std::to_string(s.batcher.coalesced) +
           " max_batch=" + std::to_string(s.batcher.max_batch) +
           " rejected=" + std::to_string(s.batcher.rejected) +
           " shape_buckets=" + std::to_string(s.batcher.shape_buckets) +
           " in_flight_limit=" + std::to_string(s.batcher.in_flight_limit) +
           "\n";
    out += "inflight: leaders=" + std::to_string(s.cache.leaders) +
           " hits=" + std::to_string(s.cache.followers) +
           " failed_fanins=" + std::to_string(s.cache.failed_fanins) +
           " open=" + std::to_string(s.cache.running) + "\n";
    const cf::ArenaTotals arenas = cf::TotalArenaStats();
    out += "arena: live=" + std::to_string(arenas.arenas) +
           " pooled_bytes=" + std::to_string(arenas.stats.pooled_bytes) +
           " outstanding=" + std::to_string(arenas.stats.outstanding) +
           " parent_allocs=" + std::to_string(arenas.stats.parent_allocs) +
           " parent_frees=" + std::to_string(arenas.stats.parent_frees) + "\n";
    return out;
  });
  recorder.AddStateProvider(
      "scheduler", [&scheduler] { return scheduler.DebugString(); });
  recorder.InstallCheckFailureDump();
  if (opts.slow_request > 0) recorder.ArmSlowRequestDump();
  recorder.set_profiler(&profiler);

  cf::serve::WireServerOptions sopts;
  sopts.port = static_cast<uint16_t>(opts.port);
  sopts.allow_admin = opts.allow_admin;
  sopts.stream_backend = &scheduler;
  sopts.obs = &obs;
  sopts.flight_recorder = &recorder;
  sopts.process_metrics = &process_metrics;
  sopts.profiler = &profiler;
  cf::serve::WireServer server(&engine, sopts);
  st = server.Start();
  if (!st.ok()) {
    CF_LOG(kError) << "server: " << st.ToString();
    return 1;
  }
  recorder.AddStateProvider("server", [&server] {
    const auto s = server.stats();
    return "connections_accepted=" + std::to_string(s.connections_accepted) +
           " frames=" + std::to_string(s.frames) +
           " wire_errors=" + std::to_string(s.wire_errors) + "\n";
  });
  if (::pipe(g_signal_pipe) != 0) {
    CF_LOG(kError) << "pipe: " << std::strerror(errno);
    return 1;
  }
  InstallSignalHandler(SIGINT, OnServeSignal);
  InstallSignalHandler(SIGTERM, OnServeSignal);
  InstallSignalHandler(SIGUSR1, OnServeSignal);
  std::printf(
      "serving '%s' on port %u (N=%lld, T=%lld, streaming on)%s\n",
      opts.checkpoint.c_str(), server.port(),
      static_cast<long long>(mopt.num_series),
      static_cast<long long>(mopt.window),
      opts.allow_admin ? "" : " [admin frames disabled]");
  std::fflush(stdout);

  // The serving loop: poll stdin (interactive "quit") and the self-pipe
  // (signals). All dump work happens here, never in the signal handler.
  bool stdin_open = true;
  std::string input;
  while (!g_interrupted) {
    struct pollfd fds[2];
    fds[0].fd = g_signal_pipe[0];
    fds[0].events = POLLIN;
    fds[0].revents = 0;
    fds[1].fd = stdin_open ? STDIN_FILENO : -1;
    fds[1].events = POLLIN;
    fds[1].revents = 0;
    if (::poll(fds, 2, 1000) < 0) {
      if (errno == EINTR) continue;
      CF_LOG(kError) << "poll: " << std::strerror(errno);
      break;
    }
    if (fds[0].revents & POLLIN) {
      // One read drains the pending notification bytes (POLLIN guarantees
      // at least one, so this never blocks); leftovers re-trigger poll.
      unsigned char drain[256];
      [[maybe_unused]] ssize_t n =
          ::read(g_signal_pipe[0], drain, sizeof(drain));
    }
    if (g_got_usr1) {
      g_got_usr1 = 0;
      auto path = recorder.DumpToDirectory();
      if (path.ok()) {
        CF_LOG(kInfo) << "SIGUSR1: flight-recorder bundle dumped"
                      << cf::LogKV("bundle", path->c_str());
        std::printf("dumped %s\n", path->c_str());
      } else {
        CF_LOG(kError) << "SIGUSR1 dump failed: " << path.status().ToString();
      }
      std::fflush(stdout);
    }
    if (g_got_terminate) break;
    if (stdin_open && (fds[1].revents & (POLLIN | POLLHUP))) {
      char buf[256];
      const ssize_t n = ::read(STDIN_FILENO, buf, sizeof(buf));
      if (n <= 0) {
        // stdin exhausted (e.g. started with </dev/null in the background):
        // keep serving until a signal arrives.
        stdin_open = false;
        continue;
      }
      input.append(buf, static_cast<size_t>(n));
      size_t newline;
      bool quit = false;
      while ((newline = input.find('\n')) != std::string::npos) {
        const std::string cmd = cf::StrTrim(input.substr(0, newline));
        input.erase(0, newline + 1);
        if (cmd == "quit" || cmd == "exit") {
          quit = true;
          break;
        }
        if (cmd.empty()) continue;
        std::printf("unknown command: %s (only 'quit' here; query over the "
                    "wire)\n", cmd.c_str());
        std::fflush(stdout);
      }
      if (quit) break;
    }
  }
  ::close(g_signal_pipe[0]);
  ::close(g_signal_pipe[1]);
  g_signal_pipe[0] = g_signal_pipe[1] = -1;
  const auto stats = server.stats();
  CF_LOG(kInfo) << "wire server: " << stats.connections_accepted
                << " connections, " << stats.frames << " frames, "
                << stats.wire_errors << " errors";
  return 0;
}

// Renders the per-histogram quantile rows of a Metrics response as an
// aligned table. Values are whatever unit the histogram records (seconds
// for latency series, batch items for occupancy).
void PrintHistogramTable(
    const std::vector<cf::serve::wire::HistogramSummaryMsg>& rows) {
  std::printf("  %-52s %10s %12s %12s %12s\n", "histogram", "count", "p50",
              "p90", "p99");
  for (const auto& row : rows) {
    std::printf("  %-52s %10llu %12.6g %12.6g %12.6g\n", row.name.c_str(),
                static_cast<unsigned long long>(row.count), row.p50, row.p90,
                row.p99);
  }
}

// `query --connect host:port`: the RunServe query language, but each `q`
// becomes a Detect frame against a remote serve_cli (or any WireServer).
int RunQuery(const CliOptions& opts) {
  std::string host;
  uint16_t port = 0;
  if (!ParseHostPort(opts.connect, &host, &port)) {
    CF_LOG(kError) << "bad --connect '" << opts.connect
                   << "' (want host:port)";
    return 1;
  }
  cf::serve::WireClient client;
  cf::Status st = client.Connect(host, port);
  if (!st.ok()) {
    CF_LOG(kError) << "connect: " << st.ToString();
    return 1;
  }

  // The model's window geometry comes from the server, not from flags.
  auto stats = client.Stats();
  if (!stats.ok()) {
    CF_LOG(kError) << "stats: " << stats.status().ToString();
    return 1;
  }
  int64_t num_series = 0, window = 0;
  for (const auto& model : stats->models) {
    if (model.name == opts.model_name) {
      num_series = model.num_series;
      window = model.window;
    }
  }
  if (window == 0) {
    CF_LOG(kError) << "server has no model '" << opts.model_name << "' ("
                   << stats->models.size() << " models registered)";
    return 1;
  }

  auto loaded = LoadSeriesCsv(opts.csv);
  if (!loaded.ok()) {
    CF_LOG(kError) << "csv: " << loaded.status().ToString()
                   << " (use --csv; --train writes one)";
    return 1;
  }
  const cf::Tensor series = *loaded;
  if (series.dim(0) != num_series) {
    CF_LOG(kError) << "csv has " << series.dim(0)
                   << " series, server model wants " << num_series;
    return 1;
  }
  std::printf("connected to %s:%u — model '%s' (N=%lld, T=%lld)\n",
              host.c_str(), port, opts.model_name.c_str(),
              static_cast<long long>(num_series),
              static_cast<long long>(window));

  std::ifstream replay_file;
  std::istream* in = nullptr;
  if (!OpenInput(opts.replay, &replay_file, &in)) return 1;

  std::string line;
  int64_t query_no = 0;
  while (std::getline(*in, line)) {
    std::istringstream tokens(cf::StrTrim(line));
    std::string cmd;
    tokens >> cmd;
    if (cmd.empty() || cmd[0] == '#') continue;
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "ping") {
      cf::Stopwatch timer;
      const auto pong = client.Ping(0xC0FFEEull + static_cast<uint64_t>(query_no));
      if (!pong.ok()) {
        std::printf("ping ERROR %s\n", pong.status().ToString().c_str());
      } else {
        std::printf("pong in %.3fms\n", timer.ElapsedSeconds() * 1e3);
      }
      continue;
    }
    if (cmd == "models") {
      const auto remote = client.Stats();
      if (!remote.ok()) {
        std::printf("models ERROR %s\n", remote.status().ToString().c_str());
        continue;
      }
      for (const auto& model : remote->models) {
        std::printf("  %s: %lld params, N=%lld T=%lld, generation %llu\n",
                    model.name.c_str(),
                    static_cast<long long>(model.num_parameters),
                    static_cast<long long>(model.num_series),
                    static_cast<long long>(model.window),
                    static_cast<unsigned long long>(model.generation));
      }
      continue;
    }
    if (cmd == "stats") {
      const auto remote = client.Stats();
      if (!remote.ok()) {
        std::printf("stats ERROR %s\n", remote.status().ToString().c_str());
        continue;
      }
      std::printf(
          "  cache: %llu hits / %llu misses, %llu/%llu entries, "
          "%llu expired\n"
          "  batcher: %llu requests, %llu batches (max %d), %llu coalesced, "
          "executors %d, %d buckets\n"
          "  dedup: %llu coalesced followers, %llu in flight\n"
          "  server: %llu connections, %llu frames, %llu wire errors\n",
          static_cast<unsigned long long>(remote->cache_hits),
          static_cast<unsigned long long>(remote->cache_misses),
          static_cast<unsigned long long>(remote->cache_size),
          static_cast<unsigned long long>(remote->cache_capacity),
          static_cast<unsigned long long>(remote->cache_expirations),
          static_cast<unsigned long long>(remote->batch_requests),
          static_cast<unsigned long long>(remote->batch_batches),
          remote->batch_max,
          static_cast<unsigned long long>(remote->batch_coalesced),
          remote->batch_in_flight_limit, remote->batch_shape_buckets,
          static_cast<unsigned long long>(remote->dedup_hits),
          static_cast<unsigned long long>(remote->dedup_in_flight),
          static_cast<unsigned long long>(remote->server_connections),
          static_cast<unsigned long long>(remote->server_frames),
          static_cast<unsigned long long>(remote->server_wire_errors));
      continue;
    }
    if (cmd == "metrics") {
      const auto metrics = client.Metrics();
      if (!metrics.ok()) {
        std::printf("metrics ERROR %s\n",
                    metrics.status().ToString().c_str());
        continue;
      }
      PrintHistogramTable(metrics->histograms);
      continue;
    }
    if (cmd == "q") {
      int64_t start = 0, count = 0;
      tokens >> start >> count;  // extraction failure leaves 0 0 -> rejected
      auto windows = QueryWindows(series, window, start, count);
      if (!windows.ok()) {
        std::printf("q%lld ERROR %s\n", static_cast<long long>(query_no),
                    windows.status().message().c_str());
        ++query_no;
        continue;
      }
      const std::string tag = "q" + std::to_string(query_no);
      const auto result =
          client.Detect(opts.model_name, *windows, opts.detector);
      if (!result.ok()) {
        std::printf("%s ERROR %s\n", tag.c_str(),
                    result.status().ToString().c_str());
      } else {
        std::printf("%s edges=[%s] cache_hit=%d deduped=%d batch=%d "
                    "latency=%.3fms\n",
                    tag.c_str(), result->result.graph.ToString().c_str(),
                    result->cache_hit ? 1 : 0, result->deduped ? 1 : 0,
                    result->batch_size, result->latency_seconds * 1e3);
      }
      ++query_no;
      continue;
    }
    std::printf("unknown command: %s\n", cmd.c_str());
  }
  std::fflush(stdout);
  CF_LOG(kInfo) << "sent " << query_no << " queries over the wire";
  return 0;
}

// Prints one completed-window report (`width` is the stream's window width,
// which the report addresses by start index only).
void PrintReport(const cf::serve::wire::StreamReportMsg& report,
                 int64_t width) {
  std::string edges;
  for (const auto& edge : report.edges) {
    if (!edges.empty()) edges += ", ";
    edges += "S" + std::to_string(edge.from) + "->S" +
             std::to_string(edge.to) + "(d=" + std::to_string(edge.delay) +
             ")";
  }
  std::printf("w#%llu [%lld,%lld) edges=[%s] cache_hit=%d deduped=%d "
              "batch=%d latency=%.3fms",
              static_cast<unsigned long long>(report.window_index),
              static_cast<long long>(report.window_start),
              static_cast<long long>(report.window_start + width),
              edges.c_str(), report.cache_hit ? 1 : 0,
              report.deduped ? 1 : 0, report.batch_size,
              report.latency_seconds * 1e3);
  if (report.has_baseline) {
    std::printf(" drift(+%d -%d ~%d jaccard=%.2f dmean=%.4g)%s%s",
                report.edges_added, report.edges_removed, report.delay_changes,
                report.jaccard, report.mean_abs_score_delta,
                report.drifted ? " DRIFTED" : "",
                report.regime_change ? " REGIME-CHANGE" : "");
  } else {
    std::printf(" baseline");
  }
  std::printf("\n");
}

// `stream --connect host:port --csv data.csv`: replays the CSV as a live
// stream. Samples are appended in chunks; the server cuts sliding windows,
// detects them through the shared micro-batcher, and hands back drift
// reports which are printed as they complete.
int RunStream(const CliOptions& opts) {
  std::string host;
  uint16_t port = 0;
  if (!ParseHostPort(opts.connect, &host, &port)) {
    CF_LOG(kError) << "bad --connect '" << opts.connect
                   << "' (want host:port)";
    return 1;
  }
  cf::serve::WireClient client;
  cf::Status st = client.Connect(host, port);
  if (!st.ok()) {
    CF_LOG(kError) << "connect: " << st.ToString();
    return 1;
  }

  auto loaded = LoadSeriesCsv(opts.csv);
  if (!loaded.ok()) {
    CF_LOG(kError) << "csv: " << loaded.status().ToString()
                   << " (use --csv; --train writes one)";
    return 1;
  }
  const cf::Tensor series = *loaded;
  const int64_t length = series.dim(1);

  cf::serve::wire::StreamOpenMsg open;
  open.stream = opts.stream_name;
  open.model = opts.model_name;
  open.stride = opts.stride;
  open.options = opts.detector;
  const auto opened = client.OpenStream(open);
  if (!opened.ok()) {
    CF_LOG(kError) << "stream open: " << opened.status().ToString();
    return 1;
  }
  std::printf("stream '%s' open on %s:%u — model '%s', window %lld, "
              "stride %lld, history %lld, replaying %lld samples\n",
              opts.stream_name.c_str(), host.c_str(), port,
              opts.model_name.c_str(), static_cast<long long>(opened->window),
              static_cast<long long>(opened->stride),
              static_cast<long long>(opened->history),
              static_cast<long long>(length));

  const int64_t chunk = opts.chunk > 0 ? opts.chunk : opts.stride;
  // Any failure below must still close the server-side stream, or a rerun
  // under the same --stream name answers "already exists".
  const auto bail = [&client, &opts] {
    (void)client.CloseStream(opts.stream_name);
    return 1;
  };
  uint64_t emitted = 0;
  uint64_t failed = 0;
  uint64_t reported = 0;
  uint64_t drifted = 0;
  uint64_t regime_changes = 0;
  uint64_t cache_hits = 0;
  uint64_t deduped = 0;
  auto drain = [&](uint32_t max_reports) -> bool {
    const auto reports = client.StreamReports(opts.stream_name, max_reports);
    if (!reports.ok()) {
      CF_LOG(kError) << "reports: " << reports.status().ToString();
      return false;
    }
    for (const auto& report : *reports) {
      PrintReport(report, opened->window);
      ++reported;
      if (report.cache_hit) ++cache_hits;
      if (report.deduped) ++deduped;
      if (report.drifted) ++drifted;
      if (report.regime_change) ++regime_changes;
    }
    return true;
  };

  for (int64_t t = 0; t < length; t += chunk) {
    const int64_t k = std::min(chunk, length - t);
    const cf::Tensor samples = cf::Slice(series, 1, t, t + k).Detach();
    const auto ack = client.AppendSamples(opts.stream_name, samples);
    if (!ack.ok()) {
      CF_LOG(kError) << "append: " << ack.status().ToString();
      return bail();
    }
    emitted = ack->windows_emitted;
    if (ack->windows_failed > failed) {
      CF_LOG(kWarning) << ack->windows_failed
                       << " windows failed server-side";
      failed = ack->windows_failed;
    }
    if (!drain(0)) return bail();
  }

  // Detections are asynchronous, and the append ack's emission counter is a
  // lower bound (windows past the in-flight debounce are emitted as slots
  // free up). Poll until the report flow dries up: everything emitted has
  // reported and nothing new arrived for a quiet period. Dropped windows
  // never report; a bounded deadline covers stuck servers.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  auto last_progress = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() < deadline) {
    const uint64_t before = reported;
    if (!drain(0)) return bail();
    const auto now = std::chrono::steady_clock::now();
    if (reported > before) last_progress = now;
    // Failed windows never report, so `reported >= emitted - failed` is the
    // strongest claim available; a longer quiet period covers failures past
    // the last ack's counter.
    if (reported + failed >= emitted &&
        now - last_progress > std::chrono::milliseconds(500)) {
      break;
    }
    if (now - last_progress > std::chrono::seconds(5)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  st = client.CloseStream(opts.stream_name);
  if (!st.ok()) {
    CF_LOG(kError) << "stream close: " << st.ToString();
    return 1;
  }
  std::fflush(stdout);
  // `emitted` is the last append ack's lifetime counter — windows emitted
  // after that ack (as in-flight slots freed) aren't in it, so report it as
  // a floor.
  CF_LOG(kInfo) << "streamed " << length << " samples -> >=" << emitted
                << " windows, " << reported << " reports (" << cache_hits
                << " cache hits, " << deduped << " deduped, " << drifted
                << " drifted, " << regime_changes << " regime changes, "
                << failed << " failed)";
  return reported > 0 ? 0 : 1;
}

// `metrics --connect host:port`: one-shot scrape of the server's metrics
// state over the v4 Metrics frame. Prints the Prometheus-style text
// exposition (counters, gauges, histogram buckets) followed by the
// pre-computed quantile table — scrape-friendly first, human-friendly after.
int RunMetrics(const CliOptions& opts) {
  std::string host;
  uint16_t port = 0;
  if (!ParseHostPort(opts.connect, &host, &port)) {
    CF_LOG(kError) << "bad --connect '" << opts.connect
                   << "' (want host:port)";
    return 1;
  }
  cf::serve::WireClient client;
  const cf::Status st = client.Connect(host, port);
  if (!st.ok()) {
    CF_LOG(kError) << "connect: " << st.ToString();
    return 1;
  }
  const auto metrics = client.Metrics();
  if (!metrics.ok()) {
    CF_LOG(kError) << "metrics: " << metrics.status().ToString();
    return 1;
  }
  std::fputs(metrics->text.c_str(), stdout);
  if (!metrics->histograms.empty()) {
    std::printf("\n");
    PrintHistogramTable(metrics->histograms);
  }
  std::fflush(stdout);
  return 0;
}

// `top --connect host:port [--watch]`: a compact live view of the serving
// pipeline — the request/queue/batch histograms plus the counter and gauge
// lines of the exposition (bucket detail elided). With --watch it refreshes
// every --interval seconds until interrupted.
int RunTop(const CliOptions& opts) {
  std::string host;
  uint16_t port = 0;
  if (!ParseHostPort(opts.connect, &host, &port)) {
    CF_LOG(kError) << "bad --connect '" << opts.connect
                   << "' (want host:port)";
    return 1;
  }
  cf::serve::WireClient client;
  const cf::Status st = client.Connect(host, port);
  if (!st.ok()) {
    CF_LOG(kError) << "connect: " << st.ToString();
    return 1;
  }
  if (opts.watch) {
    InstallSignalHandler(SIGINT, OnSignal);
    InstallSignalHandler(SIGTERM, OnSignal);
  }
  uint64_t refresh = 0;
  do {
    const auto metrics = client.Metrics();
    if (!metrics.ok()) {
      CF_LOG(kError) << "metrics: " << metrics.status().ToString();
      return 1;
    }
    if (opts.watch && refresh > 0) {
      std::printf("\x1b[H\x1b[2J");  // home + clear between refreshes
    }
    std::printf("serve_cli top — %s:%u (refresh %llu)\n", host.c_str(), port,
                static_cast<unsigned long long>(refresh));
    PrintHistogramTable(metrics->histograms);
    // Counter/gauge one-liners: every exposition sample line that is not a
    // histogram series (those carry _bucket/_sum/_count suffixes and are
    // already summarized above).
    std::printf("  counters:\n");
    std::istringstream lines(metrics->text);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.empty() || line[0] == '#') continue;
      const size_t name_end = line.find_first_of(" {");
      const std::string base = line.substr(0, name_end);
      auto ends_with = [&base](const char* suffix) {
        const size_t n = std::strlen(suffix);
        return base.size() >= n &&
               base.compare(base.size() - n, n, suffix) == 0;
      };
      if (ends_with("_bucket") || ends_with("_sum") || ends_with("_count")) {
        continue;
      }
      std::printf("    %s\n", line.c_str());
    }
    std::fflush(stdout);
    ++refresh;
    for (int64_t waited = 0;
         opts.watch && !g_interrupted && waited < opts.interval * 10;
         ++waited) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  } while (opts.watch && !g_interrupted);
  return 0;
}

// `dump --connect host:port [--out DIR]`: fetches the server's
// flight-recorder bundle over the v5 Dump frame. Without --out, prints a
// per-file summary plus state.txt and the log tail; with --out, writes
// every bundle file into DIR (created if missing) for offline analysis —
// the remote twin of `kill -USR1 <server>`.
int RunDump(const CliOptions& opts) {
  std::string host;
  uint16_t port = 0;
  if (!ParseHostPort(opts.connect, &host, &port)) {
    CF_LOG(kError) << "bad --connect '" << opts.connect
                   << "' (want host:port)";
    return 1;
  }
  cf::serve::WireClient client;
  const cf::Status st = client.Connect(host, port);
  if (!st.ok()) {
    CF_LOG(kError) << "connect: " << st.ToString();
    return 1;
  }
  const auto dump = client.Dump();
  if (!dump.ok()) {
    CF_LOG(kError) << "dump: " << dump.status().ToString();
    return 1;
  }
  if (!opts.out_dir.empty()) {
    if (::mkdir(opts.out_dir.c_str(), 0755) != 0 && errno != EEXIST) {
      CF_LOG(kError) << "mkdir " << opts.out_dir << ": "
                     << std::strerror(errno);
      return 1;
    }
    for (const auto& file : dump->files) {
      const std::string path = opts.out_dir + "/" + file.name;
      std::ofstream out(path, std::ios::binary);
      out.write(file.content.data(),
                static_cast<std::streamsize>(file.content.size()));
      if (!out) {
        CF_LOG(kError) << "write " << path << " failed";
        return 1;
      }
      std::printf("wrote %s (%zu bytes)\n", path.c_str(),
                  file.content.size());
    }
    std::fflush(stdout);
    return 0;
  }
  std::printf("bundle: %zu files\n", dump->files.size());
  for (const auto& file : dump->files) {
    std::printf("  %-12s %8zu bytes\n", file.name.c_str(),
                file.content.size());
  }
  for (const auto& file : dump->files) {
    if (file.name != "state.txt" && file.name != "logs.txt") continue;
    std::printf("\n---- %s ----\n", file.name.c_str());
    std::fputs(file.content.c_str(), stdout);
  }
  std::fflush(stdout);
  return 0;
}

// `trace --connect host:port [--last N] [--json]`: the server's trace ring.
// Text mode prints the newest N one-line trace summaries (traces.txt);
// --json emits the full chrome://tracing JSON (trace.json) on stdout, ready
// for `> trace.json` and loading into ui.perfetto.dev.
int RunTrace(const CliOptions& opts) {
  std::string host;
  uint16_t port = 0;
  if (!ParseHostPort(opts.connect, &host, &port)) {
    CF_LOG(kError) << "bad --connect '" << opts.connect
                   << "' (want host:port)";
    return 1;
  }
  cf::serve::WireClient client;
  const cf::Status st = client.Connect(host, port);
  if (!st.ok()) {
    CF_LOG(kError) << "connect: " << st.ToString();
    return 1;
  }
  const auto dump = client.Dump();
  if (!dump.ok()) {
    CF_LOG(kError) << "dump: " << dump.status().ToString();
    return 1;
  }
  const std::string want = opts.json ? "trace.json" : "traces.txt";
  for (const auto& file : dump->files) {
    if (file.name != want) continue;
    if (opts.json) {
      std::fputs(file.content.c_str(), stdout);
      std::fflush(stdout);
      return 0;
    }
    // Newest --last N lines (the ring is oldest-first).
    std::vector<std::string> lines;
    std::istringstream in(file.content);
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) lines.push_back(line);
    }
    const size_t keep = std::min<size_t>(
        lines.size(), static_cast<size_t>(opts.last));
    std::printf("%zu traces (showing newest %zu)\n", lines.size(), keep);
    for (size_t i = lines.size() - keep; i < lines.size(); ++i) {
      std::printf("  %s\n", lines[i].c_str());
    }
    std::fflush(stdout);
    return 0;
  }
  CF_LOG(kError) << "bundle has no " << want;
  return 1;
}

// `profile --connect host:port [--seconds N] [--folded|--json] [--out FILE]`:
// one timed window of the server's sampling profiler. Folded-stack text is
// the default (ready for flamegraph.pl / speedscope); --json emits the same
// samples as chrome://tracing JSON; --out writes to a file instead of
// stdout. The call blocks for the whole window.
int RunProfile(const CliOptions& opts) {
  std::string host;
  uint16_t port = 0;
  if (!ParseHostPort(opts.connect, &host, &port)) {
    CF_LOG(kError) << "bad --connect '" << opts.connect
                   << "' (want host:port)";
    return 1;
  }
  if (opts.folded && opts.json) {
    CF_LOG(kError) << "--folded and --json are mutually exclusive";
    return 1;
  }
  cf::serve::WireClient client;
  const cf::Status st = client.Connect(host, port);
  if (!st.ok()) {
    CF_LOG(kError) << "connect: " << st.ToString();
    return 1;
  }
  const auto profile = client.Profile(static_cast<uint32_t>(opts.seconds));
  if (!profile.ok()) {
    CF_LOG(kError) << "profile: " << profile.status().ToString();
    return 1;
  }
  const std::string& body = opts.json ? profile->json : profile->folded;
  std::fprintf(stderr, "profiled %llds: %llu samples, %llu dropped\n",
               static_cast<long long>(opts.seconds),
               static_cast<unsigned long long>(profile->samples),
               static_cast<unsigned long long>(profile->drops));
  if (!opts.out_dir.empty()) {
    std::ofstream out(opts.out_dir, std::ios::binary);
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
    if (!out) {
      CF_LOG(kError) << "write " << opts.out_dir << " failed";
      return 1;
    }
    std::printf("wrote %s (%zu bytes)\n", opts.out_dir.c_str(), body.size());
    std::fflush(stdout);
    return 0;
  }
  std::fputs(body.c_str(), stdout);
  std::fflush(stdout);
  return 0;
}

int RunSelfTest(const CliOptions& opts) {
  const int num_queries = opts.queries < 100 ? 100 : opts.queries;
  std::printf("[1/5] training demo model\n");
  cf::Rng rng(7);
  cf::data::SyntheticOptions data_opt;
  data_opt.length = 300;
  const auto dataset = GenerateSynthetic(cf::data::SyntheticStructure::kMediator,
                                         data_opt, &rng);
  cf::core::ModelOptions mopt = opts.model;
  mopt.num_series = dataset.num_series();
  cf::core::CausalityTransformer model(mopt, &rng);
  cf::core::TrainOptions topt;
  topt.max_epochs = 5;
  topt.stride = 2;
  TrainCausalityTransformer(&model, dataset.series, topt, &rng, nullptr);

  const std::string checkpoint = "serve_selftest.cfpm";
  cf::Status st = SaveParameters(model, checkpoint);
  if (!st.ok()) {
    CF_LOG(kError) << "save: " << st.ToString();
    return 1;
  }

  std::printf("[2/5] loading checkpoint through the registry\n");
  cf::serve::ModelRegistry registry;
  st = registry.Load("default", checkpoint, mopt);
  if (!st.ok()) {
    CF_LOG(kError) << "registry: " << st.ToString();
    return 1;
  }

  const cf::Tensor windows =
      cf::data::MakeWindows(dataset.series, mopt.window, 1);
  // A pool of distinct window batches, reused round-robin so the stream mixes
  // repeats (cacheable) and novel queries.
  constexpr int kDistinct = 24;
  std::vector<cf::Tensor> batches;
  for (int i = 0; i < kDistinct; ++i) {
    std::vector<int64_t> idx;
    for (int64_t k = 0; k < 4; ++k) {
      idx.push_back((i * 7 + k * 3) % windows.dim(0));
    }
    batches.push_back(cf::data::GatherWindows(windows, idx));
  }

  std::printf("[3/5] answering %d queries (batched, async)\n", num_queries);
  cf::serve::EngineOptions eopts;
  cf::serve::InferenceEngine engine(&registry, eopts);
  std::vector<std::future<cf::serve::DiscoveryResponse>> futures;
  cf::Stopwatch wall;
  for (int i = 0; i < num_queries; ++i) {
    cf::serve::DiscoveryRequest request;
    request.model = "default";
    request.windows = batches[static_cast<size_t>(i) % kDistinct];
    futures.push_back(engine.SubmitAsync(std::move(request)));
  }
  std::vector<cf::serve::DiscoveryResponse> responses;
  int max_batch = 0;
  int cache_hits = 0;
  for (auto& f : futures) {
    responses.push_back(f.get());
    if (!responses.back().status.ok()) {
      CF_LOG(kError) << "query failed: "
                     << responses.back().status.ToString();
      return 1;
    }
    max_batch = std::max(max_batch, responses.back().batch_size);
    cache_hits += responses.back().cache_hit ? 1 : 0;
  }
  const double elapsed = wall.ElapsedSeconds();
  std::printf("      %d queries in %.2fs (%.1f req/s), max batch %d, "
              "%d cache hits\n",
              num_queries, elapsed, num_queries / elapsed, max_batch,
              cache_hits);
  if (max_batch < 2) {
    CF_LOG(kError) << "FAIL: no micro-batching observed";
    return 1;
  }

  std::printf("[4/5] verifying batched == sequential (element-wise)\n");
  // A second engine with caching off answers one request at a time.
  cf::serve::EngineOptions solo_opts;
  solo_opts.cache_capacity = 0;
  cf::serve::InferenceEngine solo(&registry, solo_opts);
  for (int i = 0; i < kDistinct; ++i) {
    cf::serve::DiscoveryRequest request;
    request.model = "default";
    request.windows = batches[static_cast<size_t>(i)];
    const auto expected = solo.Discover(std::move(request));
    if (!expected.status.ok()) return 1;
    const auto& got = *responses[static_cast<size_t>(i)].result;
    for (int a = 0; a < mopt.num_series; ++a) {
      for (int b = 0; b < mopt.num_series; ++b) {
        if (got.scores.at(a, b) != expected.result->scores.at(a, b) ||
            got.delays[a][b] != expected.result->delays[a][b]) {
          CF_LOG(kError) << "FAIL: batched != sequential at (" << a << ","
                         << b << ")";
          return 1;
        }
      }
    }
  }
  std::printf("      all %d distinct queries identical\n", kDistinct);

  std::printf("[5/5] cache speedup on a hot window\n");
  cf::serve::DiscoveryRequest hot;
  hot.model = "default";
  hot.windows = batches[0];
  // Median of several runs to de-noise scheduling jitter.
  auto timed = [&](bool expect_hit) {
    cf::Stopwatch timer;
    const auto response = engine.Discover(hot);
    const double seconds = timer.ElapsedSeconds();
    if (!response.status.ok() || response.cache_hit != expect_hit) {
      CF_LOG(kError) << "FAIL: unexpected cache state";
      std::exit(1);
    }
    return seconds;
  };
  // batches[0] is already cached from phase 3; measure cold queries through
  // the cache-less engine, warm ones from the caching engine. Both sides are
  // wall-clock on possibly-shared hardware, so take the median of several
  // cold runs (and the best warm lookup) to de-noise scheduling jitter.
  std::vector<double> cold_runs;
  for (int i = 0; i < 3; ++i) {
    cf::serve::DiscoveryRequest cold_request;
    cold_request.model = "default";
    cold_request.windows = batches[0];
    cf::Stopwatch cold_timer;
    const auto cold_response = solo.Discover(std::move(cold_request));
    const double seconds = cold_timer.ElapsedSeconds();
    if (!cold_response.status.ok()) return 1;
    cold_runs.push_back(seconds);
  }
  std::sort(cold_runs.begin(), cold_runs.end());
  const double cold = cold_runs[cold_runs.size() / 2];
  double warm_best = 1e30;
  for (int i = 0; i < 5; ++i) warm_best = std::min(warm_best, timed(true));
  std::printf("      cold %.3fms (median of %zu) vs cached %.3fms -> %.0fx\n",
              cold * 1e3, cold_runs.size(), warm_best * 1e3, cold / warm_best);
  if (cold < warm_best * 10.0) {
    CF_LOG(kError) << "FAIL: cached query not >= 10x faster";
    return 1;
  }

  std::remove(checkpoint.c_str());
  std::printf("SELFTEST PASS: %d queries, batched execution, exact batching, "
              ">=10x cache speedup\n",
              num_queries);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opts;
  if (!ParseArgs(argc, argv, &opts)) {
    Usage();
    return 2;
  }
  if (opts.mode == "train") return RunTrain(opts);
  if (opts.mode == "serve") return RunServe(opts);
  if (opts.mode == "netserve") return RunNetServe(opts);
  if (opts.mode == "query") return RunQuery(opts);
  if (opts.mode == "stream") return RunStream(opts);
  if (opts.mode == "metrics") return RunMetrics(opts);
  if (opts.mode == "top") return RunTop(opts);
  if (opts.mode == "dump") return RunDump(opts);
  if (opts.mode == "trace") return RunTrace(opts);
  if (opts.mode == "profile") return RunProfile(opts);
  return RunSelfTest(opts);
}

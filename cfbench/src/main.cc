// cfbench — the repository benchmark. Runs one workload against the shipped
// `serve_cli serve --port 0` server (a child process in production
// configuration) and prints its metrics; the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
//   cfbench --workload cold_serving|hot_repeat|stream_fmri15 --seed N
//           --seconds S --trace 0|1 --serve-cli PATH [--workdir DIR]
//           [--records DIR] [--git-sha SHA]
//
// --trace 0 measures the end-to-end metrics with nothing traced. --trace 1
// runs the workload untraced and then traced for S/2 seconds each, reads the
// server's Stats and Metrics frames around the traced half, runs the
// in-process layer probes, and prints the per-layer metrics and a waterfall.
// Both modes recompute the served results in process and count every
// mismatch as a failed op. cfbench/run.py builds everything and calls this.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "conn.h"
#include "loadgen.h"
#include "oracle.h"
#include "probes.h"
#include "serve/wire.h"
#include "server_process.h"
#include "stats.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "workloads.h"

namespace cf = causalformer;
namespace wire = causalformer::serve::wire;
using namespace cfbench;
using Stats = wire::StatsResultMsg;

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  int trace = 0;
  std::string serve_cli;
  std::string workdir = ".bench_build/work";
  std::string records = ".bench_build/records";
  std::string git_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false, have_seed = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", key.c_str());
      return false;
    }
    const std::string v = argv[++i];
    if (key == "--workload") {
      a->workload = v;
      have_workload = true;
    } else if (key == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (key == "--trace") {
      a->trace = std::atoi(v.c_str());
      have_trace = true;
    } else if (key == "--serve-cli") {
      a->serve_cli = v;
    } else if (key == "--workdir") {
      a->workdir = v;
    } else if (key == "--records") {
      a->records = v;
    } else if (key == "--git-sha") {
      a->git_sha = v;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return false;
    }
  }
  if (!have_workload || !have_seed || !have_trace || a->serve_cli.empty()) {
    std::fprintf(stderr,
                 "usage: cfbench --workload %s --seed N --seconds S "
                 "--trace 0|1 --serve-cli PATH\n",
                 WorkloadNames().c_str());
    return false;
  }
  return a->seconds > 0 && (a->trace == 0 || a->trace == 1);
}

// ---- Server-side counters (Stats + Metrics frames) -------------------------

struct Snapshot {
  wire::StatsResultMsg stats;
  std::map<std::string, double> counters;  ///< exposition sample lines
  std::map<std::string, std::pair<double, double>> hists;  ///< count, sum
};

Snapshot TakeSnapshot(uint16_t port) {
  Snapshot s;
  Conn conn;
  if (!conn.Connect(port).ok()) return s;
  auto stats = conn.Call(wire::MessageType::kStats, {},
                         wire::MessageType::kStatsResult, 10);
  auto metrics = conn.Call(wire::MessageType::kMetrics, {},
                           wire::MessageType::kMetricsResult, 10);
  wire::MetricsResultMsg m;
  if (!stats.ok() || !metrics.ok() ||
      !wire::DecodeStatsResult(stats->payload, &s.stats).ok() ||
      !wire::DecodeMetricsResult(metrics->payload, &m).ok()) {
    return s;
  }
  std::istringstream lines(m.text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    s.counters[line.substr(0, space)] = std::atof(line.c_str() + space + 1);
  }
  for (const auto& h : m.histograms) {
    s.hists[h.name] = {static_cast<double>(h.count), h.sum};
  }
  return s;
}

double CounterDelta(const Snapshot& a, const Snapshot& b,
                    const std::string& k) {
  const auto ia = a.counters.find(k), ib = b.counters.find(k);
  return (ib == b.counters.end() ? 0 : ib->second) -
         (ia == a.counters.end() ? 0 : ia->second);
}

std::pair<double, double> HistDelta(const Snapshot& a, const Snapshot& b,
                                    const std::string& prefix) {
  double count = 0, sum = 0;
  for (const auto& [name, cs] : b.hists) {
    if (name.rfind(prefix, 0) != 0) continue;
    count += cs.first;
    sum += cs.second;
    const auto it = a.hists.find(name);
    if (it != a.hists.end()) {
      count -= it->second.first;
      sum -= it->second.second;
    }
  }
  return {count, sum};
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---- Output ----------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  Summary summary;  ///< for the record; n = samples behind `value`
};

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

Metric Point(const std::string& name, const std::string& unit, double value,
             size_t n = 1) {
  Metric m{name, unit, value, {}};
  m.summary.median = m.summary.p10 = m.summary.p90 = value;
  m.summary.n = n;
  return m;
}

Metric Distribution(const std::string& name, const std::string& unit,
                    double value, const std::vector<double>& samples) {
  Metric m{name, unit, value, Summarize(samples)};
  return m;
}

std::vector<double> Scaled(std::vector<double> v, double k) {
  for (double& x : v) x *= k;
  return v;
}

// Server CPU seconds sampled through a phase.
struct CpuTrace {
  std::vector<double> t, cpu;  ///< seconds since sampling began, CPU seconds

  double At(double x) const {
    if (t.empty()) return 0;
    if (x <= t.front()) return cpu.front();
    for (size_t i = 1; i < t.size(); ++i) {
      if (x <= t[i]) {
        const double f = (x - t[i - 1]) / (t[i] - t[i - 1]);
        return cpu[i - 1] + f * (cpu[i] - cpu[i - 1]);
      }
    }
    return cpu.back();
  }
  double Between(double a, double b) const { return At(b) - At(a); }
};

// Samples the server's CPU time every 50 ms on its own thread until Finish().
class CpuSampler {
 public:
  explicit CpuSampler(const ServerProcess* server)
      : server_(server), t0_(std::chrono::steady_clock::now()) {
    Sample();
    thread_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(mu_);
      while (!cv_.wait_for(lock, std::chrono::milliseconds(50),
                           [this] { return stop_; })) {
        Sample();
      }
    });
  }
  ~CpuSampler() { Finish(); }
  CpuSampler(const CpuSampler&) = delete;
  CpuSampler& operator=(const CpuSampler&) = delete;

  CpuTrace Finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    Sample();
    return trace_;
  }

 private:
  void Sample() {
    trace_.t.push_back(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0_)
                           .count());
    trace_.cpu.push_back(server_->CpuSeconds());
  }

  const ServerProcess* server_;
  const std::chrono::steady_clock::time_point t0_;
  CpuTrace trace_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

constexpr int kSetups = 5;                // set-ups per untraced run
constexpr size_t kWindows = 6;            // windows per timed phase
constexpr size_t kMinOpsPerWindow = 100;  // fewer ops: fewer, longer windows

// A phase cut into `count` equal windows by completion time. A window's
// rate is measured between its first and last completion; the last
// window's latencies also take the ops that completed after sending
// stopped (the drain).
struct Windows {
  double length = 0;
  std::vector<double> begin, end;
  std::vector<double> rate;  ///< ops per second inside the window
  std::vector<std::vector<double>> latency_ms;
};

Windows Split(const std::vector<double>& done_at,
              const std::vector<double>& latency_s, double elapsed,
              double seconds, size_t count) {
  Windows w;
  w.length = seconds / static_cast<double>(count);
  for (size_t i = 0; i < count; ++i) {
    w.begin.push_back(w.length * static_cast<double>(i));
    w.end.push_back(i + 1 == count ? std::max(seconds, elapsed)
                                   : w.length * static_cast<double>(i + 1));
  }
  std::vector<size_t> n(count, 0);
  std::vector<double> first(count, 0), last(count, 0);
  w.latency_ms.assign(count, {});
  for (size_t i = 0; i < done_at.size(); ++i) {
    const size_t k =
        std::min(count - 1, static_cast<size_t>(done_at[i] / w.length));
    w.latency_ms[k].push_back(latency_s[i] * 1e3);
    if (done_at[i] >= w.length * static_cast<double>(k + 1)) continue;
    first[k] = n[k] == 0 ? done_at[i] : std::min(first[k], done_at[i]);
    last[k] = std::max(last[k], done_at[i]);
    ++n[k];
  }
  for (size_t k = 0; k < count; ++k) {
    w.rate.push_back(n[k] < 2 ? 0
                              : static_cast<double>(n[k] - 1) /
                                    (last[k] - first[k]));
  }
  return w;
}

void WriteRecord(const std::string& path, const Args& a, const Workload& w,
                 const std::vector<std::string>& server_args, int threads,
                 int connections, int depth,
                 const std::vector<Metric>& metrics) {
  std::ofstream out(path);
  out << "{\"bench\": " << Quote(std::string("cfbench/") + w.name)
      << ", \"host\": {\"cores\": " << std::thread::hardware_concurrency()
      << ", \"simd\": " << Quote(cf::simd::LevelName(cf::simd::ActiveLevel()))
      << ", \"compiler\": " << Quote(std::string("gcc ") + __VERSION__)
      << "}, \"git_sha\": " << Quote(a.git_sha)
      << ", \"workload\": " << Quote(w.name) << ", \"seed\": " << a.seed
      << ", \"seconds\": " << Num(a.seconds) << ", \"trace\": " << a.trace
      << ", \"server_flags\": [";
  for (size_t i = 0; i < server_args.size(); ++i) {
    out << (i ? ", " : "") << Quote(server_args[i]);
  }
  out << "], \"generator\": {\"threads\": " << threads
      << ", \"connections\": " << connections << ", \"depth\": " << depth
      << "}, \"metrics\": [";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out << (i ? ",\n  " : "\n  ") << "{\"name\": " << Quote(m.name)
        << ", \"unit\": " << Quote(m.unit)
        << ", \"median\": " << Num(m.summary.median)
        << ", \"p10\": " << Num(m.summary.p10)
        << ", \"p90\": " << Num(m.summary.p90) << ", \"n\": " << m.summary.n
        << "}";
  }
  out << "\n]}\n";
}

void WriteSpans(const std::string& path, const std::vector<OpSpan>& spans) {
  // chrome://tracing: one track per lane; the engine span is nested at the
  // end of its client span (its exact position inside is not observable).
  std::ofstream out(path);
  out << "{\"traceEvents\": [";
  bool first = true;
  for (const OpSpan& s : spans) {
    const double engine = std::min(s.engine, s.end - s.start);
    out << (first ? "\n" : ",\n") << "{\"name\": \"client\", \"ph\": \"X\", "
        << "\"pid\": 1, \"tid\": " << s.lane
        << ", \"ts\": " << Num(s.start * 1e6)
        << ", \"dur\": " << Num((s.end - s.start) * 1e6)
        << ", \"args\": {\"op\": " << s.op << "}},\n"
        << "{\"name\": \"engine\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
        << s.lane << ", \"ts\": " << Num((s.end - engine) * 1e6)
        << ", \"dur\": " << Num(engine * 1e6) << "}";
    first = false;
  }
  out << "\n]}\n";
}

// ---- One measured phase ---------------------------------------------------

struct Phase {
  int index = 0;  ///< 0 for the first phase of the run
  uint64_t attempted = 0, ok = 0, failed = 0, mismatches = 0;
  double elapsed_s = 0;
  uint64_t bytes = 0;
  std::vector<double> latency_s, engine_s, done_at_s;
  ClosedLoopResult closed;  // closed-loop workloads
  OpenLoopResult open;      // stream workload
  double ops_per_s() const { return Ratio(static_cast<double>(ok), elapsed_s); }
};

class Runner {
 public:
  Runner(const Args& args, const Workload& w, int connections)
      : a_(args), w_(w), connections_(connections) {}

  cf::Status Setup(const std::string& workdir) {
    for (int i = 0; i < (a_.trace ? 1 : kSetups); ++i) {
      server_.Stop();
      CF_RETURN_IF_ERROR(RunSetup(w_, a_.seed, a_.seconds, a_.serve_cli,
                                  workdir, &server_, &setup_));
      setup_times_.push_back(setup_.setup_s);
    }
    auto model = LoadModel(w_, setup_.checkpoint);
    if (!model.ok()) return model.status();
    model_ = std::move(model).value();
    if (w_.kind == Kind::kStreamFmri15) {
      for (const auto& s : setup_.series) {
        shifted_.push_back(cf::AddScalar(s, 0.5f).Detach());
      }
    }
    if (w_.kind == Kind::kHotRepeat) {
      for (uint64_t b = 0; b < kHotBatches; ++b) {
        hot_frames_.push_back(
            DetectFrame(RequestWindows(w_, setup_.series[0], b)));
      }
      // Pre-warm: every batch of the working set computes once and is cached.
      Conn conn;
      CF_RETURN_IF_ERROR(conn.Connect(server_.port()));
      for (const auto& frame : hot_frames_) {
        CF_RETURN_IF_ERROR(conn.SendEncoded(frame));
        auto reply = conn.Recv(30);
        if (!reply.ok()) return reply.status();
        if (reply->type != wire::MessageType::kDetectResult) {
          return FrameError(*reply);
        }
      }
    }
    return cf::Status::Ok();
  }

  Phase Run(double seconds, bool trace) {
    Phase p;
    p.index = run_++;
    if (w_.kind == Kind::kStreamFmri15) {
      // Each phase replays the subjects from their start on fresh streams.
      // The score cache is keyed on window content, so a later phase replays
      // shifted data: every phase computes its windows.
      const std::vector<cf::Tensor>& data = DataOf(p);
      const std::string tag = "_" + std::to_string(p.index);
      const char* names[kStreamLanes] = {"subject_a", "subject_b", "twin_a"};
      OpenLoopOptions o;
      o.port = server_.port();
      for (int lane = 0; lane < kStreamLanes; ++lane) {
        // Subject B appends half a period after A and its twin, so the two
        // distinct windows of a period do not queue behind each other.
        o.lanes.push_back({names[lane] + tag,
                           &data[static_cast<size_t>(kLaneSource[lane])],
                           lane == 1 ? kStreamPeriodS / 2 : 0.0});
      }
      o.window = w_.model.window;
      o.stride = kStreamStride;
      o.period_s = kStreamPeriodS;
      o.seconds = seconds;
      o.trace = trace;
      p.open = RunOpenLoop(o);
      p.attempted = p.open.attempted;
      p.ok = p.open.ok;
      p.failed = p.open.failed();
      p.elapsed_s = p.open.elapsed_s;
      p.bytes = p.open.bytes;
      p.latency_s = p.open.latency_s;
      p.engine_s = p.open.engine_s;
      p.done_at_s = p.open.done_at_s;
    } else {
      ClosedLoopOptions o;
      o.port = server_.port();
      o.connections = connections_;
      o.depth = kPipelineDepth;
      o.seconds = seconds;
      o.trace = trace;
      o.first_index = next_index_;
      if (w_.kind == Kind::kHotRepeat) {
        o.distinct = kHotBatches;
        o.frame = [this](uint64_t i) { return hot_frames_[i % kHotBatches]; };
      } else {
        const cf::Tensor& series = setup_.series[0];
        o.frame = [this, &series](uint64_t i) {
          return DetectFrame(RequestWindows(w_, series, i));
        };
        o.keep = [first = o.first_index](uint64_t i) {
          return KeepColdSample(first, i);
        };
      }
      p.closed = RunClosedLoop(o);
      next_index_ += p.closed.attempted + 1;
      p.attempted = p.closed.attempted;
      p.ok = p.closed.ok;
      p.failed = p.closed.failed();
      p.elapsed_s = p.closed.elapsed_s;
      p.bytes = p.closed.bytes;
      p.latency_s = p.closed.rtt_s;
      p.engine_s = p.closed.engine_s;
      p.done_at_s = p.closed.done_at_s;
    }
    return p;
  }

  // Recomputes the served results in process and counts mismatches;
  // `checked` receives how many served results were recomputed.
  uint64_t Verify(const Phase& p, uint64_t* checked) const {
    const int threads =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    const cf::core::CausalityTransformer& model = *model_;
    std::atomic<uint64_t> bad{0};
    if (w_.kind == Kind::kStreamFmri15) {
      // One recompute per distinct (data source, window start): the twin's
      // windows are subject A's.
      const std::vector<cf::Tensor>& data = DataOf(p);
      std::map<std::pair<int, int64_t>, size_t> index;
      std::vector<std::pair<int, int64_t>> keys;
      for (const auto& r : p.open.reports) {
        const auto key = std::make_pair(kLaneSource[r.lane], r.window_start);
        if (index.emplace(key, keys.size()).second) keys.push_back(key);
      }
      std::vector<std::vector<cf::CausalEdge>> expect(keys.size());
      ParallelOver(keys.size(), threads, [&](size_t i) {
        const cf::Tensor window =
            StreamWindow(data[static_cast<size_t>(keys[i].first)],
                         keys[i].second, w_.model.window);
        expect[i] = cf::core::DetectCausalGraph(model, window).graph.edges();
      });
      for (const auto& r : p.open.reports) {
        const auto key = std::make_pair(kLaneSource[r.lane], r.window_start);
        if (!SameEdges(r.edges, expect[index.at(key)])) ++bad;
      }
      *checked = p.open.reports.size();
      return bad;
    }
    std::vector<std::pair<uint64_t, const cf::core::DetectionResult*>> served;
    if (w_.kind == Kind::kHotRepeat) {
      for (const auto& [batch, result] : p.closed.first) {
        served.push_back({batch, &result});
      }
    } else {
      for (const auto& [index, result] : p.closed.kept) {
        served.push_back({index, &result});
      }
    }
    *checked = served.size();
    ParallelOver(served.size(), threads, [&](size_t i) {
      const cf::Tensor windows =
          RequestWindows(w_, setup_.series[0], served[i].first);
      if (!SameResult(cf::core::DetectCausalGraph(model, windows),
                      *served[i].second)) {
        ++bad;
      }
    });
    return bad;  // repeats that differ are already in p.failed
  }

  ServerProcess& server() { return server_; }
  const SetupResult& setup() const { return setup_; }
  const std::vector<double>& setup_times() const { return setup_times_; }
  const cf::core::CausalityTransformer& model() const { return *model_; }

 private:
  // Stream lanes: subject A, subject B, and a twin replaying subject A.
  static constexpr int kLaneSource[kStreamLanes] = {0, 1, 0};

  const std::vector<cf::Tensor>& DataOf(const Phase& p) const {
    return p.index == 0 ? setup_.series : shifted_;
  }

  const Args& a_;
  const Workload& w_;
  const int connections_;
  ServerProcess server_;
  SetupResult setup_;
  std::vector<double> setup_times_;
  std::unique_ptr<cf::core::CausalityTransformer> model_;
  std::vector<std::vector<uint8_t>> hot_frames_;
  std::vector<cf::Tensor> shifted_;
  uint64_t next_index_ = 0;
  int run_ = 0;
};

// ---- Metrics of a run -------------------------------------------------------

// End-to-end metrics of the untraced phase. Rates, latency quantiles and
// CPU per op are medians over equal windows of the phase, so a short burst
// of outside load moves one window rather than the run's figure. p99
// windows hold >= 1000 ops, so ten lie beyond each p99.
std::vector<Metric> EndToEnd(const std::vector<double>& setup_times,
                             const Phase& plain, double seconds,
                             const CpuTrace& cpu, double peak_rss_mb) {
  const size_t ops = plain.latency_s.size();
  const Windows win =
      Split(plain.done_at_s, plain.latency_s, plain.elapsed_s, seconds,
            std::clamp<size_t>(ops / kMinOpsPerWindow, 1, kWindows));
  const Windows win99 =
      Split(plain.done_at_s, plain.latency_s, plain.elapsed_s, seconds,
            std::clamp<size_t>(ops / 1000, 1, kWindows));
  std::vector<double> rates, p50s, p99s, cpu_per_op;
  for (size_t i = 0; i < win.begin.size(); ++i) {
    rates.push_back(win.rate[i]);
    p50s.push_back(Percentile(win.latency_ms[i], 0.5));
    cpu_per_op.push_back(
        Ratio(cpu.Between(win.begin[i], win.end[i]) * 1e3,
              static_cast<double>(win.latency_ms[i].size())));
  }
  for (const auto& w : win99.latency_ms) p99s.push_back(Percentile(w, 0.99));
  const auto median = [](const std::vector<double>& v) {
    return Percentile(v, 0.5);
  };
  return {Distribution("setup_s", "s", median(setup_times), setup_times),
          Distribution("ops_per_s", "1/s", median(rates), rates),
          Distribution("latency_p50_ms", "ms", median(p50s), p50s),
          Distribution("latency_p99_ms", "ms", median(p99s), p99s),
          Distribution("cpu_ms_per_op", "ms", median(cpu_per_op), cpu_per_op),
          Point("peak_rss_mb", "MB", peak_rss_mb)};
}

// Per-layer metrics of the traced phase: server counter deltas across it
// (`before`, `after`), client-side spans, and the in-process probes at the
// workload's geometry. Stream metrics are 0 on the closed-loop workloads:
// the result line lists every per-layer metric on every workload, and only
// end-to-end metrics are held to being non-zero.
std::vector<Metric> PerLayer(const Workload& w, const Runner& runner,
                             const Phase& plain, const Phase& traced,
                             const Snapshot& before, const Snapshot& after,
                             int cores, Waterfall* wf) {
  const bool stream = w.kind == Kind::kStreamFmri15;
  const SetupResult& setup = runner.setup();
  const cf::core::CausalityTransformer& model = runner.model();
  const cf::Tensor& series = setup.series[0];
  const cf::Tensor windows = stream ? StreamWindow(series, 0, w.model.window)
                                    : RequestWindows(w, series, 0);
  const auto pct = [](const std::vector<double>& v, double q, double k) {
    return Percentile(v, q) * k;
  };
  const auto delta = [&](uint64_t Stats::*field) {
    return static_cast<double>(after.stats.*field - before.stats.*field);
  };
  std::vector<Metric> m;

  // serve/wire
  std::vector<double> wire_self_us;
  for (size_t i = 0; i < traced.latency_s.size(); ++i) {
    wire_self_us.push_back((traced.latency_s[i] - traced.engine_s[i]) * 1e6);
  }
  CodecProbe codec;
  if (stream) {
    wire::StreamReportMsg report;
    report.num_series = static_cast<int32_t>(w.model.num_series);
    if (!traced.open.reports.empty()) {
      report.edges = traced.open.reports[0].edges;
    }
    codec = ProbeStreamCodec(cf::Slice(series, 1, 0, kStreamStride).Detach(),
                             {report}, 0.3);
  } else {
    codec = ProbeDetectCodec(
        windows, cf::core::DetectCausalGraph(model, windows), 0.3);
  }
  m.push_back(Distribution("wire.self_us.p50", "us",
                           Percentile(wire_self_us, 0.5), wire_self_us));
  m.push_back(Point("wire.encode_us", "us", codec.encode_us));
  m.push_back(Point("wire.decode_us", "us", codec.decode_us));
  m.push_back(Point("wire.bytes_per_op", "B",
                    Ratio(static_cast<double>(traced.bytes),
                          static_cast<double>(traced.ok))));
  m.push_back(Point("wire.errors", "count",
                    CounterDelta(before, after, "wire_errors_total")));

  // serve/engine
  const double requests = CounterDelta(before, after, "serve_requests_total");
  const auto queue = HistDelta(before, after, "serve_queue_wait_seconds");
  const auto occupancy = HistDelta(before, after, "serve_batch_occupancy");
  const auto phases = HistDelta(before, after, "detect_phase_seconds");
  const double batches = CounterDelta(before, after, "serve_batches_total");
  const double hits = delta(&Stats::cache_hits);
  const double misses = delta(&Stats::cache_misses);
  const std::vector<double> engine_us = Scaled(traced.engine_s, 1e6);
  m.push_back(Distribution("engine.latency_us.p50", "us",
                           Percentile(engine_us, 0.5), engine_us));
  m.push_back(Point("engine.latency_us.p99", "us", Percentile(engine_us, 0.99),
                    engine_us.size()));
  m.push_back(Point("engine.queue_wait_us.mean", "us",
                    Ratio(queue.second, queue.first) * 1e6,
                    static_cast<size_t>(queue.first)));
  m.push_back(Point("engine.batch_occupancy.mean", "count",
                    Ratio(occupancy.second, occupancy.first),
                    static_cast<size_t>(occupancy.first)));
  m.push_back(
      Point("engine.cache_hit_ratio", "ratio", Ratio(hits, hits + misses)));
  m.push_back(Point("engine.dedup_ratio", "ratio",
                    Ratio(delta(&Stats::dedup_hits), requests)));
  m.push_back(Point("engine.batch_max", "count", after.stats.batch_max));
  m.push_back(Point("engine.in_flight_limit", "count",
                    after.stats.batch_in_flight_limit));
  m.push_back(
      Point("engine.rejected", "count", delta(&Stats::batch_rejected)));

  // core/detector and tensor, in process.
  const DetectorProbe dp = ProbeDetector(model, windows, 1.0);
  const size_t reps = static_cast<size_t>(dp.reps);
  m.push_back(Point("detector.detect_ms", "ms", dp.detect_ms, reps));
  m.push_back(Point("detector.phase.forward_ms", "ms", dp.forward_ms, reps));
  m.push_back(Point("detector.phase.backward_ms", "ms", dp.backward_ms, reps));
  m.push_back(
      Point("detector.phase.relevance_ms", "ms", dp.relevance_ms, reps));
  m.push_back(Point("detector.phase.cluster_ms", "ms", dp.cluster_ms, reps));
  m.push_back(Point("detector.lane_scaling", "ratio",
                    ProbeLaneScaling(model, windows, cores, 1.0)));
  m.push_back(Point("kernel.matmul_ms", "ms", dp.matmul_ms, reps));
  m.push_back(Point("kernel.softmax_ms", "ms", dp.softmax_ms, reps));
  const GemmProbe gemm = ProbeGemmRow(w.windows_per_op * w.model.num_series,
                                      w.model.d_model, w.model.d_qk, 0.3);
  m.push_back(Point("kernel.gemm_row.gflops", "GFLOP/s", gemm.gflops));
  m.push_back(Point("kernel.gemm_row.bytes", "B", gemm.bytes));

  // stream
  double twin = 0, twin_reused = 0;
  for (const auto& r : traced.open.reports) {
    if (r.lane == kStreamLanes - 1) {
      ++twin;
      if (r.reused) ++twin_reused;
    }
  }
  const OpenLoopResult& open = traced.open;
  m.push_back(Point("stream.append_us.p50", "us",
                    pct(open.append_rtt_s, 0.5, 1e6),
                    open.append_rtt_s.size()));
  m.push_back(Point("stream.reports_us.p50", "us",
                    pct(open.drain_rtt_s, 0.5, 1e6), open.drain_rtt_s.size()));
  m.push_back(Point("stream.server_latency_ms.p50", "ms",
                    stream ? pct(traced.engine_s, 0.5, 1e3) : 0));
  m.push_back(Point("stream.twin_reuse", "ratio", Ratio(twin_reused, twin)));
  m.push_back(Point("stream.windows_dropped", "count",
                    static_cast<double>(open.windows_dropped)));
  const cf::Tensor prefix =
      cf::Slice(series, 1, 0, std::min<int64_t>(series.dim(1), 512)).Detach();
  m.push_back(Point("stream.hash_us_per_window", "us",
                    ProbeRollingHash(prefix, w.model.window,
                                     stream ? kStreamStride : 1, 0.3)));

  // core/trainer
  m.push_back(Point("trainer.epoch_s", "s",
                    Ratio(setup.train_s, setup.train.epochs_run),
                    static_cast<size_t>(setup.train.epochs_run)));

  // Harness. The open loop's rate is fixed, so its overhead shows in
  // latency; the closed loops' shows in throughput.
  const double overhead =
      stream ? 100.0 * (Ratio(Percentile(traced.latency_s, 0.5),
                              Percentile(plain.latency_s, 0.5)) -
                        1.0)
             : 100.0 * (1.0 - Ratio(traced.ops_per_s(), plain.ops_per_s()));
  m.push_back(Point("trace.overhead_pct", "%", overhead));
  m.push_back(Point("loadgen.lag_ms.p99", "ms", pct(open.lag_s, 0.99, 1e3),
                    open.lag_s.size()));

  // Waterfall: mean time per op on the blocking path. Every cache miss
  // waits for one batch execution: its own, or its dedup leader's.
  const double detector_us =
      Ratio(phases.second, batches) * Ratio(misses, hits + misses) * 1e6;
  const double kernel_share =
      Ratio(dp.matmul_ms + dp.softmax_ms, dp.detect_ms);
  *wf = BuildWaterfall(Mean(traced.latency_s) * 1e6,
                       Mean(traced.engine_s) * 1e6,
                       Ratio(queue.second, requests) * 1e6, detector_us,
                       detector_us * kernel_share);
  m.push_back(Point("waterfall.rtt_us", "us", wf->rtt, traced.ok));
  m.push_back(Point("waterfall.wire_self_us", "us", wf->wire_self, traced.ok));
  m.push_back(Point("waterfall.engine_us", "us", wf->engine, traced.ok));
  m.push_back(Point("waterfall.queue_wait_us", "us", wf->queue_wait));
  m.push_back(Point("waterfall.detector_us", "us", wf->detector));
  m.push_back(Point("waterfall.remainder_us", "us", wf->remainder));
  return m;
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-30s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

// The result line: the contract's last line of stdout.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": " +
                     std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", " : "") + Quote(metrics[i].name) + ": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": " + Quote(metrics[i].unit) +
            "}";
  }
  return json + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) return 2;
  const Workload* w = FindWorkload(a.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (want %s)\n",
                 a.workload.c_str(), WorkloadNames().c_str());
    return 2;
  }
  const int cores =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const bool stream = w->kind == Kind::kStreamFmri15;
  const int connections = stream ? kStreamLanes : std::max(1, cores / 2);
  const int depth = stream ? 1 : kPipelineDepth;
  // One generator thread per connection; more than one per core would make
  // the generator, not the server, the bottleneck being measured.
  if (connections > cores) {
    std::fprintf(stderr,
                 "refusing to run: %d generator threads/connections > %d "
                 "cores\n",
                 connections, cores);
    return 2;
  }
  // The server runs inside the work dir, so every path it sees is absolute.
  std::error_code ec;
  a.serve_cli = std::filesystem::absolute(a.serve_cli, ec).string();
  const std::string workdir =
      std::filesystem::absolute(a.workdir, ec).string() + "/" + w->name +
      "-s" + std::to_string(a.seed) + "-p" + std::to_string(::getpid());
  std::filesystem::create_directories(workdir, ec);
  std::filesystem::create_directories(a.records, ec);

  Runner runner(a, *w, connections);
  const cf::Status st = runner.Setup(workdir);
  if (!st.ok()) {
    std::fprintf(stderr, "setup failed: %s (logs in %s)\n",
                 st.ToString().c_str(), workdir.c_str());
    return 1;
  }
  ServerProcess& server = runner.server();

  // End-to-end phase: nothing traced. With --trace 1 it is the first half,
  // the baseline the traced second half is compared against.
  const double plain_seconds = a.trace ? a.seconds / 2 : a.seconds;
  CpuSampler cpu(&server);
  Phase plain = runner.Run(plain_seconds, false);
  const CpuTrace cpu_trace = cpu.Finish();
  Phase traced;
  Snapshot before, after;
  if (a.trace) {
    before = TakeSnapshot(server.port());
    traced = runner.Run(a.seconds / 2, true);
    after = TakeSnapshot(server.port());
  }
  const double peak_rss_mb = server.PeakRssMb();
  server.Stop();

  uint64_t checked_plain = 0, checked_traced = 0;
  plain.mismatches = runner.Verify(plain, &checked_plain);
  if (a.trace) traced.mismatches = runner.Verify(traced, &checked_traced);
  const uint64_t mismatches = plain.mismatches + traced.mismatches;
  const uint64_t attempted =
      std::max<uint64_t>(1, plain.attempted + traced.attempted);
  const uint64_t failed = std::min<uint64_t>(
      attempted, plain.failed + traced.failed + mismatches);
  const bool correct = failed == 0;
  const double failed_frac =
      static_cast<double>(failed) / static_cast<double>(attempted);

  std::printf("cfbench %s seed=%llu seconds=%g trace=%d cores=%d simd=%s "
              "connections=%d depth=%d\n",
              w->name, static_cast<unsigned long long>(a.seed), a.seconds,
              a.trace, cores, cf::simd::LevelName(cf::simd::ActiveLevel()),
              connections, depth);
  std::vector<Metric> record = EndToEnd(runner.setup_times(), plain,
                                        plain_seconds, cpu_trace, peak_rss_mb);
  // Printed and recorded, but not in the result line: failed_frac travels as
  // `failed` / `attempted` (an end-to-end result metric must never be 0),
  // and latency_p99_ms moves with outside load on a shared host by more
  // than the largest allowed bound (see cfbench/history/).
  record.push_back(Point("failed_frac", "ratio", failed_frac, attempted));
  std::vector<Metric> e2e;
  for (const Metric& m : record) {
    if (m.name != "failed_frac" && m.name != "latency_p99_ms") {
      e2e.push_back(m);
    }
  }
  PrintMetrics(a.trace ? "end-to-end (untraced phase):" : "end-to-end:",
               record);
  std::printf("  (%llu of %llu ops failed)\n",
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("  (oracle recomputed %llu untraced + %llu traced served "
              "results)\n",
              static_cast<unsigned long long>(checked_plain),
              static_cast<unsigned long long>(checked_traced));
  if (mismatches > 0) {
    std::printf("ORACLE MISMATCH: %llu served results differ from the "
                "in-process recompute\n",
                static_cast<unsigned long long>(mismatches));
  }

  std::vector<Metric> layers;
  if (a.trace) {
    Waterfall wf;
    layers = PerLayer(*w, runner, plain, traced, before, after, cores, &wf);
    PrintMetrics("per-layer (traced phase):", layers);
    std::printf("waterfall, mean per op (%s p50 %.1f us; tensor kernels are "
                "the in-process kernel share of detector time):\n%s",
                stream ? "due-to-report latency" : "client rtt",
                Percentile(traced.latency_s, 0.5) * 1e6,
                FormatWaterfall(wf, "us").c_str());
    record.insert(record.end(), layers.begin(), layers.end());
  }

  const std::string stem = a.records + "/" + w->name + "-seed" +
                           std::to_string(a.seed) + "-trace" +
                           std::to_string(a.trace);
  WriteRecord(stem + ".json", a, *w, ServerArgs(*w, "model.cfpm"),
              connections, connections, depth, record);
  if (a.trace) {
    WriteSpans(stem + ".spans.json",
               stream ? traced.open.spans : traced.closed.spans);
  }
  std::printf("record -> %s.json\n", stem.c_str());
  if (correct) std::filesystem::remove_all(workdir, ec);

  std::printf("%s\n",
              ResultJson(correct, attempted, failed, a.trace ? layers : e2e)
                  .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

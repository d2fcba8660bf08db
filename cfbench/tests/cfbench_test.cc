// Tests of the benchmark harness itself: its statistics and waterfall
// arithmetic, the oracle's sensitivity, and its failure accounting against
// refusing and killed servers.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <string>
#include <thread>

#include "loadgen.h"
#include "oracle.h"
#include "server_process.h"
#include "stats.h"
#include "util/socket.h"
#include "workloads.h"

namespace cf = causalformer;

namespace cfbench {
namespace {

TEST(Stats, PercentileInterpolatesBetweenRanks) {
  const std::vector<double> v = {4, 1, 3, 2, 5};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 3);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 5);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.25), 2);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.1), 1.4);
  EXPECT_DOUBLE_EQ(Percentile({10, 20}, 0.99), 19.9);
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0);
  EXPECT_DOUBLE_EQ(Percentile({7}, 0.99), 7);
}

TEST(Stats, PercentileOfAThousandLeavesTenBeyondP99) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const double p99 = Percentile(v, 0.99);
  EXPECT_DOUBLE_EQ(p99, 990.01);
  int beyond = 0;
  for (const double x : v) beyond += x > p99;
  EXPECT_EQ(beyond, 10);
}

TEST(Stats, SummarizeAndMean) {
  const Summary s = Summarize({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  EXPECT_DOUBLE_EQ(s.median, 6);
  EXPECT_DOUBLE_EQ(s.p10, 2);
  EXPECT_DOUBLE_EQ(s.p90, 10);
  EXPECT_EQ(s.n, 11u);
  EXPECT_EQ(Summarize({}).n, 0u);
  EXPECT_DOUBLE_EQ(Mean({1, 2, 6}), 3);
}

TEST(Stats, WaterfallSelfTimesAddUp) {
  const Waterfall w = BuildWaterfall(/*rtt=*/1000, /*engine=*/900,
                                     /*queue_wait=*/300, /*detector=*/500,
                                     /*kernels=*/200);
  EXPECT_DOUBLE_EQ(w.wire_self, 100);
  EXPECT_DOUBLE_EQ(w.detector_self, 300);
  EXPECT_DOUBLE_EQ(w.remainder, 100);
  // Every layer's self time plus the remainder is the client round trip.
  EXPECT_DOUBLE_EQ(w.wire_self + w.queue_wait + w.detector_self + w.kernels +
                       w.remainder,
                   w.rtt);
  // Noise can make a self time negative; it is reported, not clamped.
  EXPECT_DOUBLE_EQ(BuildWaterfall(100, 120, 0, 0, 0).wire_self, -20);
  EXPECT_NE(FormatWaterfall(w, "us").find("unexplained remainder"),
            std::string::npos);
}

cf::core::DetectionResult SampleResult() {
  cf::core::DetectionResult r(3);
  for (int from = 0; from < 3; ++from) {
    for (int to = 0; to < 3; ++to) {
      r.scores.set(from, to, 0.1 * (from * 3 + to));
    }
  }
  r.delays[0][1] = 2;
  r.graph.AddEdge(0, 1, 2, 0.7);
  r.graph.AddEdge(2, 1, 1, 0.4);
  return r;
}

TEST(Oracle, IdenticalResultsMatch) {
  EXPECT_TRUE(SameResult(SampleResult(), SampleResult()));
}

TEST(Oracle, PerturbedResultTripsTheOracle) {
  const cf::core::DetectionResult base = SampleResult();
  {
    cf::core::DetectionResult r = SampleResult();  // one ulp on one score
    r.scores.set(1, 2, std::nextafter(r.scores.at(1, 2), 1.0));
    EXPECT_FALSE(SameResult(base, r));
  }
  {
    cf::core::DetectionResult r = SampleResult();  // a delay
    r.delays[2][0] = 1;
    EXPECT_FALSE(SameResult(base, r));
  }
  {
    cf::core::DetectionResult r(3);  // an edge score bit
    r.scores = base.scores;
    r.delays = base.delays;
    r.graph.AddEdge(0, 1, 2, std::nextafter(0.7, 1.0));
    r.graph.AddEdge(2, 1, 1, 0.4);
    EXPECT_FALSE(SameResult(base, r));
    EXPECT_FALSE(SameEdges(base.graph.edges(), r.graph.edges()));
  }
  {
    cf::core::DetectionResult r(3);  // a missing edge
    r.scores = base.scores;
    r.delays = base.delays;
    r.graph.AddEdge(0, 1, 2, 0.7);
    EXPECT_FALSE(SameResult(base, r));
  }
  EXPECT_FALSE(SameResult(base, cf::core::DetectionResult(4)));  // geometry
}

// The cold_serving oracle sample is taken relative to each phase and spans
// it, so a phase starting far into the request sequence (the traced half of
// a --trace 1 run) is checked through its later value generations too.
TEST(Oracle, ColdSampleSpansEveryPhase) {
  for (const uint64_t first : {uint64_t{0}, uint64_t{19001}}) {
    uint64_t kept = 0, last = 0;
    for (uint64_t i = first; i < first + 40000; ++i) {
      if (KeepColdSample(first, i)) {
        ++kept;
        last = i - first;
      }
    }
    EXPECT_EQ(kept, 413u);
    EXPECT_GT(last, 39000u);
  }
}

// A port nothing listens on: bind an ephemeral port, then close it.
uint16_t DeadPort() {
  auto fd = cf::TcpListen(0);
  EXPECT_TRUE(fd.ok());
  const uint16_t port = *cf::TcpLocalPort(*fd);
  cf::TcpClose(*fd);
  return port;
}

TEST(Failures, RefusedConnectionsCountAsFailedOps) {
  ClosedLoopOptions o;
  o.port = DeadPort();
  o.connections = 2;
  o.depth = 4;
  o.seconds = 0.2;
  o.frame = [](uint64_t) { return std::vector<uint8_t>{}; };
  const auto t0 = std::chrono::steady_clock::now();
  const ClosedLoopResult r = RunClosedLoop(o);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
  EXPECT_EQ(r.attempted, 2u);
  EXPECT_EQ(r.failed(), 2u);
  EXPECT_EQ(r.ok, 0u);

  OpenLoopOptions s;
  s.port = o.port;
  const cf::Tensor series = cf::Tensor::Zeros(cf::Shape{2, 64});
  s.lanes = {{"a", &series, 0}};
  s.window = 8;
  s.stride = 4;
  s.period_s = 0.01;
  s.seconds = 0.2;
  const OpenLoopResult sr = RunOpenLoop(s);
  EXPECT_GT(sr.attempted, 0u);
  EXPECT_EQ(sr.failed(), sr.attempted);
}

// A real serve_cli, killed partway through a closed-loop phase: the
// in-flight and unsent requests fail, and the phase ends promptly.
TEST(Failures, KilledServerYieldsFailuresNotAHang) {
  const Workload& w = *FindWorkload("cold_serving");
  const std::string dir =
      (std::filesystem::current_path() /
       ("cfbench_test_" + std::to_string(::getpid())))
          .string();
  std::filesystem::create_directories(dir);
  ServerProcess server;
  SetupResult setup;
  const cf::Status st = RunSetup(w, /*seed=*/7, /*seconds=*/1,
                                 CFBENCH_SERVE_CLI, dir, &server, &setup);
  ASSERT_TRUE(st.ok()) << st.ToString();

  ClosedLoopOptions o;
  o.port = server.port();
  o.connections = 2;
  o.depth = 4;
  o.seconds = 30;
  const cf::Tensor& series = setup.series[0];
  o.frame = [&w, &series](uint64_t i) {
    return DetectFrame(RequestWindows(w, series, i));
  };
  std::thread killer([&server] {
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    server.Kill();
  });
  const auto t0 = std::chrono::steady_clock::now();
  const ClosedLoopResult r = RunClosedLoop(o);
  killer.join();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10));
  EXPECT_GT(r.ok, 0u);  // it served before the kill
  EXPECT_GT(r.failed(), 0u);
  const double failed_frac =
      static_cast<double>(r.failed()) / static_cast<double>(r.attempted);
  EXPECT_GT(failed_frac, 0.0);
  EXPECT_LE(failed_frac, 1.0);
  std::filesystem::remove_all(dir);
}

// A server answering with error frames (an unknown model) is refusing work:
// every reply is a failed op.
TEST(Failures, ErrorFramesCountAsFailedOps) {
  const Workload& w = *FindWorkload("cold_serving");
  const std::string dir =
      (std::filesystem::current_path() /
       ("cfbench_test_err_" + std::to_string(::getpid())))
          .string();
  std::filesystem::create_directories(dir);
  ServerProcess server;
  SetupResult setup;
  ASSERT_TRUE(RunSetup(w, 7, 1, CFBENCH_SERVE_CLI, dir, &server, &setup).ok());
  ClosedLoopOptions o;
  o.port = server.port();
  o.connections = 1;
  o.depth = 2;
  o.seconds = 0.3;
  const cf::Tensor wrong = cf::Tensor::Zeros(cf::Shape{1, 3, 8});  // N=3 != 4
  o.frame = [&wrong](uint64_t) { return DetectFrame(wrong); };
  const ClosedLoopResult r = RunClosedLoop(o);
  server.Stop();
  EXPECT_GT(r.attempted, 0u);
  EXPECT_EQ(r.ok, 0u);
  EXPECT_EQ(r.failed(), r.attempted);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace cfbench

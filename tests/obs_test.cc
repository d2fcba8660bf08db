#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/observability.h"
#include "obs/process_metrics.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "tensor/allocator.h"
#include "util/rng.h"

// The observability core: histogram bucket math against hand-computed
// boundaries and a sorted-vector quantile oracle, striped-shard merging
// under real thread concurrency (the TSan job runs this suite), exposition
// rendering with label splicing, and the trace span/phase machinery on a
// scripted clock.

namespace causalformer {
namespace obs {
namespace {

// A deterministic clock for trace tests: time moves only when the test
// says so (same shape as the serving tests' ScriptedClock).
class FakeClock {
 public:
  explicit FakeClock(double start = 0) : now_(start) {}
  double Now() const {
    std::lock_guard<std::mutex> lock(mu_);
    return now_;
  }
  void Advance(double seconds) {
    std::lock_guard<std::mutex> lock(mu_);
    now_ += seconds;
  }
  Clock clock() {
    return Clock([this] { return Now(); });
  }

 private:
  mutable std::mutex mu_;
  double now_;
};

// ---- Counter / Gauge --------------------------------------------------------

TEST(CounterTest, IncrementAndValue) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(CounterTest, ConcurrentIncrementsMergeExactly) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(GaugeTest, SetWins) {
  Gauge g;
  EXPECT_EQ(g.Value(), 0.0);
  g.Set(1.5);
  g.Set(-2.25);
  EXPECT_EQ(g.Value(), -2.25);
}

// ---- Histogram --------------------------------------------------------------

// Easy-to-hand-check layout: min 1, growth 2, 4 buckets.
//   bucket 0: [0, 1]    bucket 1: (1, 2]    bucket 2: (2, 4]
//   bucket 3: (4, +inf)
TEST(HistogramTest, BucketBoundaries) {
  HistogramOptions opt;
  opt.min_value = 1.0;
  opt.growth = 2.0;
  opt.num_buckets = 4;
  Histogram h(opt);
  EXPECT_EQ(h.UpperBound(0), 1.0);
  EXPECT_EQ(h.UpperBound(1), 2.0);
  EXPECT_EQ(h.UpperBound(2), 4.0);
  EXPECT_TRUE(std::isinf(h.UpperBound(3)));

  h.Record(0.0);    // -> 0
  h.Record(0.5);    // -> 0
  h.Record(1.0);    // boundary values land in the lower bucket -> 0
  h.Record(1.001);  // -> 1
  h.Record(2.0);    // -> 1
  h.Record(2.001);  // -> 2
  h.Record(4.0);    // -> 2
  h.Record(4.001);  // -> 3
  h.Record(1e9);    // overflow absorbs into the last bucket -> 3
  h.Record(-3.0);   // negatives clamp to 0 -> 0
  const Histogram::Snapshot snap = h.GetSnapshot();
  ASSERT_EQ(snap.buckets.size(), 4u);
  EXPECT_EQ(snap.buckets[0], 4u);
  EXPECT_EQ(snap.buckets[1], 2u);
  EXPECT_EQ(snap.buckets[2], 2u);
  EXPECT_EQ(snap.buckets[3], 2u);
  EXPECT_EQ(snap.count, 10u);
  EXPECT_NEAR(snap.sum, 0.0 + 0.5 + 1.0 + 1.001 + 2.0 + 2.001 + 4.0 +
                            4.001 + 1e9 + 0.0,
              1e-3);
}

TEST(HistogramTest, NanLandsInBucketZeroNotLost) {
  Histogram h;
  h.Record(std::nan(""));
  const Histogram::Snapshot snap = h.GetSnapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.buckets[0], 1u);
}

// Quantile estimates vs a sorted-vector oracle on randomized log-uniform
// samples. With growth factor g, the bucket containing the oracle value
// bounds the estimate, so estimate/oracle must stay within [1/g, g] (plus
// interpolation slack).
TEST(HistogramTest, QuantilesTrackSortedOracle) {
  Rng rng(2025);
  const HistogramOptions opt;  // 1e-6 .. growth sqrt(2) .. 64 buckets
  Histogram h(opt);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    // log-uniform over [1e-5, 10]: six decades, the serving-latency range.
    const double v = std::pow(10.0, -5.0 + 6.0 * rng.Uniform());
    samples.push_back(v);
    h.Record(v);
  }
  std::sort(samples.begin(), samples.end());
  const Histogram::Snapshot snap = h.GetSnapshot();
  ASSERT_EQ(snap.count, samples.size());
  const double slack = opt.growth * 1.05;
  for (const double q : {0.50, 0.90, 0.99}) {
    const size_t rank = static_cast<size_t>(
        std::max(1.0, q * static_cast<double>(samples.size())));
    const double oracle = samples[rank - 1];
    const double estimate = snap.Quantile(q, opt);
    EXPECT_GT(estimate, oracle / slack) << "q=" << q;
    EXPECT_LT(estimate, oracle * slack) << "q=" << q;
  }
  EXPECT_EQ(snap.p50, snap.Quantile(0.50, opt));
  EXPECT_EQ(snap.p90, snap.Quantile(0.90, opt));
  EXPECT_EQ(snap.p99, snap.Quantile(0.99, opt));
}

TEST(HistogramTest, EmptySnapshotIsZeroed) {
  Histogram h;
  const Histogram::Snapshot snap = h.GetSnapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum, 0.0);
  EXPECT_EQ(snap.p50, 0.0);
  EXPECT_EQ(snap.p99, 0.0);
}

// Shard merge: recorders pinned to distinct threads land in distinct
// stripes; the snapshot must still see every sample exactly once.
TEST(HistogramTest, ShardMergeCountsEverySample) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(1e-4 * (t + 1));
      }
    });
  }
  for (auto& t : threads) t.join();
  const Histogram::Snapshot snap = h.GetSnapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kPerThread);
  double expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) expected_sum += kPerThread * 1e-4 * (t + 1);
  EXPECT_NEAR(snap.sum, expected_sum, expected_sum * 1e-9);
}

// Snapshots taken while recorders are running must be internally sane
// (count equals the bucket total, monotone in time) — this is the
// data-race surface the TSan job watches.
TEST(HistogramTest, SnapshotDuringConcurrentRecords) {
  Histogram h;
  std::atomic<bool> stop{false};
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.Record(0.001);
    });
  }
  uint64_t last_count = 0;
  while (!stop.load()) {
    const Histogram::Snapshot snap = h.GetSnapshot();
    uint64_t bucket_total = 0;
    for (const uint64_t b : snap.buckets) bucket_total += b;
    EXPECT_EQ(snap.count, bucket_total);
    EXPECT_GE(snap.count, last_count);
    last_count = snap.count;
    if (snap.count == static_cast<uint64_t>(kThreads) * kPerThread) break;
    std::this_thread::yield();
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.GetSnapshot().count,
            static_cast<uint64_t>(kThreads) * kPerThread);
}

// ---- MetricsRegistry --------------------------------------------------------

TEST(MetricsRegistryTest, HandlesAreStableAndSingletons) {
  MetricsRegistry registry;
  Counter* c1 = registry.GetCounter("requests_total");
  Counter* c2 = registry.GetCounter("requests_total");
  EXPECT_EQ(c1, c2);
  Histogram* h1 = registry.GetHistogram("latency_seconds");
  Histogram* h2 = registry.GetHistogram("latency_seconds");
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(registry.GetGauge("occupancy"), registry.GetGauge("occupancy"));
}

TEST(MetricsRegistryTest, RenderTextExposition) {
  MetricsRegistry registry;
  registry.GetCounter("requests_total")->Increment(3);
  registry.GetGauge("queue_depth")->Set(2.0);
  HistogramOptions opt;
  opt.min_value = 1.0;
  opt.growth = 2.0;
  opt.num_buckets = 3;
  Histogram* h = registry.GetHistogram("latency_seconds", opt);
  h->Record(0.5);
  h->Record(3.0);
  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("# TYPE requests_total counter\nrequests_total 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE queue_depth gauge\nqueue_depth 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE latency_seconds histogram\n"),
            std::string::npos);
  // Cumulative buckets: le="1" sees the 0.5 sample, +Inf sees both.
  EXPECT_NE(text.find("latency_seconds_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("latency_seconds_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("latency_seconds_sum 3.5\n"), std::string::npos);
  EXPECT_NE(text.find("latency_seconds_count 2\n"), std::string::npos);
}

// A label set embedded in the series name must survive rendering, with the
// histogram's `le` label spliced in after the embedded labels.
TEST(MetricsRegistryTest, RenderTextSplicesEmbeddedLabels) {
  MetricsRegistry registry;
  registry.GetCounter("drift_events_total{stream=\"cli\"}")->Increment();
  HistogramOptions opt;
  opt.min_value = 1.0;
  opt.growth = 2.0;
  opt.num_buckets = 2;
  registry.GetHistogram("append_seconds{stream=\"cli\"}", opt)->Record(0.5);
  const std::string text = registry.RenderText();
  // TYPE lines carry the base name only.
  EXPECT_NE(text.find("# TYPE drift_events_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("drift_events_total{stream=\"cli\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE append_seconds histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("append_seconds_bucket{stream=\"cli\",le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("append_seconds_sum{stream=\"cli\"} 0.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("append_seconds_count{stream=\"cli\"} 1\n"),
            std::string::npos);
}

TEST(MetricsRegistryTest, HistogramSummariesMatchSnapshots) {
  MetricsRegistry registry;
  HistogramOptions opt;
  opt.min_value = 1.0;
  opt.growth = 2.0;
  opt.num_buckets = 4;
  Histogram* a = registry.GetHistogram("a_seconds", opt);
  for (int i = 0; i < 100; ++i) a->Record(1.5);
  registry.GetHistogram("b_seconds", opt);  // empty histogram still reports
  const std::vector<HistogramSummary> rows = registry.HistogramSummaries();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].name, "a_seconds");
  EXPECT_EQ(rows[0].count, 100u);
  EXPECT_NEAR(rows[0].sum, 150.0, 1e-9);
  EXPECT_EQ(rows[0].p50, a->GetSnapshot().p50);
  EXPECT_EQ(rows[1].name, "b_seconds");
  EXPECT_EQ(rows[1].count, 0u);
}

// ---- Trace ------------------------------------------------------------------

// The mark-based span API makes the timeline contiguous by construction:
// each span's end is exactly the next span's start.
TEST(TraceTest, SpansAreContiguousOnScriptedClock) {
  FakeClock clock(100.0);
  Trace trace(7, clock.clock(), "decode");
  clock.Advance(0.25);
  trace.StartSpan("enqueue");
  clock.Advance(0.5);
  trace.StartSpan("execute");
  clock.Advance(1.0);
  trace.StartSpan("encode");
  clock.Advance(0.125);
  trace.Finish();

  const std::vector<TraceSpan> spans = trace.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].name, "decode");
  EXPECT_EQ(spans[1].name, "enqueue");
  EXPECT_EQ(spans[2].name, "execute");
  EXPECT_EQ(spans[3].name, "encode");
  EXPECT_EQ(spans[0].start, 100.0);
  for (size_t i = 0; i + 1 < spans.size(); ++i) {
    EXPECT_EQ(spans[i].end, spans[i + 1].start) << "gap after " << spans[i].name;
  }
  EXPECT_EQ(spans[2].end - spans[2].start, 1.0);
  EXPECT_EQ(spans[3].end, 101.875);
  EXPECT_EQ(trace.DurationSeconds(), 1.875);
}

TEST(TraceTest, PhasesAccumulateByName) {
  FakeClock clock;
  Trace trace(1, clock.clock(), "decode");
  trace.AddPhase("forward", 0.5);
  trace.AddPhase("backward", 0.25);
  trace.AddPhase("forward", 0.125);
  const auto phases = trace.phases();
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0].first, "forward");
  EXPECT_EQ(phases[0].second, 0.625);
  EXPECT_EQ(phases[1].first, "backward");
  EXPECT_EQ(phases[1].second, 0.25);
}

TEST(TraceTest, LeaderLinkAndToString) {
  FakeClock clock(5.0);
  Trace trace(42, clock.clock(), "decode");
  EXPECT_EQ(trace.leader_id(), 0u);
  trace.SetLeader(17);
  EXPECT_EQ(trace.leader_id(), 17u);
  clock.Advance(0.010);
  trace.Finish();
  trace.AddPhase("forward", 0.004);
  const std::string line = trace.ToString();
  EXPECT_NE(line.find("trace id=42"), std::string::npos);
  EXPECT_NE(line.find("leader=17"), std::string::npos);
  EXPECT_NE(line.find("decode="), std::string::npos);
  EXPECT_NE(line.find("forward="), std::string::npos);
}

TEST(TraceRingTest, BoundedEvictionKeepsNewest) {
  FakeClock clock;
  TraceRing ring(3, /*slow_threshold_seconds=*/0);
  for (uint64_t id = 1; id <= 5; ++id) {
    auto trace = std::make_shared<Trace>(id, clock.clock(), "decode");
    trace->Finish();
    ring.Add(std::move(trace));
  }
  EXPECT_EQ(ring.total_added(), 5u);
  const auto kept = ring.Snapshot();
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept[0]->id(), 3u);
  EXPECT_EQ(kept[2]->id(), 5u);
}

TEST(TraceRingTest, SlowThresholdAdmitsWithoutCrashing) {
  FakeClock clock;
  TraceRing ring(4, /*slow_threshold_seconds=*/0.001);
  auto slow = std::make_shared<Trace>(9, clock.clock(), "decode");
  clock.Advance(1.0);  // over threshold -> the structured warning path runs
  slow->Finish();
  ring.Add(slow);
  ring.Add(nullptr);  // null traces are ignored, not fatal
  EXPECT_EQ(ring.total_added(), 1u);
  EXPECT_EQ(ring.slow_threshold_seconds(), 0.001);
}

// ---- PhaseCollector / ScopedPhaseTimer --------------------------------------

TEST(PhaseCollectorTest, TimerReportsIntoInstalledCollector) {
  FakeClock clock;
  PhaseCollector collector(clock.clock());
  EXPECT_EQ(PhaseCollector::Current(), nullptr);
  {
    ScopedPhaseCollector install(&collector);
    EXPECT_EQ(PhaseCollector::Current(), &collector);
    {
      ScopedPhaseTimer timer("forward");
      clock.Advance(0.25);
    }
    {
      ScopedPhaseTimer timer("forward");
      clock.Advance(0.5);
    }
    {
      ScopedPhaseTimer timer("kernel.matmul");
      clock.Advance(0.125);
    }
  }
  EXPECT_EQ(PhaseCollector::Current(), nullptr);
  const auto& phases = collector.phases();
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0].first, "forward");
  EXPECT_EQ(phases[0].second, 0.75);
  EXPECT_EQ(phases[1].first, "kernel.matmul");
  EXPECT_EQ(phases[1].second, 0.125);
}

TEST(PhaseCollectorTest, TimerIsNoOpWithoutCollector) {
  // No collector installed: must not crash, must not record anywhere.
  ScopedPhaseTimer timer("forward");
  SUCCEED();
}

TEST(PhaseCollectorTest, KernelTimersGateOnCollectorFlag) {
  // Kernel-tagged timers are the sampling gate: with collect_kernels off,
  // phase timers still record but kernel timers never read the clock.
  FakeClock clock;
  PhaseCollector collector(clock.clock());
  EXPECT_TRUE(collector.collect_kernels());  // default on
  collector.set_collect_kernels(false);
  {
    ScopedPhaseCollector install(&collector);
    {
      ScopedPhaseTimer timer("forward");
      clock.Advance(0.25);
    }
    {
      ScopedPhaseTimer timer("kernel.matmul", /*kernel=*/true);
      clock.Advance(0.125);
    }
  }
  const auto& phases = collector.phases();
  ASSERT_EQ(phases.size(), 1u);
  EXPECT_EQ(phases[0].first, "forward");
  EXPECT_EQ(phases[0].second, 0.25);

  collector.set_collect_kernels(true);
  {
    ScopedPhaseCollector install(&collector);
    ScopedPhaseTimer timer("kernel.matmul", /*kernel=*/true);
    clock.Advance(0.5);
  }
  ASSERT_EQ(collector.phases().size(), 2u);
  EXPECT_EQ(collector.phases()[1].first, "kernel.matmul");
  EXPECT_EQ(collector.phases()[1].second, 0.5);
}

TEST(PhaseCollectorTest, NestedInstallRestoresPrevious) {
  PhaseCollector outer, inner;
  ScopedPhaseCollector install_outer(&outer);
  {
    ScopedPhaseCollector install_inner(&inner);
    EXPECT_EQ(PhaseCollector::Current(), &inner);
    {
      // Explicit null install: collection off inside an instrumented region.
      ScopedPhaseCollector off(nullptr);
      EXPECT_EQ(PhaseCollector::Current(), nullptr);
    }
    EXPECT_EQ(PhaseCollector::Current(), &inner);
  }
  EXPECT_EQ(PhaseCollector::Current(), &outer);
}

// ---- Observability ----------------------------------------------------------

TEST(ObservabilityTest, TraceIdsAreUniqueAndPositive) {
  Observability obs;
  const uint64_t a = obs.NextTraceId();
  const uint64_t b = obs.NextTraceId();
  EXPECT_GT(a, 0u);
  EXPECT_GT(b, a);
  auto trace = obs.StartTrace("decode");
  ASSERT_NE(trace, nullptr);
  EXPECT_GT(trace->id(), b);
  ASSERT_EQ(trace->spans().size(), 1u);
  EXPECT_EQ(trace->spans()[0].name, "decode");
}

TEST(ObservabilityTest, ScriptedClockDrivesEveryLayer) {
  FakeClock clock(50.0);
  ObservabilityOptions opt;
  opt.clock = clock.clock();
  opt.trace_ring_capacity = 8;
  Observability obs(opt);
  EXPECT_TRUE(obs.clock().is_scripted());
  auto trace = obs.StartTrace("decode");
  clock.Advance(2.0);
  trace->Finish();
  EXPECT_EQ(trace->DurationSeconds(), 2.0);
  obs.traces().Add(trace);
  EXPECT_EQ(obs.traces().Snapshot().size(), 1u);
}

// ---- Chrome-trace export edge cases ----------------------------------------

TEST(TraceExportTest, EmptyRingRendersValidChromeJson) {
  // An untouched ring must still export loadable JSON (the flight
  // recorder and `serve_cli trace --json` ship it verbatim).
  const std::string json = RenderChromeTrace({});
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_EQ(json.back(), '\n');
}

// ---- Process metrics -------------------------------------------------------

TEST(ProcessMetricsTest, ProcReadersReturnSaneValues) {
  // A live Linux process: resident memory, consumed CPU and open fds are
  // all strictly positive (this binary mapped itself, burned cycles
  // getting here and holds std streams open).
  EXPECT_GT(ProcessMetrics::ReadRssBytes(), 0u);
  EXPECT_GE(ProcessMetrics::ReadCpuSeconds(), 0.0);
  EXPECT_GT(ProcessMetrics::ReadOpenFds(), 0);
}

TEST(ProcessMetricsTest, RegistersAndUpdatesGauges) {
  MetricsRegistry registry;
  ProcessMetrics process(&registry);
  // The constructor's initial Update() populates every series.
  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("cf_process_rss_bytes"), std::string::npos);
  EXPECT_NE(text.find("cf_process_cpu_seconds_total"), std::string::npos);
  EXPECT_NE(text.find("cf_process_open_fds"), std::string::npos);
  EXPECT_NE(text.find("cf_process_uptime_seconds"), std::string::npos);
  EXPECT_NE(text.find("cf_arena_pooled_bytes"), std::string::npos);
  EXPECT_NE(text.find("cf_arena_outstanding_blocks"), std::string::npos);
  EXPECT_GT(registry.GetGauge("cf_process_rss_bytes")->Value(), 0.0);

  // Uptime moves with time; RSS tracks a deliberate allocation upward
  // (a vector this size cannot hide in an existing arena).
  const double uptime0 = registry.GetGauge("cf_process_uptime_seconds")->Value();
  std::vector<char> ballast(16 << 20, 'x');
  process.Update();
  EXPECT_GE(registry.GetGauge("cf_process_uptime_seconds")->Value(), uptime0);
  EXPECT_GT(registry.GetGauge("cf_process_open_fds")->Value(), 0.0);

  // The arena gauges follow the live arenas' totals: a block parked in a
  // fresh arena's pool shows up at the next Update().
  const double pooled0 = registry.GetGauge("cf_arena_pooled_bytes")->Value();
  ArenaAllocator arena;
  arena.Deallocate(arena.Allocate(4096), 4096);
  process.Update();
  EXPECT_GE(registry.GetGauge("cf_arena_pooled_bytes")->Value(),
            pooled0 + 4096);
}

}  // namespace
}  // namespace obs
}  // namespace causalformer

#include "obs/profiler.h"

#include <dlfcn.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

// The sampling profiler: deterministic buffer accounting through the
// exposed RecordSample/SampleNow paths (overflow drops are exact and
// never block), render edge cases (zero samples, folded separators),
// the Start/Stop/Collect lifecycle including the one-installed-profiler
// invariant, live SIGPROF sampling against a CPU burner (whose interrupted
// function is each sample's leaf), and the cf_profiler_* self-metrics. The TSan CI leg runs this suite: the
// signal handler's relaxed-atomic buffer discipline is exactly the kind
// of code a race detector should sit on.

namespace causalformer {
namespace obs {
namespace {

// Synthetic leaf-first stacks for the deterministic buffer tests; the
// addresses need not symbolize (unresolvable frames render as hex).
void* FakeFrame(uintptr_t v) { return reinterpret_cast<void*>(v); }

// The first `[object+0xOFFSET]` frame in `folded`: a name holding neither
// `]` nor `+`, then `+0x`, lowercase hex digits and `]`.
bool FindObjectFrame(const std::string& folded, std::string* object,
                     std::string* offset) {
  const auto is_hex = [](char c) {
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
  };
  for (size_t open = folded.find('['); open != std::string::npos;
       open = folded.find('[', open + 1)) {
    size_t plus = open + 1;
    while (plus < folded.size() && folded[plus] != ']' && folded[plus] != '+') {
      ++plus;
    }
    if (plus == open + 1 || folded.compare(plus, 3, "+0x") != 0) continue;
    size_t close = plus + 3;
    while (close < folded.size() && is_hex(folded[close])) ++close;
    if (close == plus + 3 || close == folded.size() || folded[close] != ']') {
      continue;
    }
    *object = folded.substr(open + 1, plus - open - 1);
    *offset = folded.substr(plus + 3, close - plus - 3);
    return true;
  }
  return false;
}

TEST(ProfilingThreadRegistryTest, RegistersAndReadsBack) {
  std::string seen;
  std::thread t([&seen] {
    RegisterProfilingThread("cf-test-thread");
    const char* name = CurrentProfilingThreadName();
    seen = name != nullptr ? name : "";
  });
  t.join();
  EXPECT_EQ(seen, "cf-test-thread");
}

TEST(ProfilingThreadRegistryTest, ReRegistrationWins) {
  std::string seen;
  std::thread t([&seen] {
    RegisterProfilingThread("cf-first");
    RegisterProfilingThread("cf-second");
    seen = CurrentProfilingThreadName();
  });
  t.join();
  EXPECT_EQ(seen, "cf-second");
}

TEST(ProfilerTest, RecordSampleFillsBufferThenCountsExactDrops) {
  ProfilerOptions options;
  options.max_samples = 8;
  Profiler profiler(options);

  void* frames[2] = {FakeFrame(0x1000), FakeFrame(0x2000)};
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(profiler.RecordSample(frames, 2));
  }
  EXPECT_EQ(profiler.sample_count(), 8u);
  EXPECT_EQ(profiler.drop_count(), 0u);

  // The buffer is full: every further record is a drop, counted exactly,
  // and the call keeps returning (it must never block — this is the
  // signal handler's path).
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(profiler.RecordSample(frames, 2));
  }
  EXPECT_EQ(profiler.sample_count(), 8u);
  EXPECT_EQ(profiler.drop_count(), 5u);

  // Clear starts a fresh accounting window: buffer reusable, drops reset.
  profiler.Clear();
  EXPECT_EQ(profiler.sample_count(), 0u);
  EXPECT_EQ(profiler.drop_count(), 0u);
  EXPECT_TRUE(profiler.RecordSample(frames, 2));
  EXPECT_EQ(profiler.sample_count(), 1u);
}

TEST(ProfilerTest, ZeroSamplesRenderEmptyFoldedAndValidJson) {
  Profiler profiler;
  EXPECT_EQ(profiler.RenderFolded(), "");
  // The chrome export must be loadable JSON even with nothing sampled.
  const std::string json = profiler.RenderChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(ProfilerTest, FoldedRendersThreadPrefixAndCounts) {
  Profiler profiler;
  std::thread t([&profiler] {
    RegisterProfilingThread("cf-folded");
    void* frames[2] = {FakeFrame(0x1000), FakeFrame(0x2000)};
    profiler.RecordSample(frames, 2);
    profiler.RecordSample(frames, 2);
  });
  t.join();
  const std::string folded = profiler.RenderFolded();
  // One distinct stack, sampled twice: one line, " 2" suffix, thread first.
  EXPECT_EQ(folded.rfind("cf-folded;", 0), 0u) << folded;
  EXPECT_NE(folded.find(" 2\n"), std::string::npos) << folded;
}

TEST(ProfilerTest, SampleNowCapturesOwnStack) {
  Profiler profiler;
  profiler.SampleNow();
  EXPECT_EQ(profiler.sample_count(), 1u);
  // The sample symbolizes to *something* — at minimum the test binary's
  // frames render (hex at worst) and the folded line ends in a count.
  const std::string folded = profiler.RenderFolded();
  EXPECT_NE(folded.find(" 1\n"), std::string::npos) << folded;
}

// Internal linkage keeps it out of the dynamic symbol table even under
// -rdynamic, so dladdr finds its object but no name.
__attribute__((noinline)) int UnexportedFrame(int x) { return 3 * x + 1; }

TEST(ProfilerTest, UnnamedFrameRendersObjectAndOffset) {
  void* pc = reinterpret_cast<void*>(&UnexportedFrame);
  Dl_info info;
  ASSERT_NE(::dladdr(pc, &info), 0);
  ASSERT_EQ(info.dli_sname, nullptr);
  Profiler profiler;
  void* frames[1] = {pc};  // a leaf frame resolves at its own address
  ASSERT_TRUE(profiler.RecordSample(frames, 1));
  const std::string folded = profiler.RenderFolded();

  // `[object+0xOFFSET]`, OFFSET from the object's load base: what
  // `addr2line -e object 0xOFFSET` resolves.
  std::string object, offset;
  ASSERT_TRUE(FindObjectFrame(folded, &object, &offset)) << folded;
  const char* slash = std::strrchr(info.dli_fname, '/');
  EXPECT_EQ(object, slash != nullptr ? slash + 1 : info.dli_fname);
  EXPECT_EQ(std::stoull(offset, nullptr, 16),
            static_cast<unsigned long long>(
                static_cast<const char*>(pc) -
                static_cast<const char*>(info.dli_fbase)));
}

TEST(ProfilerTest, CollectWithoutStartIsFailedPrecondition) {
  Profiler profiler;
  const auto report = profiler.Collect(0.01);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ProfilerTest, SecondRunningProfilerIsRejected) {
  Profiler first;
  ASSERT_TRUE(first.Start().ok());
  EXPECT_TRUE(first.running());
  EXPECT_EQ(Profiler::Installed(), &first);

  Profiler second;
  const Status st = second.Start();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(second.running());

  ASSERT_TRUE(first.Stop().ok());
  EXPECT_FALSE(first.running());
  EXPECT_EQ(Profiler::Installed(), nullptr);

  // With the first stopped, the second can take the signal.
  ASSERT_TRUE(second.Start().ok());
  ASSERT_TRUE(second.Stop().ok());
}

TEST(ProfilerTest, StopIsIdempotent) {
  Profiler profiler;
  ASSERT_TRUE(profiler.Start().ok());
  EXPECT_TRUE(profiler.Stop().ok());
  EXPECT_TRUE(profiler.Stop().ok());
}

// Burns CPU until `stop` flips — gives SIGPROF (which fires on consumed
// process CPU time) something to land on.
void BurnCpu(const std::atomic<bool>& stop) {
  volatile double sink = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    for (int i = 1; i < 2048; ++i) sink += 1.0 / i;
  }
}

TEST(ProfilerTest, LiveSamplingCapturesBurningThread) {
  Profiler profiler;
  ASSERT_TRUE(profiler.Start().ok());

  std::atomic<bool> stop{false};
  std::thread burner([&stop] {
    RegisterProfilingThread("cf-burner");
    BurnCpu(stop);
  });

  const auto report = profiler.Collect(0.5);
  stop.store(true);
  burner.join();
  ASSERT_TRUE(profiler.Stop().ok());

  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // 0.5 s of a pegged core at 97 Hz yields ~48 ticks; demand a loose
  // floor so loaded CI machines cannot flake this.
  EXPECT_GT(report->samples, 5u) << report->folded;
  EXPECT_NE(report->folded.find("cf-burner;"), std::string::npos)
      << report->folded;
}

}  // namespace

// Busy in registers only: no call and no memory access (which sanitizers
// would turn into calls), so a tick that lands on this thread interrupts this
// function itself. Outside the anonymous namespace so dladdr can name it.
__attribute__((noinline)) double ProfilerTestBusyLeaf(double x,
                                                      int64_t iterations) {
  for (int64_t i = 0; i < iterations; ++i) x = x * 0.999999 + 1e-7;
  return x;
}

namespace {

TEST(ProfilerTest, InterruptedFunctionIsTheLeaf) {
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "TSan holds signals until the thread's next intercepted "
                  "call, so no tick lands inside a call-free function";
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  GTEST_SKIP() << "TSan holds signals until the thread's next intercepted "
                  "call, so no tick lands inside a call-free function";
#endif
#endif
  Profiler profiler;
  ASSERT_TRUE(profiler.Start().ok());

  std::atomic<bool> stop{false};
  std::atomic<double> result{0};
  // Read at run time, so the compiler makes no constant-argument clone (a
  // local symbol dladdr cannot name) of the busy function.
  std::atomic<int64_t> iterations{1 << 20};
  std::thread burner([&] {
    RegisterProfilingThread("cf-leaf");
    double x = 1.0;
    while (!stop.load(std::memory_order_relaxed)) {
      x = ProfilerTestBusyLeaf(x, iterations.load(std::memory_order_relaxed));
    }
    result.store(x);
  });

  const auto report = profiler.Collect(0.5);
  stop.store(true);
  burner.join();
  ASSERT_TRUE(profiler.Stop().ok());
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Folded lines run root first, leaf last, then a count.
  uint64_t samples = 0;
  uint64_t in_leaf = 0;
  size_t pos = 0;
  while (pos < report->folded.size()) {
    const size_t eol = report->folded.find('\n', pos);
    const std::string line = report->folded.substr(pos, eol - pos);
    pos = eol == std::string::npos ? report->folded.size() : eol + 1;
    if (line.rfind("cf-leaf;", 0) != 0) continue;
    const size_t count_at = line.rfind(' ');
    const uint64_t count = std::stoull(line.substr(count_at + 1));
    const std::string stack = line.substr(0, count_at);
    const std::string leaf = stack.substr(stack.rfind(';') + 1);
    samples += count;
    if (leaf.find("ProfilerTestBusyLeaf") != std::string::npos) {
      in_leaf += count;
    }
  }
  EXPECT_GT(samples, 5u) << report->folded;
  EXPECT_GT(2 * in_leaf, samples) << report->folded;
}

TEST(ProfilerTest, CollectSyncsSelfMetrics) {
  MetricsRegistry registry;
  ProfilerOptions options;
  options.metrics = &registry;
  Profiler profiler(options);
  ASSERT_TRUE(profiler.Start().ok());

  std::atomic<bool> stop{false};
  std::thread burner([&stop] { BurnCpu(stop); });
  const auto report = profiler.Collect(0.3);
  stop.store(true);
  burner.join();
  ASSERT_TRUE(profiler.Stop().ok());
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("cf_profiler_samples_total"), std::string::npos);
  EXPECT_NE(text.find("cf_profiler_drops_total"), std::string::npos);
  EXPECT_NE(text.find("cf_profiler_overhead_seconds"), std::string::npos);
  EXPECT_NE(text.find("cf_profiler_hz 97"), std::string::npos);
  EXPECT_GE(registry.GetCounter("cf_profiler_samples_total")->Value(),
            report->samples);
}

TEST(ProfilerTest, DepthTruncatesAtConfiguredLimit) {
  ProfilerOptions options;
  options.max_depth = 3;
  Profiler profiler(options);
  std::vector<void*> frames;
  for (uintptr_t i = 1; i <= 10; ++i) frames.push_back(FakeFrame(i << 12));
  EXPECT_TRUE(profiler.RecordSample(frames.data(),
                                    static_cast<int>(frames.size())));
  const std::string folded = profiler.RenderFolded();
  // thread prefix + 3 retained frames = 3 ';' separators on the line.
  const std::string line = folded.substr(0, folded.find('\n'));
  EXPECT_EQ(std::count(line.begin(), line.end(), ';'), 3) << line;
}

}  // namespace
}  // namespace obs
}  // namespace causalformer

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "util/csv.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace causalformer {
namespace {

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, NormalMomentsApproximatelyStandard) {
  Rng rng(11);
  const int n = 200000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, UniformIntIsUnbiasedOverSmallRange) {
  Rng rng(13);
  int counts[5] = {0};
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[rng.UniformInt(5)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.2, 0.02);
  }
}

TEST(RngTest, UniformIntRespectsBound) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(3);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 3);
  }
}

TEST(RngTest, SplitStreamsAreDecorrelated) {
  Rng parent(19);
  Rng child = parent.Split();
  std::set<uint64_t> seen;
  for (int i = 0; i < 100; ++i) {
    seen.insert(parent.Next());
    seen.insert(child.Next());
  }
  EXPECT_EQ(seen.size(), 200u);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesMessage) {
  Status s = Status::InvalidArgument("bad dims");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.ToString().find("bad dims"), std::string::npos);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(Status::NotFound("missing"));
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StringUtilTest, StrFormatBasics) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.2345), "1.23");
}

TEST(StringUtilTest, SplitJoinRoundTrip) {
  const auto parts = StrSplit("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(StrJoin(parts, ","), "a,b,,c");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(StrTrim("  x y\t\n"), "x y");
  EXPECT_EQ(StrTrim(""), "");
  EXPECT_EQ(StrTrim("   "), "");
}

TEST(StringUtilTest, MeanStdRendering) {
  EXPECT_EQ(MeanStd(0.68, 0.08), "0.68\xC2\xB1"
                                 "0.08");
}

TEST(TableTest, AlignsColumns) {
  Table t({"Dataset", "F1"});
  t.AddRow({"Diamond", "0.68"});
  t.AddRow({"V-structure", "0.77"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("Dataset"), std::string::npos);
  EXPECT_NE(s.find("V-structure"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("-------"), std::string::npos);
}

TEST(TableTest, MarkdownShape) {
  Table t({"a", "b"});
  t.AddRow({"1", "2"});
  const std::string md = t.ToMarkdown();
  EXPECT_NE(md.find("| a | b |"), std::string::npos);
  EXPECT_NE(md.find("|---|---|"), std::string::npos);
}

// The chunks one ParallelFor call ran: (begin, end, thread) per fn call.
struct Chunk {
  int64_t begin;
  int64_t end;
  std::thread::id thread;
};

std::vector<Chunk> RecordChunks(int64_t n, int64_t item_cost) {
  std::mutex mu;
  std::vector<Chunk> chunks;
  ParallelFor(n, item_cost, [&](int64_t b, int64_t e) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.push_back({b, e, std::this_thread::get_id()});
  });
  return chunks;
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(1000, kMinTaskWork / 8, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, WorkBelowThresholdRunsInlineOnCaller) {
  // Below two tasks' worth of kMinTaskWork nothing is queued: one fn(0, n)
  // on the calling thread, however many items or workers there are.
  const std::thread::id caller = std::this_thread::get_id();
  for (const auto& [n, cost] : std::vector<std::pair<int64_t, int64_t>>{
           {1, kMinTaskWork * 64},  // one item never splits
           {2, kMinTaskWork - 1},   // just under two tasks
           {4096, 1},               // many tiny items
           {64, (2 * kMinTaskWork - 1) / 64}}) {
    const std::vector<Chunk> chunks = RecordChunks(n, cost);
    ASSERT_EQ(chunks.size(), 1u) << "n=" << n << " cost=" << cost;
    EXPECT_EQ(chunks[0].begin, 0);
    EXPECT_EQ(chunks[0].end, n);
    EXPECT_EQ(chunks[0].thread, caller);
  }
}

TEST(ThreadPoolTest, WorkAboveThresholdIsSplit) {
  const int workers = ThreadPool::Global().num_threads();
  if (workers <= 1) GTEST_SKIP() << "a one-worker pool never splits";
  for (const auto& [n, cost] : std::vector<std::pair<int64_t, int64_t>>{
           {2, kMinTaskWork},       // exactly two tasks
           {8, kMinTaskWork},       // more tasks than workers
           {1000, kMinTaskWork / 8}}) {
    std::vector<Chunk> chunks = RecordChunks(n, cost);
    const int64_t tasks = n / ((kMinTaskWork + cost - 1) / cost);
    EXPECT_EQ(static_cast<int64_t>(chunks.size()),
              std::min<int64_t>(workers, tasks))
        << "n=" << n << " cost=" << cost;
    // The chunks tile [0, n), each worth at least one task, and the caller
    // runs the first one itself.
    std::sort(chunks.begin(), chunks.end(),
              [](const Chunk& x, const Chunk& y) { return x.begin < y.begin; });
    int64_t next = 0;
    for (const Chunk& c : chunks) {
      EXPECT_EQ(c.begin, next);
      EXPECT_GE((c.end - c.begin) * cost, kMinTaskWork);
      next = c.end;
    }
    EXPECT_EQ(next, n);
    EXPECT_EQ(chunks.front().thread, std::this_thread::get_id());
  }
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  std::atomic<int64_t> total{0};
  ParallelFor(8, kMinTaskWork, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) {
      ParallelFor(100, kMinTaskWork, [&](int64_t bb, int64_t ee) {
        total.fetch_add(ee - bb);
      });
    }
  });
  EXPECT_EQ(total.load(), 800);
}

TEST(ThreadPoolTest, DeeplyNestedParallelForRunsInline) {
  // Detector-under-serving shape: pool task -> matmul -> ParallelFor again.
  std::atomic<int64_t> total{0};
  ParallelFor(4, kMinTaskWork, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) {
      ParallelFor(4, kMinTaskWork, [&](int64_t bb, int64_t ee) {
        for (int64_t j = bb; j < ee; ++j) {
          ParallelFor(10, kMinTaskWork,
                      [&](int64_t bbb, int64_t eee) { total += eee - bbb; });
        }
      });
    }
  });
  EXPECT_EQ(total.load(), 160);
}

TEST(ThreadPoolTest, ConcurrentCallersDoNotWaitOnEachOther) {
  // Each call tracks only its own chunks with a per-call latch, so one
  // caller's completion never depends on another thread's tasks. Hammer the
  // pool from many threads at once with calls big enough to split; each
  // call must see exactly its own range, and all must terminate.
  constexpr int kThreads = 8;
  constexpr int kIterations = 50;
  std::vector<std::thread> threads;
  std::vector<std::atomic<int64_t>> sums(kThreads);
  for (auto& s : sums) s = 0;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &sums] {
      for (int it = 0; it < kIterations; ++it) {
        ParallelFor(64, kMinTaskWork, [&sums, t](int64_t b, int64_t e) {
          for (int64_t i = b; i < e; ++i) sums[t] += i;
        });
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(sums[t].load(), kIterations * (64 * 63 / 2));
  }
}

TEST(ThreadPoolTest, EmptyRangeIsNoop) {
  bool called = false;
  ParallelFor(0, kMinTaskWork, [&](int64_t, int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(CsvTest, WriteReadRoundTrip) {
  const std::string path = testing::TempDir() + "/cf_csv_test.csv";
  const std::vector<std::vector<double>> rows = {{1.5, -2.0}, {3.25, 4.0}};
  ASSERT_TRUE(WriteCsv(path, rows, {"x", "y"}).ok());
  auto readback = ReadCsv(path, /*skip_header=*/true);
  ASSERT_TRUE(readback.ok());
  ASSERT_EQ(readback->size(), 2u);
  EXPECT_DOUBLE_EQ((*readback)[0][0], 1.5);
  EXPECT_DOUBLE_EQ((*readback)[1][1], 4.0);
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileIsNotFound) {
  auto r = ReadCsv("/nonexistent/place/file.csv");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(CsvTest, RejectsNonNumericField) {
  const std::string path = testing::TempDir() + "/cf_csv_bad.csv";
  {
    std::vector<std::vector<double>> rows = {{1.0}};
    ASSERT_TRUE(WriteCsv(path, rows).ok());
    FILE* f = std::fopen(path.c_str(), "a");
    std::fputs("oops,1\n", f);
    std::fclose(f);
  }
  auto r = ReadCsv(path);
  EXPECT_FALSE(r.ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace causalformer

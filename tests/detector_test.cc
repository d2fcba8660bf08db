#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "core/causalformer.h"
#include "core/detector.h"
#include "data/synthetic.h"
#include "data/windowing.h"
#include "graph/metrics.h"
#include "tensor/simd.h"

namespace causalformer {
namespace {

using core::CausalFormer;
using core::CausalFormerOptions;
using core::DetectionResult;
using core::DetectorOptions;

// A strongly coupled bivariate system: S0 -> S1 at lag 1 plus self-loops.
data::Dataset StrongBivariate(Rng* rng, int64_t length = 600) {
  const int64_t burn = 20;
  std::vector<float> x0(length + burn), x1(length + burn);
  x0[0] = static_cast<float>(rng->Normal());
  x1[0] = 0.0f;
  for (int64_t t = 1; t < length + burn; ++t) {
    x0[t] = 0.3f * x0[t - 1] + 0.8f * static_cast<float>(rng->Normal());
    x1[t] = 0.3f * x1[t - 1] + 1.2f * x0[t - 1] +
            0.2f * static_cast<float>(rng->Normal());
  }
  Tensor series = Tensor::Zeros(Shape{2, length});
  for (int64_t t = 0; t < length; ++t) {
    series.at({0, t}) = x0[t + burn];
    series.at({1, t}) = x1[t + burn];
  }
  data::StandardizeSeries(series);
  CausalGraph truth(2);
  truth.AddEdge(0, 1, 1);
  truth.AddEdge(0, 0, 1);
  truth.AddEdge(1, 1, 1);
  return data::Dataset("bivariate", std::move(series), std::move(truth));
}

CausalFormerOptions SmallConfig(int n) {
  CausalFormerOptions opt = CausalFormerOptions::ForSeries(n, /*window=*/8);
  opt.model.d_model = 16;
  opt.model.d_qk = 16;
  opt.model.heads = 2;
  opt.model.d_ffn = 16;
  opt.train.max_epochs = 25;
  opt.train.stride = 2;
  return opt;
}

TEST(DetectorTest, RecoversStrongBivariateCause) {
  Rng rng(21);
  const data::Dataset ds = StrongBivariate(&rng);
  CausalFormer cf(SmallConfig(2), &rng);
  cf.Fit(ds.series, &rng);
  const DetectionResult res = cf.Discover();
  // The driving edge S0 -> S1 must carry a higher score than the spurious
  // reverse direction.
  EXPECT_GT(res.scores.at(0, 1), res.scores.at(1, 0));
  EXPECT_TRUE(res.graph.HasEdge(0, 1));
}

TEST(DetectorTest, ScoresAreNonNegativeAndFinite) {
  Rng rng(22);
  const data::Dataset ds = StrongBivariate(&rng, 300);
  CausalFormer cf(SmallConfig(2), &rng);
  cf.Fit(ds.series, &rng);
  const DetectionResult res = cf.Discover();
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) {
      EXPECT_GE(res.scores.at(i, j), 0.0);
      EXPECT_TRUE(std::isfinite(res.scores.at(i, j)));
      EXPECT_GE(res.delays[i][j], 0);
      EXPECT_LE(res.delays[i][j], 8);
    }
  }
}

TEST(DetectorTest, AblationVariantsProduceGraphs) {
  Rng rng(23);
  const data::Dataset ds = StrongBivariate(&rng, 300);
  CausalFormer cf(SmallConfig(2), &rng);
  cf.Fit(ds.series, &rng);

  DetectorOptions base;
  for (const bool interpretation : {true, false}) {
    for (const bool relevance : {true, false}) {
      for (const bool gradient : {true, false}) {
        if (!relevance && !gradient) continue;  // no signal source
        DetectorOptions opt = base;
        opt.use_interpretation = interpretation;
        opt.use_relevance = relevance;
        opt.use_gradient = gradient;
        const DetectionResult res = cf.Discover(opt);
        EXPECT_EQ(res.graph.num_series(), 2);
        // Every produced score must be finite.
        for (int i = 0; i < 2; ++i) {
          for (int j = 0; j < 2; ++j) {
            EXPECT_TRUE(std::isfinite(res.scores.at(i, j)));
          }
        }
      }
    }
  }
}

TEST(DetectorTest, WithoutBiasAblationRuns) {
  Rng rng(24);
  const data::Dataset ds = StrongBivariate(&rng, 300);
  CausalFormer cf(SmallConfig(2), &rng);
  cf.Fit(ds.series, &rng);
  DetectorOptions opt;
  opt.bias_absorption = false;
  const DetectionResult res = cf.Discover(opt);
  EXPECT_GT(res.scores.at(0, 1), 0.0);
}

TEST(DetectorTest, DelayMappingEq20) {
  // Verify the tap -> delay arithmetic directly: build a model, overwrite
  // one kernel with a spike at a known tap, and check the reported delay.
  Rng rng(25);
  core::ModelOptions mopt;
  mopt.num_series = 2;
  mopt.window = 8;
  mopt.d_model = 8;
  mopt.d_qk = 8;
  mopt.heads = 1;
  mopt.d_ffn = 8;
  core::CausalityTransformer model(mopt, &rng);

  // Kernel layout [from, to, tap]: tap T-1-l corresponds to lag l.
  Tensor kernel = model.kernel();
  float* pk = kernel.data();
  for (int64_t i = 0; i < kernel.numel(); ++i) pk[i] = 0.01f;
  // Edge 0 -> 1 with lag 3: spike at tap T-1-3 = 4.
  kernel.at({0, 1, 4}) = 5.0f;

  Rng drng(26);
  Tensor windows = Tensor::Randn(Shape{8, 2, 8}, &drng);
  core::DetectorOptions dopt;
  dopt.max_windows = 8;
  const DetectionResult res = core::DetectCausalGraph(model, windows, dopt);
  EXPECT_EQ(res.delays[0][1], 3);
}

TEST(DetectorTest, SelfDelayIncludesShiftCorrection) {
  Rng rng(27);
  core::ModelOptions mopt;
  mopt.num_series = 2;
  mopt.window = 8;
  mopt.d_model = 8;
  mopt.d_qk = 8;
  mopt.heads = 1;
  mopt.d_ffn = 8;
  core::CausalityTransformer model(mopt, &rng);
  Tensor kernel = model.kernel();
  for (int64_t i = 0; i < kernel.numel(); ++i) kernel.data()[i] = 0.01f;
  // Self edge 1 -> 1, spike at tap T-1 (lag 0 pre-shift) => delay 1 after
  // the diagonal right shift.
  kernel.at({1, 1, 7}) = 5.0f;
  Rng drng(28);
  Tensor windows = Tensor::Randn(Shape{8, 2, 8}, &drng);
  const DetectionResult res = core::DetectCausalGraph(model, windows, {});
  EXPECT_EQ(res.delays[1][1], 1);
}

TEST(DetectorTest, MaxWindowsLimitsInterpretationBatch) {
  Rng rng(29);
  const data::Dataset ds = StrongBivariate(&rng, 200);
  CausalFormer cf(SmallConfig(2), &rng);
  cf.Fit(ds.series, &rng);
  DetectorOptions opt;
  opt.max_windows = 2;  // tiny interpretation batch must still work
  const DetectionResult res = cf.Discover(opt);
  EXPECT_EQ(res.graph.num_series(), 2);
}

// FNV-1a over the raw bits of every score, delay and edge of each result.
uint64_t HashResults(const std::vector<DetectionResult>& results) {
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](const void* p, size_t bytes) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < bytes; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  };
  for (const DetectionResult& r : results) {
    const int n = r.scores.num_series();
    for (int from = 0; from < n; ++from) {
      for (int to = 0; to < n; ++to) {
        const double s = r.scores.at(from, to);
        mix(&s, sizeof(s));
        mix(&r.delays[from][to], sizeof(int));
      }
    }
    for (const CausalEdge& e : r.graph.edges()) {
      mix(&e.from, sizeof(e.from));
      mix(&e.to, sizeof(e.to));
      mix(&e.delay, sizeof(e.delay));
      mix(&e.score, sizeof(e.score));
    }
  }
  return h;
}

// The scalar kernel table reproduces the seed's arithmetic, so the batched
// detector's scalar output is pinned end to end: two requests of different
// window counts, through each Table 3 detector variant. The first five
// constants were recorded before the tape walks were pruned, the sixth (the
// shared-kernel model) before the per-target walks became one; any change to
// the walks, the vjps or the scoring that moves a single bit fails here. They
// assume an IEEE-754 host whose libm expf matches glibc's.
TEST(DetectorTest, ScalarOutputIsPinnedPerVariant) {
  core::ModelOptions mopt;
  mopt.num_series = 4;
  mopt.window = 8;
  mopt.d_model = 16;
  mopt.d_qk = 16;
  mopt.heads = 2;
  mopt.d_ffn = 16;
  // Nonzero biases, so the bias-absorption variant takes a different path.
  auto randomize_biases = [](core::CausalityTransformer* model) {
    Rng brng(42);
    for (auto& [name, p] : model->NamedParameters()) {
      if (name.rfind("b_", 0) != 0 && name.find("bias") == std::string::npos) {
        continue;
      }
      for (int64_t i = 0; i < p.numel(); ++i) {
        p.data()[i] = 0.1f * static_cast<float>(brng.Normal());
      }
    }
  };
  Rng rng(41);
  core::CausalityTransformer model(mopt, &rng);
  randomize_biases(&model);
  // "w/o multi conv kernel": one [N, 1, T] kernel shared across targets.
  core::ModelOptions shared_opt = mopt;
  shared_opt.multi_kernel = false;
  Rng shared_rng(41);
  core::CausalityTransformer shared_model(shared_opt, &shared_rng);
  randomize_biases(&shared_model);
  Rng wrng(43);
  const std::vector<Tensor> requests = {Tensor::Randn(Shape{3, 4, 8}, &wrng),
                                        Tensor::Randn(Shape{5, 4, 8}, &wrng)};

  struct Variant {
    const char* name;
    const core::CausalityTransformer* model;
    DetectorOptions options;
    uint64_t expected;
  };
  std::vector<Variant> variants(6);
  variants[0] = {"full", &model, {}, 0x9c17936f7ac833cfull};
  variants[1] = {"w/o relevance", &model, {}, 0x5338e1187de8ff07ull};
  variants[1].options.use_relevance = false;
  variants[2] = {"w/o gradient", &model, {}, 0x0dbe21e82c63c41dull};
  variants[2].options.use_gradient = false;
  variants[3] = {"w/o bias", &model, {}, 0xf53e31ccd5a78504ull};
  variants[3].options.bias_absorption = false;
  variants[4] = {"w/o interpretation", &model, {}, 0x8dec09f1fb56352aull};
  variants[4].options.use_interpretation = false;
  variants[5] = {"w/o multi conv kernel", &shared_model, {},
                 0x6b45be61ae373e43ull};

  const simd::IsaLevel saved = simd::ActiveLevel();
  simd::SetLevelForTesting(simd::IsaLevel::kScalar);
  std::vector<uint64_t> got;
  for (const Variant& v : variants) {
    got.push_back(HashResults(
        core::DetectCausalGraphBatched(*v.model, requests, v.options)));
  }
  simd::SetLevelForTesting(saved);
  for (size_t i = 0; i < variants.size(); ++i) {
    EXPECT_EQ(got[i], variants[i].expected)
        << variants[i].name << ": 0x" << std::hex << got[i];
  }
}

// The AVX2 table's detector output, pinned the same way: the six variants
// above, plus one N = 15, T = 16 request (the stream geometry, whose
// attention rows straddle the 8-lane width). The constants were recorded
// before the attention path, the activations and the short matmul rows moved
// onto exact kernel-table entries; a kernel change that moves any AVX2 bit
// fails here.
TEST(DetectorTest, Avx2OutputIsPinnedPerVariant) {
  if (simd::TableForLevel(simd::IsaLevel::kAvx2) == nullptr) {
    GTEST_SKIP() << "no AVX2 kernel table in this build or on this CPU";
  }
  core::ModelOptions mopt;
  mopt.num_series = 4;
  mopt.window = 8;
  mopt.d_model = 16;
  mopt.d_qk = 16;
  mopt.heads = 2;
  mopt.d_ffn = 16;
  auto randomize_biases = [](core::CausalityTransformer* model) {
    Rng brng(42);
    for (auto& [name, p] : model->NamedParameters()) {
      if (name.rfind("b_", 0) != 0 && name.find("bias") == std::string::npos) {
        continue;
      }
      for (int64_t i = 0; i < p.numel(); ++i) {
        p.data()[i] = 0.1f * static_cast<float>(brng.Normal());
      }
    }
  };
  Rng rng(41);
  core::CausalityTransformer model(mopt, &rng);
  randomize_biases(&model);
  core::ModelOptions shared_opt = mopt;
  shared_opt.multi_kernel = false;
  Rng shared_rng(41);
  core::CausalityTransformer shared_model(shared_opt, &shared_rng);
  randomize_biases(&shared_model);
  Rng wrng(43);
  const std::vector<Tensor> requests = {Tensor::Randn(Shape{3, 4, 8}, &wrng),
                                        Tensor::Randn(Shape{5, 4, 8}, &wrng)};
  // The stream geometry: N = 15, T = 16, d = 32.
  core::ModelOptions wide_opt = mopt;
  wide_opt.num_series = 15;
  wide_opt.window = 16;
  wide_opt.d_model = 32;
  wide_opt.d_qk = 32;
  wide_opt.d_ffn = 32;
  Rng wide_rng(44);
  core::CausalityTransformer wide_model(wide_opt, &wide_rng);
  randomize_biases(&wide_model);
  const std::vector<Tensor> wide_requests = {
      Tensor::Randn(Shape{6, 15, 16}, &wrng)};

  struct Variant {
    const char* name;
    const core::CausalityTransformer* model;
    const std::vector<Tensor>* requests;
    DetectorOptions options;
    uint64_t expected;
  };
  std::vector<Variant> variants(7);
  variants[0] = {"full", &model, &requests, {}, 0x7f4041ea779179d5ull};
  variants[1] = {"w/o relevance", &model, &requests, {},
                 0x7c230c249693fdf7ull};
  variants[1].options.use_relevance = false;
  variants[2] = {"w/o gradient", &model, &requests, {},
                 0x09afb96fa94233b0ull};
  variants[2].options.use_gradient = false;
  variants[3] = {"w/o bias", &model, &requests, {}, 0x67c914b667b25a14ull};
  variants[3].options.bias_absorption = false;
  variants[4] = {"w/o interpretation", &model, &requests, {},
                 0xce139286d00f58fbull};
  variants[4].options.use_interpretation = false;
  variants[5] = {"w/o multi conv kernel", &shared_model, &requests, {},
                 0x147501fb1aa2ec5aull};
  variants[6] = {"N=15, T=16", &wide_model, &wide_requests, {},
                 0x99017ebf85c2310eull};

  const simd::IsaLevel saved = simd::ActiveLevel();
  simd::SetLevelForTesting(simd::IsaLevel::kAvx2);
  std::vector<uint64_t> got;
  for (const Variant& v : variants) {
    got.push_back(HashResults(
        core::DetectCausalGraphBatched(*v.model, *v.requests, v.options)));
  }
  simd::SetLevelForTesting(saved);
  for (size_t i = 0; i < variants.size(); ++i) {
    EXPECT_EQ(got[i], variants[i].expected)
        << variants[i].name << ": 0x" << std::hex << got[i];
  }
}

}  // namespace
}  // namespace causalformer

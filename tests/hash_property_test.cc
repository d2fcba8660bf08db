#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/detector.h"
#include "serve/score_cache.h"
#include "stream/ring_series.h"
#include "tensor/tensor.h"
#include "util/rng.h"

// Property tests for the hash/key machinery the in-flight dedup and score
// cache stand on. Two families of invariants:
//
//  1. Identity: RollingWindowHasher digests are bit-identical to
//     serve::HashWindows over the materialised tensor, across randomized
//     series counts, widths, strides, append chunkings and ring wraps — so
//     an incrementally hashed stream window and a tensor-hashed ad-hoc query
//     land on the same dedup/cache key whenever their bytes agree.
//
//  2. Separation: epsilon- and data-perturbations of the smallest
//     representable step, every single-bit flip of a window element (in
//     each hash lane on its own), and every detector-option field produce
//     distinct fingerprints — dedup must never coalesce work the detector
//     would treat differently.

namespace causalformer {
namespace stream {
namespace {

// Deterministic "random" int in [lo, hi] drawn from the test rng.
int64_t RandInt(Rng* rng, int64_t lo, int64_t hi) {
  const Tensor t = Tensor::Randn(Shape{1}, rng);
  const double unit = 0.5 * (1.0 + std::erf(t.data()[0] / std::sqrt(2.0)));
  const auto span = static_cast<double>(hi - lo + 1);
  int64_t v = lo + static_cast<int64_t>(unit * span);
  if (v > hi) v = hi;
  if (v < lo) v = lo;
  return v;
}

TEST(HashPropertyTest, RollingHasherMatchesHashWindowsRandomized) {
  Rng rng(2027);
  constexpr int kTrials = 40;
  int windows_checked = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const int64_t n = RandInt(&rng, 1, 6);
    const int64_t width = RandInt(&rng, 1, 10);
    const int64_t stride = RandInt(&rng, 1, 6);
    // Capacities down at width+stride force ring wrap-around; larger ones
    // keep long histories — both must hash identically.
    const int64_t capacity = width + stride * RandInt(&rng, 1, 4);
    const int64_t length = capacity + stride * RandInt(&rng, 2, 6);

    RingSeries ring(n, capacity);
    RollingWindowHasher hasher(n, capacity);
    const Tensor series = Tensor::Randn(Shape{n, length}, &rng);

    int64_t fed = 0;
    int64_t next_end = width;
    while (fed < length) {
      // Random chunking: appends of 1..stride+2 columns, so digest batches
      // never line up with window boundaries by construction.
      const int64_t chunk = std::min(RandInt(&rng, 1, stride + 2),
                                     length - fed);
      const Tensor samples = Slice(series, 1, fed, fed + chunk).Detach();
      ASSERT_TRUE(ring.Append(samples).ok());
      ASSERT_TRUE(hasher.Append(samples).ok());
      fed += chunk;

      for (; next_end <= fed; next_end += stride) {
        if (next_end - width < ring.oldest()) continue;  // overwritten
        const auto window = ring.Window(next_end, width);
        const auto rolling = hasher.Window(next_end, width);
        ASSERT_TRUE(window.ok() && rolling.ok());
        const serve::WindowHash full = serve::HashWindows(*window);
        EXPECT_TRUE(*rolling == full)
            << "trial " << trial << " n=" << n << " width=" << width
            << " stride=" << stride << " end=" << next_end;
        ++windows_checked;
      }
    }
  }
  // The property actually covered a meaningful sample of geometries.
  EXPECT_GT(windows_checked, 100);
}

TEST(HashPropertyTest, SingleUlpWindowPerturbationsNeverCollide) {
  Rng rng(2028);
  const Tensor base = Tensor::Randn(Shape{1, 4, 8}, &rng);
  const serve::WindowHash base_hash = serve::HashWindows(base);

  std::set<std::pair<uint64_t, uint64_t>> seen;
  seen.emplace(base_hash.lo, base_hash.hi);
  // Perturb every element, one at a time, by one ulp in each direction: the
  // perturbed request set of the stress harness, exhaustively.
  for (int64_t i = 0; i < base.numel(); ++i) {
    for (const float towards : {2.0f, -2.0f}) {
      Tensor perturbed = base.Clone();
      float& cell = perturbed.data()[i];
      const float next = std::nextafterf(cell, towards * (cell == 0 ? 1 : cell));
      ASSERT_NE(next, cell);
      cell = next;
      const serve::WindowHash hash = serve::HashWindows(perturbed);
      EXPECT_FALSE(hash == base_hash) << "element " << i;
      EXPECT_TRUE(seen.emplace(hash.lo, hash.hi).second)
          << "collision at element " << i;
    }
  }
}

TEST(HashPropertyTest, EverySingleBitFlipSeparatesBothLanes) {
  // Each lane on its own separates one-element changes: every single-bit
  // flip of every element, over several batch rows and an odd series count,
  // moves `lo` and `hi` alike, and no two flips share a `lo` or a `hi`.
  Rng rng(2030);
  Tensor windows = Tensor::Randn(Shape{3, 5, 40}, &rng);
  const serve::WindowHash base = serve::HashWindows(windows);
  std::set<uint64_t> los{base.lo};
  std::set<uint64_t> his{base.hi};
  for (int64_t i = 0; i < windows.numel(); ++i) {
    float* cell = windows.data() + i;
    const float original = *cell;
    for (int bit = 0; bit < 32; ++bit) {
      uint32_t bits;
      std::memcpy(&bits, cell, sizeof(bits));
      bits ^= 1u << bit;
      std::memcpy(cell, &bits, sizeof(bits));
      const serve::WindowHash hash = serve::HashWindows(windows);
      *cell = original;
      ASSERT_TRUE(los.insert(hash.lo).second)
          << "lo collides at element " << i << " bit " << bit;
      ASSERT_TRUE(his.insert(hash.hi).second)
          << "hi collides at element " << i << " bit " << bit;
    }
  }
  EXPECT_EQ(los.size(), 1u + 32u * 3 * 5 * 40);
  EXPECT_EQ(his.size(), los.size());
}

// The options key's bytes, as an ordered set element.
std::string Fingerprint(const core::DetectorOptions& options) {
  return std::string(serve::EncodeDetectorOptions(options).view());
}

TEST(HashPropertyTest, EpsilonFingerprintsNeverCollide) {
  // Walk epsilon through consecutive representable floats and a spread of
  // magnitudes: every distinct bit pattern must produce a distinct options
  // fingerprint (the cache/dedup key component).
  std::set<std::string> fingerprints;
  core::DetectorOptions options;
  float epsilon = 1e-6f;
  for (int i = 0; i < 200; ++i) {
    options.epsilon = epsilon;
    EXPECT_TRUE(fingerprints.insert(Fingerprint(options)).second)
        << "ulp step " << i;
    epsilon = std::nextafterf(epsilon, 1.0f);
  }
  for (const float magnitude : {1e-8f, 1e-7f, 2e-6f, 1e-3f, 0.5f}) {
    options.epsilon = magnitude;
    EXPECT_TRUE(fingerprints.insert(Fingerprint(options)).second);
  }
  EXPECT_EQ(fingerprints.size(), 205u);
}

TEST(HashPropertyTest, EveryOptionFieldAffectsTheFingerprint) {
  const core::DetectorOptions base;
  const serve::OptionsKey base_fp = serve::EncodeDetectorOptions(base);

  const auto differs = [&](core::DetectorOptions changed) {
    return serve::EncodeDetectorOptions(changed) != base_fp;
  };
  core::DetectorOptions o = base;
  o.num_clusters = 3;
  EXPECT_TRUE(differs(o));
  o = base;
  o.top_clusters = 2;
  EXPECT_TRUE(differs(o));
  o = base;
  o.max_windows = 64;
  EXPECT_TRUE(differs(o));
  o = base;
  o.use_interpretation = false;
  EXPECT_TRUE(differs(o));
  o = base;
  o.use_relevance = false;
  EXPECT_TRUE(differs(o));
  o = base;
  o.use_gradient = false;
  EXPECT_TRUE(differs(o));
  o = base;
  o.bias_absorption = false;
  EXPECT_TRUE(differs(o));
  o = base;
  o.epsilon = std::nextafterf(base.epsilon, 1.0f);
  EXPECT_TRUE(differs(o));
}

TEST(HashPropertyTest, DistinctGenerationsAndModelsSeparateKeys) {
  // The remaining key components: same window + options under a different
  // model name or registry generation must compare (and hash) apart.
  Rng rng(2029);
  const Tensor windows = Tensor::Randn(Shape{1, 3, 8}, &rng);
  serve::CacheKey a{"m", serve::HashWindows(windows),
                    serve::EncodeDetectorOptions(core::DetectorOptions()), 1};
  serve::CacheKey b = a;
  EXPECT_TRUE(a == b);
  b.generation = 2;
  EXPECT_FALSE(a == b);
  b = a;
  b.model = "m2";
  EXPECT_FALSE(a == b);
  b = a;
  core::DetectorOptions other;
  other.use_relevance = false;
  b.options = serve::EncodeDetectorOptions(other);
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace stream
}  // namespace causalformer

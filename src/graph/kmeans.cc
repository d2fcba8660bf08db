#include "graph/kmeans.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/logging.h"

namespace causalformer {

void KMeans1dInto(const double* values, int n, int k, int max_iterations,
                  KMeans1dScratch* scratch) {
  CF_CHECK_GT(n, 0);
  CF_CHECK_GT(k, 0);
  KMeans1dScratch& s = *scratch;
  KMeans1dResult& result = s.result;

  // Clamp k to the number of distinct values so no cluster starts empty.
  s.sorted.assign(values, values + n);
  std::sort(s.sorted.begin(), s.sorted.end());
  s.sorted.erase(std::unique(s.sorted.begin(), s.sorted.end()),
                 s.sorted.end());
  k = std::min<int>(k, static_cast<int>(s.sorted.size()));

  // Quantile initialisation over the distinct sorted values.
  std::vector<double>& centroids = s.centroids;
  centroids.resize(static_cast<size_t>(k));
  for (int c = 0; c < k; ++c) {
    const size_t idx =
        static_cast<size_t>((s.sorted.size() - 1) * (c + 0.5) / k + 0.5);
    centroids[c] = s.sorted[std::min(idx, s.sorted.size() - 1)];
  }

  result.assignment.assign(static_cast<size_t>(n), 0);
  result.iterations = 0;
  for (int iter = 0; iter < max_iterations; ++iter) {
    bool changed = false;
    // Assign.
    for (int i = 0; i < n; ++i) {
      int best = 0;
      double best_d = std::fabs(values[i] - centroids[0]);
      for (int c = 1; c < k; ++c) {
        const double d = std::fabs(values[i] - centroids[c]);
        if (d < best_d) {
          best_d = d;
          best = c;
        }
      }
      if (result.assignment[i] != best) {
        result.assignment[i] = best;
        changed = true;
      }
    }
    // Update.
    s.sum.assign(static_cast<size_t>(k), 0.0);
    s.count.assign(static_cast<size_t>(k), 0);
    for (int i = 0; i < n; ++i) {
      s.sum[result.assignment[i]] += values[i];
      ++s.count[result.assignment[i]];
    }
    for (int c = 0; c < k; ++c) {
      if (s.count[c] > 0) centroids[c] = s.sum[c] / s.count[c];
    }
    result.iterations = iter + 1;
    if (!changed && iter > 0) break;
  }

  // Renumber clusters so centroids are ascending.
  s.order.resize(static_cast<size_t>(k));
  for (int c = 0; c < k; ++c) s.order[c] = c;
  std::sort(s.order.begin(), s.order.end(),
            [&](int a, int b) { return centroids[a] < centroids[b]; });
  s.rank.resize(static_cast<size_t>(k));
  for (int pos = 0; pos < k; ++pos) s.rank[s.order[pos]] = pos;
  result.centroids.resize(static_cast<size_t>(k));
  for (int c = 0; c < k; ++c) result.centroids[s.rank[c]] = centroids[c];
  for (auto& a : result.assignment) a = s.rank[a];
}

bool InTopClusters(const KMeans1dScratch& scratch, int i, int top_m) {
  CF_CHECK_GT(top_m, 0);
  const KMeans1dResult& res = scratch.result;
  const int actual_k = static_cast<int>(res.centroids.size());
  const int effective_m = std::min(top_m, actual_k);
  // With fewer distinct clusters than requested, selecting all clusters would
  // mark everything causal; require strictly top clusters unless k collapsed
  // to a single value (then everything is in one class).
  const int threshold_rank = actual_k - effective_m;
  return res.assignment[static_cast<size_t>(i)] >= threshold_rank &&
         actual_k > 1;
}

KMeans1dResult KMeans1d(const std::vector<double>& values, int k,
                        int max_iterations) {
  CF_CHECK(!values.empty());
  KMeans1dScratch scratch;
  KMeans1dInto(values.data(), static_cast<int>(values.size()), k,
               max_iterations, &scratch);
  return std::move(scratch.result);
}

std::vector<int> TopClusterIndices(const std::vector<double>& values, int k,
                                   int top_m) {
  CF_CHECK_GT(top_m, 0);
  CF_CHECK(!values.empty());
  KMeans1dScratch scratch;
  KMeans1dInto(values.data(), static_cast<int>(values.size()), k,
               /*max_iterations=*/100, &scratch);
  std::vector<int> out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (InTopClusters(scratch, static_cast<int>(i), top_m)) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

}  // namespace causalformer

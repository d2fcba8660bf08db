#include "graph/score_matrix.h"

#include <algorithm>
#include <limits>

#include "graph/kmeans.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace causalformer {

ScoreMatrix::ScoreMatrix(int num_series) : n_(num_series) {
  CF_CHECK_GT(num_series, 0);
  values_.assign(static_cast<size_t>(n_) * n_, 0.0);
}

double ScoreMatrix::at(int from, int to) const {
  CF_CHECK_GE(from, 0);
  CF_CHECK_LT(from, n_);
  CF_CHECK_GE(to, 0);
  CF_CHECK_LT(to, n_);
  return values_[static_cast<size_t>(from) * n_ + to];
}

const double* ScoreMatrix::row(int from) const {
  CF_CHECK_GE(from, 0);
  CF_CHECK_LT(from, n_);
  return values_.data() + static_cast<size_t>(from) * n_;
}

void ScoreMatrix::set(int from, int to, double value) {
  CF_CHECK_GE(from, 0);
  CF_CHECK_LT(from, n_);
  CF_CHECK_GE(to, 0);
  CF_CHECK_LT(to, n_);
  values_[static_cast<size_t>(from) * n_ + to] = value;
}

void ScoreMatrix::add(int from, int to, double value) {
  set(from, to, at(from, to) + value);
}

std::vector<double> ScoreMatrix::IncomingScores(int target) const {
  std::vector<double> out(n_);
  for (int from = 0; from < n_; ++from) out[from] = at(from, target);
  return out;
}

void ScoreMatrix::NormalizeMinMax() {
  const auto [min_it, max_it] = std::minmax_element(values_.begin(), values_.end());
  const double lo = *min_it;
  const double hi = *max_it;
  if (hi - lo < std::numeric_limits<double>::epsilon()) return;
  for (auto& v : values_) v = (v - lo) / (hi - lo);
}

std::string ScoreMatrix::ToString(int precision) const {
  std::string out;
  for (int i = 0; i < n_; ++i) {
    for (int j = 0; j < n_; ++j) {
      out += StrFormat("%.*f", precision, at(i, j));
      out += (j + 1 < n_) ? " " : "\n";
    }
  }
  return out;
}

CausalGraph GraphFromScores(const ScoreMatrix& scores,
                            const ClusterSelectOptions& options,
                            const std::vector<std::vector<int>>* delays) {
  const int n = scores.num_series();
  CausalGraph graph(n);
  // TopClusterIndices per target on buffers the thread keeps, so a warm call
  // allocates only the graph it returns.
  thread_local std::vector<double> incoming;
  thread_local KMeans1dScratch scratch;
  incoming.resize(static_cast<size_t>(n));
  for (int to = 0; to < n; ++to) {
    for (int from = 0; from < n; ++from) incoming[from] = scores.at(from, to);
    KMeans1dInto(incoming.data(), n, options.num_clusters,
                 /*max_iterations=*/100, &scratch);
    for (int from = 0; from < n; ++from) {
      if (!InTopClusters(scratch, from, options.top_clusters)) continue;
      const int delay = delays != nullptr ? (*delays)[from][to] : 1;
      graph.AddEdge(from, to, delay, incoming[from]);
    }
  }
  return graph;
}

CausalGraph GraphFromThreshold(const ScoreMatrix& scores, double threshold,
                               const std::vector<std::vector<int>>* delays) {
  const int n = scores.num_series();
  CausalGraph graph(n);
  for (int from = 0; from < n; ++from) {
    for (int to = 0; to < n; ++to) {
      if (scores.at(from, to) >= threshold) {
        const int delay = delays != nullptr ? (*delays)[from][to] : 1;
        graph.AddEdge(from, to, delay, scores.at(from, to));
      }
    }
  }
  return graph;
}

}  // namespace causalformer

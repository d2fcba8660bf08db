#ifndef CAUSALFORMER_GRAPH_SCORE_MATRIX_H_
#define CAUSALFORMER_GRAPH_SCORE_MATRIX_H_

#include <string>
#include <vector>

#include "graph/causal_graph.h"

/// \file
/// Dense causal-score matrices. Entry (from, to) holds the evidence that
/// series `from` causes series `to`. The paper-style graph construction
/// clusters each target's incoming scores with k-means and keeps the top-m
/// of n classes (Section 4.2.3).

namespace causalformer {

class ScoreMatrix {
 public:
  explicit ScoreMatrix(int num_series);

  int num_series() const { return n_; }
  double at(int from, int to) const;
  /// The n scores (from, 0..n) of one row, contiguous; one bounds check
  /// for the whole row.
  const double* row(int from) const;
  void set(int from, int to, double value);
  void add(int from, int to, double value);

  /// All scores with `to == target` (incoming scores of one effect series).
  std::vector<double> IncomingScores(int target) const;

  /// Min-max normalisation to [0, 1] (no-op for a constant matrix).
  void NormalizeMinMax();

  std::string ToString(int precision = 3) const;

 private:
  int n_;
  std::vector<double> values_;  // row-major [from][to]
};

struct ClusterSelectOptions {
  /// Number of k-means classes n and selected top classes m; the paper's
  /// density ratio is m/n (e.g. 1/2, 2/3).
  int num_clusters = 2;
  int top_clusters = 1;
};

/// Builds a causal graph by per-target k-means selection over incoming
/// scores. `delays` (optional) supplies d(e) per (from, to); defaults to 1.
CausalGraph GraphFromScores(const ScoreMatrix& scores,
                            const ClusterSelectOptions& options,
                            const std::vector<std::vector<int>>* delays = nullptr);

/// Builds a causal graph by keeping scores >= threshold (used by baselines
/// that publish a natural threshold instead of clustering).
CausalGraph GraphFromThreshold(const ScoreMatrix& scores, double threshold,
                               const std::vector<std::vector<int>>* delays = nullptr);

}  // namespace causalformer

#endif  // CAUSALFORMER_GRAPH_SCORE_MATRIX_H_

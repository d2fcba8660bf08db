#ifndef CAUSALFORMER_GRAPH_KMEANS_H_
#define CAUSALFORMER_GRAPH_KMEANS_H_

#include <vector>

/// \file
/// One-dimensional k-means (Lloyd's algorithm [46]) used by the causal graph
/// construction step (Section 4.2.3): the causal scores of each target series
/// are clustered into n classes and the top-m classes (by centroid) become
/// edges. Initialisation is deterministic (evenly spaced quantiles of the
/// sorted values), so discovery is reproducible.

namespace causalformer {

struct KMeans1dResult {
  std::vector<double> centroids;  ///< ascending order
  std::vector<int> assignment;    ///< cluster id per input value
  int iterations = 0;
};

/// Runs Lloyd's algorithm on scalars. `k` is clamped to the number of
/// distinct values; duplicated centroids are collapsed.
KMeans1dResult KMeans1d(const std::vector<double>& values, int k,
                        int max_iterations = 100);

/// Indices of the values assigned to the `top_m` highest-centroid clusters
/// after clustering into `k` clusters. This is the Top[m/n] selection of the
/// paper; a larger m/k yields a denser causal graph.
std::vector<int> TopClusterIndices(const std::vector<double>& values, int k,
                                   int top_m);

/// The buffers KMeans1d works in, kept between calls by a caller that
/// clusters repeatedly (the detector, once per target of every request), so
/// a warm call allocates nothing.
struct KMeans1dScratch {
  std::vector<double> sorted;
  std::vector<double> centroids;
  std::vector<double> sum;
  std::vector<int> count;
  std::vector<int> order;
  std::vector<int> rank;
  KMeans1dResult result;
};

/// KMeans1d over values[0, n) in `scratch`, leaving the answer in
/// scratch->result.
void KMeans1dInto(const double* values, int n, int k, int max_iterations,
                  KMeans1dScratch* scratch);

/// Whether value i of the last KMeans1dInto(..., k, ...) on `scratch` lies
/// in the top `top_m` clusters: TopClusterIndices' test, one index at a time.
bool InTopClusters(const KMeans1dScratch& scratch, int i, int top_m);

}  // namespace causalformer

#endif  // CAUSALFORMER_GRAPH_KMEANS_H_

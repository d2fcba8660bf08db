#include "oracle.h"

#include <cstring>

namespace cfbench {

namespace cf = causalformer;

namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

}  // namespace

bool SameEdges(const std::vector<cf::CausalEdge>& a,
               const std::vector<cf::CausalEdge>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].from != b[i].from || a[i].to != b[i].to ||
        a[i].delay != b[i].delay || !SameBits(a[i].score, b[i].score)) {
      return false;
    }
  }
  return true;
}

bool SameResult(const cf::core::DetectionResult& a,
                const cf::core::DetectionResult& b) {
  const int n = a.scores.num_series();
  if (n != b.scores.num_series() || a.delays != b.delays) return false;
  for (int from = 0; from < n; ++from) {
    for (int to = 0; to < n; ++to) {
      if (!SameBits(a.scores.at(from, to), b.scores.at(from, to))) return false;
    }
  }
  return SameEdges(a.graph.edges(), b.graph.edges());
}

}  // namespace cfbench

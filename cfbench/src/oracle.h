#ifndef CFBENCH_ORACLE_H_
#define CFBENCH_ORACLE_H_

#include <vector>

#include "core/detector.h"
#include "graph/causal_graph.h"

/// \file
/// Bit-exact comparison of served detection results against an in-process
/// recompute on the same checkpoint and SIMD level. Batched serving is
/// specified to equal single-request detection bit for bit, so any
/// difference at all is a failed op.

namespace cfbench {

/// True when every score bit, every delay and every edge (endpoints, delay,
/// score bits, order) of `a` and `b` agree.
bool SameResult(const causalformer::core::DetectionResult& a,
                const causalformer::core::DetectionResult& b);

/// True when both edge lists agree in order, endpoints, delay and score
/// bits (stream reports carry edges only).
bool SameEdges(const std::vector<causalformer::CausalEdge>& a,
               const std::vector<causalformer::CausalEdge>& b);

}  // namespace cfbench

#endif  // CFBENCH_ORACLE_H_

#ifndef CFBENCH_STATS_H_
#define CFBENCH_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

/// \file
/// Order statistics and the layer waterfall arithmetic of the benchmark.

namespace cfbench {

/// The q-quantile (q in [0, 1]) of `values` with linear interpolation
/// between closest ranks (position q * (n - 1)). Empty input gives 0.
double Percentile(std::vector<double> values, double q);

/// Arithmetic mean; empty input gives 0.
double Mean(const std::vector<double>& values);

/// One metric of the output record: median, 10th and 90th percentile and
/// the number of samples they summarise.
struct Summary {
  double median = 0;
  double p10 = 0;
  double p90 = 0;
  size_t n = 0;
};

/// Summary of `values` (all zero with n = 0 when empty).
Summary Summarize(const std::vector<double>& values);

/// Mean per-op time of each layer on the blocking path of one request, all
/// in the same unit. Inputs are measured; the rest is derived by
/// BuildWaterfall.
struct Waterfall {
  // Measured.
  double rtt = 0;         ///< client round trip (send to response decoded)
  double engine = 0;      ///< server-reported submit-to-completion latency
  double queue_wait = 0;  ///< batcher queue wait inside the engine
  double detector = 0;    ///< detector execution an op waited for
  double kernels = 0;     ///< tensor-kernel time inside the detector
  // Derived self times.
  double wire_self = 0;      ///< rtt - engine: codec, sockets, poll threads
  double detector_self = 0;  ///< detector - kernels
  double remainder = 0;      ///< engine - queue_wait - detector: unexplained
};

/// Fills the self times of `w` from its measured fields. Self times are
/// differences, so noise can make one negative; they are reported as is.
Waterfall BuildWaterfall(double rtt, double engine, double queue_wait,
                         double detector, double kernels);

/// Renders a waterfall as indented text lines, one per layer, in `unit`.
std::string FormatWaterfall(const Waterfall& w, const std::string& unit);

}  // namespace cfbench

#endif  // CFBENCH_STATS_H_

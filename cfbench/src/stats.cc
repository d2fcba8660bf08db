#include "stats.h"

#include <algorithm>
#include <cstdio>

namespace cfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  q = std::min(1.0, std::max(0.0, q));
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

Summary Summarize(const std::vector<double>& values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  s.median = Percentile(values, 0.5);
  s.p10 = Percentile(values, 0.1);
  s.p90 = Percentile(values, 0.9);
  return s;
}

Waterfall BuildWaterfall(double rtt, double engine, double queue_wait,
                         double detector, double kernels) {
  Waterfall w;
  w.rtt = rtt;
  w.engine = engine;
  w.queue_wait = queue_wait;
  w.detector = detector;
  w.kernels = kernels;
  w.wire_self = rtt - engine;
  w.detector_self = detector - kernels;
  w.remainder = engine - queue_wait - detector;
  return w;
}

std::string FormatWaterfall(const Waterfall& w, const std::string& unit) {
  const auto share = [&w](double v) {
    return w.rtt > 0 ? 100.0 * v / w.rtt : 0.0;
  };
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "  client rtt                  %10.1f %s  100.0%%\n"
      "  |- serve/wire self          %10.1f %s  %5.1f%%\n"
      "  '- serve/engine latency     %10.1f %s  %5.1f%%\n"
      "     |- queue wait            %10.1f %s  %5.1f%%\n"
      "     |- core/detector         %10.1f %s  %5.1f%%\n"
      "     |  |- detector self      %10.1f %s  %5.1f%%\n"
      "     |  '- tensor kernels     %10.1f %s  %5.1f%%\n"
      "     '- unexplained remainder %10.1f %s  %5.1f%%\n",
      w.rtt, unit.c_str(), w.wire_self, unit.c_str(), share(w.wire_self),
      w.engine, unit.c_str(), share(w.engine), w.queue_wait, unit.c_str(),
      share(w.queue_wait), w.detector, unit.c_str(), share(w.detector),
      w.detector_self, unit.c_str(), share(w.detector_self), w.kernels,
      unit.c_str(), share(w.kernels), w.remainder, unit.c_str(),
      share(w.remainder));
  return buf;
}

}  // namespace cfbench

#include "stats.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace lvf2bench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double tail_quantile(std::size_t count, double max_q) {
  if (count <= 10) return 1.0;
  return std::min(max_q, 1.0 - 10.0 / static_cast<double>(count));
}

LatencySummary summarize(const std::vector<double>& values, double max_q) {
  LatencySummary s;
  s.count = values.size();
  s.p50 = median(values);
  s.tail_q = tail_quantile(values.size(), max_q);
  s.tail = quantile(values, s.tail_q);
  return s;
}

double geometric_mean(const std::vector<double>& values) {
  double log_sum = 0.0;
  std::size_t n = 0;
  for (const double v : values) {
    if (v > 0.0 && std::isfinite(v)) {
      log_sum += std::log(v);
      ++n;
    }
  }
  return n == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(n));
}

}  // namespace lvf2bench

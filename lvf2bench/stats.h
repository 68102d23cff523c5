#pragma once
// Percentile reporting. A timing is reported as its median plus the
// highest percentile (at most p99) that still has at least ten samples
// beyond it, together with the sample count; with ten samples or fewer
// no percentile qualifies and the tail reads as the maximum.

#include <cstddef>
#include <vector>

namespace lvf2bench {

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample
/// set; 0 for an empty set.
double quantile(std::vector<double> values, double q);

double median(std::vector<double> values);

/// The tail percentile reported for `count` samples: min(max_q,
/// 1 - 10 / count), or 1 (the maximum) when count <= 10.
double tail_quantile(std::size_t count, double max_q = 0.99);

struct LatencySummary {
  std::size_t count = 0;
  double p50 = 0.0;
  double tail = 0.0;    ///< value at tail_q
  double tail_q = 0.0;  ///< the percentile `tail` was taken at
};

LatencySummary summarize(const std::vector<double>& values,
                         double max_q = 0.99);

/// exp(mean(log x)) over the positive entries; 0 when there are none.
double geometric_mean(const std::vector<double>& values);

}  // namespace lvf2bench

#pragma once
// Order statistics for the benchmark's reports.

#include <algorithm>
#include <cmath>
#include <vector>

namespace perfbench {

/// One reported figure with its unit.
struct Metric {
  double value = 0;
  const char* unit = "";
};

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

}  // namespace perfbench

// Metric arithmetic shared by every workload of the benchmark: ranked
// percentiles, quartiles, and the guarded ratios the per-layer ledger
// is built from. Percentiles are the service's own nearest-rank
// svc::latency_percentile, so the benchmark ranks latencies exactly as
// svc_client reports them.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <vector>

#include "svc/client.h"

namespace perfbench {

/// Nearest-rank percentile (p in [0, 100]); 0 when empty. The rank is
/// ceil(p/100 * N), so p50 of {1,2,3,4} is 2 and p100 is the maximum.
using saf::svc::latency_percentile;

/// Samples strictly above the nearest-rank position of percentile p.
inline std::size_t samples_beyond(std::size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  const std::size_t r = rank < 1.0 ? 1 : static_cast<std::size_t>(rank);
  return r >= n ? 0 : n - r;
}

/// The tail percentile a run may report: the highest of 99 and 90 that
/// leaves at least ten samples beyond it, else the median (a run with
/// fewer than 100 samples has no reportable tail, and claims none).
inline double tail_percentile(std::size_t n) {
  for (const double p : {99.0, 90.0}) {
    if (samples_beyond(n, p) >= 10) return p;
  }
  return 50.0;
}

/// Quartiles {Q1, median, Q3} by the same rule as Python's
/// statistics.quantiles(values, n=4) (method "exclusive"). Fewer than
/// two values: every quartile is the value (or 0 when empty).
inline std::array<double, 3> quartiles(std::vector<double> values) {
  const std::size_t ld = values.size();
  if (ld == 0) return {0.0, 0.0, 0.0};
  std::sort(values.begin(), values.end());
  if (ld == 1) return {values[0], values[0], values[0]};
  std::array<double, 3> out{};
  const std::size_t m = ld + 1;
  for (std::size_t i = 1; i <= 3; ++i) {
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, ld - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    out[i - 1] = (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  }
  return out;
}

inline double median(std::vector<double> values) {
  return quartiles(std::move(values))[1];
}

/// num / den, or 0 when den is 0: a failed fraction over nothing
/// attempted, or a per-decision cost over zero decisions, reads 0
/// instead of NaN or infinity.
inline double safe_div(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// Rate retention of a run: the last window's rate over the first's.
/// 1.0 means no slowdown; 0 when the first window did no work (the run
/// is then already reported as failed).
inline double window_ratio(double first_rate, double last_rate) {
  return first_rate <= 0.0 ? 0.0 : last_rate / first_rate;
}

}  // namespace perfbench

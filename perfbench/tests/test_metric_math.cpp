// Unit tests of the benchmark's metric math (src/metric_math.h), and of
// the service's nearest-rank svc::latency_percentile it ranks with.
// Build and run: cmake --build .bench_build --target
// perfbench_metric_math_test && ctest --test-dir .bench_build
#include <cmath>
#include <cstdio>
#include <vector>

#include "metric_math.h"

namespace {

int failures = 0;

void expect_near(double got, double want, const char* what) {
  if (std::fabs(got - want) > 1e-9) {
    std::printf("FAIL %s: got %.12g, want %.12g\n", what, got, want);
    ++failures;
  }
}

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

}  // namespace

int main() {
  using namespace perfbench;

  // Nearest rank: rank ceil(p/100 * N), order-independent.
  expect_near(latency_percentile({4, 1, 3, 2}, 50), 2, "p50 of 1..4");
  expect_near(latency_percentile({4, 1, 3, 2}, 100), 4, "p100 is the max");
  expect_near(latency_percentile({4, 1, 3, 2}, 0), 1, "p0 is the min");
  expect_near(latency_percentile(iota(100), 99), 99, "p99 of 1..100");
  expect_near(latency_percentile(iota(1000), 99), 990, "p99 of 1..1000");
  expect_near(latency_percentile({}, 50), 0, "empty percentile");

  // At least ten samples beyond the reported percentile.
  expect_near(static_cast<double>(samples_beyond(1000, 99)), 10, "beyond p99@1000");
  expect_near(static_cast<double>(samples_beyond(999, 99)), 9, "beyond p99@999");
  expect_near(tail_percentile(1000), 99, "1000 samples report p99");
  expect_near(tail_percentile(998), 90, "998 samples fall back to p90");
  expect_near(tail_percentile(100), 90, "100 samples report p90");
  expect_near(tail_percentile(99), 50, "99 samples report no tail");
  expect_near(tail_percentile(0), 50, "no samples, no tail");

  // Quartiles match Python's statistics.quantiles(values, n=4).
  {
    const auto q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    expect_near(q[0], 2.75, "Q1 of 1..10");
    expect_near(q[1], 5.5, "median of 1..10");
    expect_near(q[2], 8.25, "Q3 of 1..10");
  }
  {
    const auto q = quartiles({7, 1, 3});
    expect_near(q[0], 1, "Q1 of {1,3,7}");
    expect_near(q[1], 3, "median of {1,3,7}");
    expect_near(q[2], 7, "Q3 of {1,3,7}");
  }
  {
    const auto q = quartiles({2.0, 4.0});
    // Python extrapolates beyond the data for tiny samples.
    expect_near(q[0], 1.5, "Q1 of {2,4}");
    expect_near(q[1], 3.0, "median of {2,4}");
    expect_near(q[2], 4.5, "Q3 of {2,4}");
  }
  expect_near(quartiles({5})[1], 5, "single value");
  expect_near(quartiles({})[1], 0, "empty quartiles");
  expect_near(median({3, 1, 2}), 2, "odd median");

  // Failed fractions and per-decision ratios over nothing read 0.
  expect_near(safe_div(0, 0), 0, "failed fraction of zero attempts");
  expect_near(safe_div(5, 0), 0, "per-decision cost with zero decisions");
  expect_near(safe_div(1, 4), 0.25, "plain ratio");

  // Window ratio: last over first; no first-window work reads 0.
  expect_near(window_ratio(1000, 500), 0.5, "halved rate");
  expect_near(window_ratio(0, 500), 0, "empty first window");
  expect_near(window_ratio(800, 0), 0, "empty last window");

  if (failures == 0) std::printf("metric math: all checks passed\n");
  return failures == 0 ? 0 : 1;
}

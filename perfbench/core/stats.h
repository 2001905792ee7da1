#ifndef PERFBENCH_CORE_STATS_H_
#define PERFBENCH_CORE_STATS_H_

#include <cstdint>
#include <vector>

namespace perfbench {

/// The percentile rule: a percentile is reported only when at least
/// `kTailSamples` samples lie beyond it, so p99 needs 1000 samples and p90
/// needs 100. A run that reports a percentile must contain at least
/// `MinSamplesFor(p)` samples.
inline constexpr int64_t kTailSamples = 10;

/// Smallest sample count whose tail beyond the p-th quantile (0 < p < 1)
/// holds `kTailSamples` samples: ceil(kTailSamples / (1 - p)).
int64_t MinSamplesFor(double p);

/// True when `n` samples are enough to report the p-th quantile.
bool PercentileReportable(int64_t n, double p);

/// Nearest-rank quantile: the smallest sample with at least p * n samples
/// at or below it (0 < p <= 1). Requires a non-empty input.
double Percentile(std::vector<double> samples, double p);

/// Median under the same nearest-rank rule.
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

/// Which sub-window a figure is read from. The host the benchmark runs on
/// is shared: other load comes and goes over seconds and only ever slows a
/// run down, so the faster sub-windows are the closer estimate of the
/// program's own speed. A figure is read at the quartile of its
/// sub-windows on the fast side: it moves only when the program slows, or
/// when more than three quarters of the run is slowed.
inline constexpr double kFastQuartile = 0.25;

/// Ops per second over sub-windows of `group` consecutive completions,
/// the upper quartile (1 - kFastQuartile) of the sub-windows' rates:
/// sub-window i runs from the (i-1)*group-th completion (the window start
/// for i = 1) to the i*group-th. `done_s` holds completion times in
/// seconds since the window start; trailing ops that fill no whole
/// sub-window are left out. Requires at least `group` completions.
double SubWindowThroughput(std::vector<double> done_s, int64_t group);

/// The p-th quantile of op times over sub-windows: the ops, taken in
/// completion order (`done_s`), are split into n / `group` runs of
/// consecutive completions of near-equal size (each at least `group` ops),
/// and the figure is the lower quartile (kFastQuartile) of the
/// sub-windows' own p-th quantiles. `ms[i]` is the time of the op that
/// completed at `done_s[i]`. Pass a `group` that meets the percentile rule.
/// Requires at least `group` ops.
double SubWindowPercentile(const std::vector<double>& done_s,
                           const std::vector<double>& ms, int64_t group,
                           double p);

/// Median of `samples`, or 0 for an empty input (a layer the workload
/// never called).
double MedianOrZero(const std::vector<double>& samples);

}  // namespace perfbench

#endif  // PERFBENCH_CORE_STATS_H_

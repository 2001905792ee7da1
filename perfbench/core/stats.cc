#include "core/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

int64_t MinSamplesFor(double p) {
  if (!(p > 0.0 && p < 1.0)) throw std::invalid_argument("percentile in (0,1)");
  // 1 - p is inexact in binary (1 - 0.99 = 0.010000000000000009); round the
  // quotient before the ceiling so p99 asks for 1000 samples, not 1001.
  const double exact = static_cast<double>(kTailSamples) / (1.0 - p);
  return static_cast<int64_t>(std::ceil(std::round(exact * 1e6) / 1e6));
}

bool PercentileReportable(int64_t n, double p) {
  return n >= MinSamplesFor(p);
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) throw std::invalid_argument("percentile of no samples");
  if (!(p > 0.0 && p <= 1.0)) throw std::invalid_argument("percentile in (0,1]");
  const auto n = static_cast<int64_t>(samples.size());
  int64_t rank = static_cast<int64_t>(
      std::ceil(std::round(p * static_cast<double>(n) * 1e6) / 1e6));
  rank = std::clamp<int64_t>(rank, 1, n);
  auto nth = samples.begin() + (rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

double SubWindowThroughput(std::vector<double> done_s, int64_t group) {
  const auto n = static_cast<int64_t>(done_s.size());
  if (group < 1 || n < group) {
    throw std::invalid_argument("fewer completions than one sub-window");
  }
  std::sort(done_s.begin(), done_s.end());
  std::vector<double> rates;
  double begin = 0;
  for (int64_t end = group; end <= n; end += group) {
    const double finish = done_s[static_cast<size_t>(end - 1)];
    if (finish > begin) rates.push_back(static_cast<double>(group) / (finish - begin));
    begin = finish;
  }
  return Percentile(rates, 1.0 - kFastQuartile);
}

double SubWindowPercentile(const std::vector<double>& done_s,
                           const std::vector<double>& ms, int64_t group,
                           double p) {
  const auto n = static_cast<int64_t>(ms.size());
  if (done_s.size() != ms.size() || group < 1 || n < group) {
    throw std::invalid_argument("fewer ops than one sub-window");
  }
  std::vector<size_t> order(ms.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return done_s[a] < done_s[b]; });
  const int64_t windows = n / group;
  std::vector<double> quantiles;
  for (int64_t w = 0; w < windows; ++w) {
    std::vector<double> window;
    for (int64_t i = w * n / windows; i < (w + 1) * n / windows; ++i) {
      window.push_back(ms[order[static_cast<size_t>(i)]]);
    }
    quantiles.push_back(Percentile(std::move(window), p));
  }
  return Percentile(quantiles, kFastQuartile);
}

double MedianOrZero(const std::vector<double>& samples) {
  return samples.empty() ? 0.0 : Median(samples);
}

}  // namespace perfbench

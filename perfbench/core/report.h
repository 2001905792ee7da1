#ifndef PERFBENCH_CORE_REPORT_H_
#define PERFBENCH_CORE_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line configuration of one benchmark run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";  // where span files are written
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  int64_t samples = 0;  // values the figure summarizes (1 for a count)
};

/// Everything one run measured. `metrics` are the figures BENCHMARK.json
/// names (end-to-end ones when untraced, per-layer ones when traced);
/// `details` are printed with them but are not part of the result line:
/// workload-specific figures (per-class run times, recall, train MSE,
/// write latency) that the other workloads cannot report.
struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;         // errors + shed requests + wrong results
  std::vector<std::string> errors;  // first few failures, for the log
  std::vector<Metric> metrics;
  std::vector<Metric> details;

  bool correct() const { return failed == 0 && attempted > 0; }
  void Fail(const std::string& what);
  /// Adds another result's op counts and failures (e.g. one client's).
  void Merge(const RunResult& other);
  void Add(std::string name, double value, std::string unit,
           int64_t samples = 1);
  void Detail(std::string name, double value, std::string unit,
              int64_t samples = 1);
};

/// Process CPU seconds (user + system) and peak RSS in MiB.
double ProcessCpuSeconds();
double PeakRssMiB();

/// Host and build facts recorded with every result.
std::string MetadataJson(const RunConfig& config);

/// Prints the human-readable table, the metadata line and, last, the
/// one-line JSON result.
void PrintResult(const RunConfig& config, const RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_CORE_REPORT_H_

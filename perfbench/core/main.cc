// The benchmark of record. One run:
//
//   perfbench --workload <analytics|multimodal> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// generates the workload's inputs from the seed, sets up, measures for
// `--seconds`, checks every result, and prints as its last stdout line one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics when untraced, the per-layer metrics when traced.
// See perfbench/README.md.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "core/report.h"
#include "core/workload.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<analytics|multimodal> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        config.workload = value;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        config.seconds = std::stod(value);
      } else if (flag == "--trace") {
        config.trace = value == "1";
      } else if (flag == "--out-dir") {
        config.out_dir = value;
      } else {
        return Usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags come in pairs");
  if (!(config.seconds > 0)) return Usage("--seconds must be positive");

  perfbench::RunResult result;
  try {
    if (config.workload == "analytics") {
      result = perfbench::RunAnalytics(config);
    } else if (config.workload == "multimodal") {
      result = perfbench::RunMultimodal(config);
    } else {
      return Usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  perfbench::PrintResult(config, result);
  return 0;
}

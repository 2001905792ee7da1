#include "core/report.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void RunResult::Fail(const std::string& what) {
  ++failed;
  if (errors.size() < 20) errors.push_back(what);
}

void RunResult::Merge(const RunResult& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& e : other.errors) {
    if (errors.size() < 20) errors.push_back(e);
  }
}

void RunResult::Add(std::string name, double value, std::string unit,
                    int64_t samples) {
  metrics.push_back({std::move(name), value, std::move(unit), samples});
}

void RunResult::Detail(std::string name, double value, std::string unit,
                       int64_t samples) {
  details.push_back({std::move(name), value, std::move(unit), samples});
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out.push_back(c);
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string EnvOr(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : fallback;
}

}  // namespace

std::string MetadataJson(const RunConfig& config) {
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  std::string json = "{";
  json += "\"workload\":" + JsonString(config.workload);
  json += ",\"seed\":" + std::to_string(config.seed);
  json += ",\"seconds\":" + JsonNumber(config.seconds);
  json += ",\"trace\":" + std::string(config.trace ? "1" : "0");
  json += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  json += ",\"l3_bytes\":" + std::to_string(l3 > 0 ? l3 : 0);
  json += ",\"compiler\":" + JsonString(__VERSION__);
  json += ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE);
  json += ",\"tdp_num_threads\":" + JsonString(EnvOr("TDP_NUM_THREADS", ""));
  json += ",\"commit\":" + JsonString(EnvOr("PERFBENCH_COMMIT", "unknown"));
  return json + "}";
}

void PrintResult(const RunConfig& config, const RunResult& result) {
  std::printf("\n%-44s %16s  %-8s %8s\n", "metric", "value", "unit",
              "samples");
  for (const Metric& m : result.metrics) {
    std::printf("%-44s %16.6g  %-8s %8lld\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.samples));
  }
  if (!result.details.empty()) {
    std::printf("-- workload detail (printed only)\n");
    for (const Metric& m : result.details) {
      std::printf("%-44s %16.6g  %-8s %8lld\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<long long>(m.samples));
    }
  }
  std::printf("ops attempted %lld, failed %lld, error_rate %.6g\n",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed),
              result.attempted > 0 ? static_cast<double>(result.failed) /
                                         static_cast<double>(result.attempted)
                                   : 0.0);
  for (const std::string& e : result.errors) {
    std::printf("failure: %s\n", e.c_str());
  }
  std::printf("meta %s\n", MetadataJson(config).c_str());

  std::string json = "{\"correct\": ";
  json += result.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    json += (i ? ", " : "") + JsonString(m.name) + ": {\"value\": " +
            JsonNumber(m.value) + ", \"unit\": " + JsonString(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench

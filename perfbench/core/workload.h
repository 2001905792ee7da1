#ifndef PERFBENCH_CORE_WORKLOAD_H_
#define PERFBENCH_CORE_WORKLOAD_H_

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/statusor.h"
#include "src/exec/compiled_query.h"
#include "core/report.h"
#include "src/runtime/session.h"
#include "src/server/engine.h"
#include "core/trace.h"

namespace perfbench {

/// The two workloads. Each generates its inputs from `config.seed`, sets
/// up (several times when untraced, reporting the median), runs its closed
/// loop for `config.seconds`, checks every result, and fills `RunResult`:
/// end-to-end metrics when untraced, per-layer metrics when traced.
RunResult RunAnalytics(const RunConfig& config);
RunResult RunMultimodal(const RunConfig& config);

/// Trains a fresh model of the paper's trainable MNIST-grid query for
/// `steps` optimizer steps under its own tracer and adds the training
/// layers' figures as details: step, RunChunk, loss Backward() and
/// Adam::Step p50s, and the held-out MSE (which must fall below the
/// untrained model's).
void ProbeTraining(uint64_t seed, int64_t steps, RunResult& result);

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Sets up repeatedly and returns each set-up's `seconds`, keeping the
/// last one in `*kept` (earlier ones are freed before the next starts).
/// Repeats at least 3 times and until 3 s have passed, at most
/// `max_reps` times, so setup_s is the median of enough samples even when
/// set-up takes milliseconds.
template <typename SetupT, typename MakeFn>
std::vector<double> RepeatSetUp(MakeFn make, std::unique_ptr<SetupT>* kept,
                                size_t max_reps = 40) {
  std::vector<double> seconds;
  double total = 0;
  while (seconds.size() < 3 || (total < 3 && seconds.size() < max_reps)) {
    kept->reset();
    *kept = make();
    seconds.push_back((*kept)->seconds);
    total += (*kept)->seconds;
  }
  return seconds;
}

/// Per-op wall times (ms), overall and by op class.
struct OpSamples {
  std::vector<double> ms;
  std::vector<double> done_s;  // completion times since the window start
  std::map<std::string, std::vector<double>> by_class;

  void Add(const std::string& cls, double op_ms, double done) {
    ms.push_back(op_ms);
    done_s.push_back(done);
    by_class[cls].push_back(op_ms);
  }
  void Merge(const OpSamples& other);
};

/// Wall and process-CPU time of a measured window.
class Window {
 public:
  Window() : start_(Clock::now()), cpu_start_(ProcessCpuSeconds()) {}
  double wall_s() const { return SecondsSince(start_); }
  /// Process CPU seconds / (wall seconds x hardware threads) so far.
  double CpuBusyRatio() const;

 private:
  Clock::time_point start_;
  double cpu_start_;
};

/// Sub-windows a run's ops are split into for its end-to-end figures.
inline constexpr int64_t kSubWindows = 20;

/// Adds the end-to-end metrics every workload reports: setup_s (median of
/// `setup_s`), throughput_ops_s (`SubWindowThroughput` over sub-windows of
/// `group` ops; 0 means `kSubWindows` equal sub-windows), latency_p50_ms
/// and latency_tail_ms (the `tail_p` quantile: 0.99 for many short ops,
/// 0.90 for few long ones), each a `SubWindowPercentile` over up to
/// `kSubWindows` sub-windows that each meet the tail's sample floor, and
/// peak_rss_mb (`peak_rss_mib`, read by the caller). Also prints the tail
/// under its own name (latency_p99_ms or latency_p90_ms). Fails the run
/// when the op count is below the percentile rule's floor.
void AddEndToEnd(RunResult& result, const std::vector<double>& setup_s,
                 const OpSamples& ops, double tail_p, double peak_rss_mib,
                 int64_t group = 0);

/// Adds the per-class p50 op latency details.
void AddClassLatencies(RunResult& result, const OpSamples& ops);

/// The per-layer figures of a traced run. A figure stays 0 when the
/// workload never calls that layer (e.g. index.scan_fraction outside
/// `multimodal`).
struct LayerFigures {
  double server_admitted = 0;
  double server_shed = 0;
  double server_peak_queue_depth = 0;
  double runtime_prepare_us_p50 = 0;
  double runtime_plan_cache_hit_ratio = 0;
  double runtime_plan_cache_evictions = 0;
  double runtime_coalesced_share = 0;
  double runtime_rows_per_forward = 0;
  double sql_parse_us_p50 = 0;
  double sql_bind_us_p50 = 0;
  double plan_optimize_us_p50 = 0;
  double exec_compile_us_p50 = 0;
  double exec_run_ms_p50 = 0;
  double exec_rows_per_s = 0;
  std::map<std::string, double> exec_rows_per_s_by_class;  // analytics
  double exec_join_cache_hit_ratio = 0;
  double exec_scan_cache_hit_ratio = 0;
  double exec_fused_compiles = 0;
  double proc_cpu_busy_ratio = 0;
  double storage_segments_per_table = 0;
  double storage_register_ms_p50 = 0;
  double tensor_argsort_ns_per_row = 0;
  double tensor_unique_ns_per_row = 0;
  double tensor_gather_ns_per_row = 0;
  double tensor_nonzero_ns_per_row = 0;
  double tensor_matmul_gflops = 0;
  double tensor_conv2d_gflops = 0;
  double index_scan_fraction = 0;
  double trace_overhead_ratio = 0;
};

/// Emits every per-layer metric BENCHMARK.json lists, in its order.
void AddPerLayer(RunResult& result, const LayerFigures& layers);

/// Fills the sql/plan/exec compile figures from `summary` (spans opened by
/// `CompileThroughLayers`) and the tracing overhead.
void FillCompileFigures(const SpanSummary& summary, LayerFigures& layers);

/// Prints, per span name, the p50 duration and the p50 self time (the span
/// minus the time its child spans cover) as details.
void AddSpanDetails(RunResult& result, const SpanSummary& summary);

/// Compiles `sql` exactly as `Session::Query` does, one layer at a time,
/// each call under its own span: sql.Parse, sql.Bind, plan.Optimize,
/// exec.Compile (the CompiledQuery constructor).
tdp::StatusOr<std::shared_ptr<tdp::exec::CompiledQuery>> CompileThroughLayers(
    tdp::Session& session, const std::string& sql,
    const tdp::QueryOptions& options, Tracer* tracer, int64_t op,
    const std::string& tag);

/// How a client sends an op. A traced run times the tracing overhead as
/// kSql against kSqlSpan, which take the same path, and takes its
/// per-layer spans from kLayers.
enum class OpPath {
  kSql,      // Engine::Sql
  kSqlSpan,  // Engine::Sql under one "server.Sql" span
  kLayers,   // an "op" span around Session::Prepare + CompiledQuery::Run,
             // each under its own span ("runtime.Prepare", "exec.Run")
};

/// Sends `sql` with `run` to `tenant` along `path`; spans carry `op` and
/// the class tag `tag`.
tdp::StatusOr<std::shared_ptr<tdp::Table>> SendOp(
    tdp::server::Engine& engine, const std::string& tenant,
    const std::string& sql, const tdp::exec::RunOptions& run, OpPath path,
    Tracer* tracer, int64_t op, const std::string& tag);

/// Times ArgSort over `sort_col`, Unique over `key_col`, Gather of
/// `sort_col` by a permutation and NonZero over `mask`, each repeated for
/// at least `min_seconds`; fills the tensor.*_ns_per_row figures.
void ProbeKernels(const tdp::Tensor& sort_col, const tdp::Tensor& key_col,
                  const tdp::Tensor& mask, double min_seconds,
                  LayerFigures& layers);

/// MatMul at SimClip's first projection ([256, 774] x [774, 512]) and
/// Conv2d at the digit CNN's first layer (72 tiles [1, 12, 12] through
/// 8 3x3 filters), on kAccel.
void ProbeMatMulConv(double min_seconds, LayerFigures& layers);

/// Writes the run's spans to <out_dir>/trace-<workload>.json (one file
/// per workload, replaced by the next traced run).
void WriteSpans(const Tracer& tracer, const RunConfig& config);

/// The server.* and runtime.plan_cache_* figures from stats taken before and
/// after a window.
void FillServerFigures(const tdp::server::EngineStats& before,
                       const tdp::server::EngineStats& after,
                       const tdp::PlanCacheStats& cache_before,
                       const tdp::PlanCacheStats& cache_after, LayerFigures& layers);

/// Untraced ops/s over traced ops/s (0 when either window completed none).
double TraceOverhead(size_t untraced_ops, double untraced_s, size_t traced_ops,
                     double traced_s);

/// Hit ratio `hits / (hits + misses)`, 0 when both are 0.
double Ratio(double hits, double misses);

/// Sums join/scan cache counters and fused compiles over `queries`.
void FillPrimitiveCacheFigures(
    const std::vector<std::shared_ptr<tdp::exec::CompiledQuery>>& queries,
    LayerFigures& layers);

}  // namespace perfbench

#endif  // PERFBENCH_CORE_WORKLOAD_H_

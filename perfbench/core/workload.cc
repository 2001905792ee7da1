#include "core/workload.h"

#include <algorithm>
#include <cstdio>
#include <thread>

#include "src/common/rng.h"
#include "core/gen.h"
#include "src/plan/optimizer.h"
#include "src/runtime/inference_scheduler.h"
#include "src/sql/binder.h"
#include "src/sql/parser.h"
#include "core/stats.h"
#include "src/tensor/ops.h"

namespace perfbench {

void OpSamples::Merge(const OpSamples& other) {
  ms.insert(ms.end(), other.ms.begin(), other.ms.end());
  done_s.insert(done_s.end(), other.done_s.begin(), other.done_s.end());
  for (const auto& [cls, v] : other.by_class) {
    auto& mine = by_class[cls];
    mine.insert(mine.end(), v.begin(), v.end());
  }
}

double Window::CpuBusyRatio() const {
  const double wall = wall_s();
  const double threads = std::max(1u, std::thread::hardware_concurrency());
  return wall > 0 ? (ProcessCpuSeconds() - cpu_start_) / (wall * threads) : 0;
}

void AddEndToEnd(RunResult& result, const std::vector<double>& setup_s,
                 const OpSamples& ops, double tail_p, double peak_rss_mib,
                 int64_t group) {
  const auto n = static_cast<int64_t>(ops.ms.size());
  if (n == 0) {
    result.Fail("no op completed in the timed window");
    return;
  }
  if (!PercentileReportable(n, tail_p)) {
    result.Fail("only " + std::to_string(n) + " ops; the p" +
                std::to_string(static_cast<int>(tail_p * 100)) + " needs " +
                std::to_string(MinSamplesFor(tail_p)));
  }
  // Latency sub-windows hold enough ops for the tail's sample floor.
  const int64_t latency_group =
      std::min(n, std::max(MinSamplesFor(tail_p), n / kSubWindows));
  const double tail = SubWindowPercentile(ops.done_s, ops.ms, latency_group, tail_p);
  result.Add("setup_s", Median(setup_s), "s",
             static_cast<int64_t>(setup_s.size()));
  if (group <= 0) group = std::max<int64_t>(1, n / kSubWindows);
  result.Add("throughput_ops_s", SubWindowThroughput(ops.done_s, group), "ops/s",
             n);
  result.Add("latency_p50_ms",
             SubWindowPercentile(ops.done_s, ops.ms, latency_group, 0.5), "ms", n);
  result.Add("latency_tail_ms", tail, "ms", n);
  result.Add("peak_rss_mb", peak_rss_mib, "MiB");
  result.Detail(tail_p > 0.95 ? "latency_p99_ms" : "latency_p90_ms", tail,
                "ms", n);
  result.Detail("error_rate",
                static_cast<double>(result.failed) /
                    static_cast<double>(std::max<int64_t>(1, result.attempted)),
                "fraction", result.attempted);
}

void AddClassLatencies(RunResult& result, const OpSamples& ops) {
  for (const auto& [cls, v] : ops.by_class) {
    result.Detail("latency_p50_ms." + cls, Median(v), "ms",
                  static_cast<int64_t>(v.size()));
  }
}

void AddPerLayer(RunResult& result, const LayerFigures& l) {
  result.Add("server.admitted", l.server_admitted, "count");
  result.Add("server.shed", l.server_shed, "count");
  result.Add("server.peak_queue_depth", l.server_peak_queue_depth, "count");
  result.Add("runtime.prepare_us_p50", l.runtime_prepare_us_p50, "us");
  result.Add("runtime.plan_cache_hit_ratio", l.runtime_plan_cache_hit_ratio,
             "fraction");
  result.Add("runtime.plan_cache_evictions", l.runtime_plan_cache_evictions,
             "count");
  result.Add("runtime.coalesced_share", l.runtime_coalesced_share,
             "fraction");
  result.Add("runtime.rows_per_forward", l.runtime_rows_per_forward, "rows");
  result.Add("sql.parse_us_p50", l.sql_parse_us_p50, "us");
  result.Add("sql.bind_us_p50", l.sql_bind_us_p50, "us");
  result.Add("plan.optimize_us_p50", l.plan_optimize_us_p50, "us");
  result.Add("exec.compile_us_p50", l.exec_compile_us_p50, "us");
  result.Add("exec.run_ms_p50", l.exec_run_ms_p50, "ms");
  result.Add("exec.rows_per_s", l.exec_rows_per_s, "rows/s");
  for (int c = 0; c < kAnalyticsClasses; ++c) {
    const std::string cls = AnalyticsClassName(static_cast<AnalyticsClass>(c));
    const auto it = l.exec_rows_per_s_by_class.find(cls);
    result.Add("exec.rows_per_s." + cls,
               it == l.exec_rows_per_s_by_class.end() ? 0.0 : it->second,
               "rows/s");
  }
  result.Add("exec.join_cache_hit_ratio", l.exec_join_cache_hit_ratio,
             "fraction");
  result.Add("exec.scan_cache_hit_ratio", l.exec_scan_cache_hit_ratio,
             "fraction");
  result.Add("exec.fused_compiles", l.exec_fused_compiles, "count");
  result.Add("proc.cpu_busy_ratio", l.proc_cpu_busy_ratio, "fraction");
  result.Add("storage.segments_per_table", l.storage_segments_per_table,
             "count");
  result.Add("storage.register_ms_p50", l.storage_register_ms_p50, "ms");
  result.Add("tensor.argsort_ns_per_row", l.tensor_argsort_ns_per_row, "ns");
  result.Add("tensor.unique_ns_per_row", l.tensor_unique_ns_per_row, "ns");
  result.Add("tensor.gather_ns_per_row", l.tensor_gather_ns_per_row, "ns");
  result.Add("tensor.nonzero_ns_per_row", l.tensor_nonzero_ns_per_row, "ns");
  result.Add("tensor.matmul_gflops", l.tensor_matmul_gflops, "GFLOP/s");
  result.Add("tensor.conv2d_gflops", l.tensor_conv2d_gflops, "GFLOP/s");
  result.Add("index.scan_fraction", l.index_scan_fraction, "fraction");
  result.Add("trace.overhead_ratio", l.trace_overhead_ratio, "ratio");
}

void FillCompileFigures(const SpanSummary& summary, LayerFigures& layers) {
  auto p50_us = [&](const char* name) {
    const auto it = summary.duration_us.find(name);
    return it == summary.duration_us.end() ? 0.0 : MedianOrZero(it->second);
  };
  layers.sql_parse_us_p50 = p50_us("sql.Parse");
  layers.sql_bind_us_p50 = p50_us("sql.Bind");
  layers.plan_optimize_us_p50 = p50_us("plan.Optimize");
  layers.exec_compile_us_p50 = p50_us("exec.Compile");
  layers.runtime_prepare_us_p50 = p50_us("runtime.Prepare");
  layers.storage_register_ms_p50 = p50_us("storage.RegisterTable") / 1000.0;
}

void AddSpanDetails(RunResult& result, const SpanSummary& summary) {
  for (const auto& [name, durations] : summary.duration_us) {
    const auto n = static_cast<int64_t>(durations.size());
    result.Detail("span." + name + ".p50_us", Median(durations), "us", n);
    result.Detail("span." + name + ".self_p50_us", Median(summary.self_us.at(name)),
                  "us", n);
  }
}

tdp::StatusOr<std::shared_ptr<tdp::exec::CompiledQuery>> CompileThroughLayers(
    tdp::Session& session, const std::string& sql,
    const tdp::QueryOptions& options, Tracer* tracer, int64_t op,
    const std::string& tag) {
  tdp::StatusOr<tdp::sql::StatementPtr> statement = [&] {
    Tracer::Scope span(tracer, "sql.Parse", op, tag);
    return tdp::sql::ParseStatement(sql);
  }();
  if (!statement.ok()) return statement.status();
  const std::shared_ptr<const tdp::Catalog> snapshot =
      session.catalog().Snapshot();
  tdp::StatusOr<tdp::plan::LogicalNodePtr> bound = [&] {
    Tracer::Scope span(tracer, "sql.Bind", op, tag);
    tdp::sql::Binder binder(*snapshot, session.functions());
    return binder.Bind(**statement);
  }();
  if (!bound.ok()) return bound.status();
  tdp::plan::LogicalNodePtr optimized = [&] {
    Tracer::Scope span(tracer, "plan.Optimize", op, tag);
    return tdp::plan::Optimize(std::move(bound).value(), snapshot.get());
  }();
  // The session owns its catalog and outlives every query compiled here,
  // so the query may hold it through a non-owning handle.
  std::shared_ptr<tdp::SharedCatalog> catalog(
      std::shared_ptr<tdp::SharedCatalog>(), &session.catalog());
  Tracer::Scope span(tracer, "exec.Compile", op, tag);
  return std::make_shared<tdp::exec::CompiledQuery>(
      std::move(optimized), std::move(catalog), options.device,
      options.trainable, &tdp::runtime::InferenceScheduler::Global());
}

tdp::StatusOr<std::shared_ptr<tdp::Table>> SendOp(
    tdp::server::Engine& engine, const std::string& tenant,
    const std::string& sql, const tdp::exec::RunOptions& run, OpPath path,
    Tracer* tracer, int64_t op, const std::string& tag) {
  if (path == OpPath::kSql) return engine.Sql({tenant, sql, {}, run});
  if (path == OpPath::kSqlSpan) {
    Tracer::Scope span(tracer, "server.Sql", op, tag);
    return engine.Sql({tenant, sql, {}, run});
  }
  Tracer::Scope span(tracer, "op", op, tag);
  auto query = [&] {
    Tracer::Scope prepare(tracer, "runtime.Prepare", op, tag);
    return engine.tenant(tenant).Prepare(sql);
  }();
  if (!query.ok()) return query.status();
  Tracer::Scope run_span(tracer, "exec.Run", op, tag);
  return (*query)->Run(run);
}

namespace {

/// Runs `fn` until `min_seconds` pass (at least twice) and returns the
/// seconds per call.
template <typename Fn>
double SecondsPerCall(double min_seconds, Fn fn) {
  fn();  // warm-up: first-touch allocation, lazily built layouts
  int64_t calls = 0;
  const Clock::time_point start = Clock::now();
  do {
    fn();
    ++calls;
  } while (calls < 2 || SecondsSince(start) < min_seconds);
  return SecondsSince(start) / static_cast<double>(calls);
}

}  // namespace

void ProbeKernels(const tdp::Tensor& sort_col, const tdp::Tensor& key_col,
                  const tdp::Tensor& mask, double min_seconds,
                  LayerFigures& layers) {
  const double rows = static_cast<double>(sort_col.numel());
  const double per = min_seconds / 4;
  tdp::Tensor perm;
  layers.tensor_argsort_ns_per_row =
      SecondsPerCall(per, [&] { perm = tdp::ArgSort(sort_col); }) / rows * 1e9;
  layers.tensor_unique_ns_per_row =
      SecondsPerCall(per, [&] { (void)tdp::Unique(key_col); }) /
      static_cast<double>(key_col.numel()) * 1e9;
  layers.tensor_gather_ns_per_row =
      SecondsPerCall(per, [&] { (void)tdp::Gather(sort_col, 0, perm); }) /
      rows * 1e9;
  layers.tensor_nonzero_ns_per_row =
      SecondsPerCall(per, [&] { (void)tdp::NonZero(mask); }) /
      static_cast<double>(mask.numel()) * 1e9;
}

void ProbeMatMulConv(double min_seconds, LayerFigures& layers) {
  tdp::Rng rng(7);
  const tdp::Device accel = tdp::Device::kAccel;
  const tdp::Tensor a = tdp::RandNormal({256, 774}, 0, 1, rng,
                                        tdp::DType::kFloat32, accel);
  const tdp::Tensor b = tdp::RandNormal({774, 512}, 0, 1, rng,
                                        tdp::DType::kFloat32, accel);
  const double matmul_flops = 2.0 * 256 * 774 * 512;
  layers.tensor_matmul_gflops =
      matmul_flops /
      SecondsPerCall(min_seconds / 2, [&] { (void)tdp::MatMul(a, b); }) / 1e9;
  const tdp::Tensor input = tdp::RandNormal({72, 1, 12, 12}, 0, 1, rng,
                                            tdp::DType::kFloat32, accel);
  const tdp::Tensor weight = tdp::RandNormal({8, 1, 3, 3}, 0, 1, rng,
                                             tdp::DType::kFloat32, accel);
  const tdp::Tensor bias =
      tdp::RandNormal({8}, 0, 1, rng, tdp::DType::kFloat32, accel);
  const double conv_flops = 2.0 * 72 * 8 * 12 * 12 * 1 * 3 * 3;
  layers.tensor_conv2d_gflops =
      conv_flops / SecondsPerCall(min_seconds / 2, [&] {
        (void)tdp::Conv2d(input, weight, bias, 1, 1);
      }) / 1e9;
}

void WriteSpans(const Tracer& tracer, const RunConfig& config) {
  const std::string path = config.out_dir + "/trace-" + config.workload + ".json";
  if (!tracer.WriteJson(path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }
}

void FillServerFigures(const tdp::server::EngineStats& before,
                       const tdp::server::EngineStats& after,
                       const tdp::PlanCacheStats& cache_before,
                       const tdp::PlanCacheStats& cache_after, LayerFigures& layers) {
  layers.server_admitted = static_cast<double>(after.admitted - before.admitted);
  layers.server_shed = static_cast<double>(after.shed - before.shed);
  layers.server_peak_queue_depth = static_cast<double>(after.peak_queue_depth);
  layers.runtime_plan_cache_hit_ratio =
      Ratio(static_cast<double>(cache_after.hits - cache_before.hits),
            static_cast<double>(cache_after.misses - cache_before.misses));
  layers.runtime_plan_cache_evictions =
      static_cast<double>(cache_after.evictions - cache_before.evictions);
}

double TraceOverhead(size_t untraced_ops, double untraced_s, size_t traced_ops,
                     double traced_s) {
  if (untraced_ops == 0 || traced_ops == 0) return 0;
  return (static_cast<double>(untraced_ops) / untraced_s) /
         (static_cast<double>(traced_ops) / traced_s);
}

double Ratio(double hits, double misses) {
  return hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

void FillPrimitiveCacheFigures(
    const std::vector<std::shared_ptr<tdp::exec::CompiledQuery>>& queries,
    LayerFigures& layers) {
  double join_hits = 0, join_misses = 0, scan_hits = 0, scan_misses = 0;
  double fused = 0;
  for (const auto& q : queries) {
    const tdp::exec::PrimitiveCache& cache = q->primitive_cache();
    join_hits += static_cast<double>(cache.join_hits());
    join_misses += static_cast<double>(cache.join_misses());
    scan_hits += static_cast<double>(cache.scan_hits());
    scan_misses += static_cast<double>(cache.scan_misses());
    fused += static_cast<double>(cache.fused_compiles());
  }
  layers.exec_join_cache_hit_ratio = Ratio(join_hits, join_misses);
  layers.exec_scan_cache_hit_ratio = Ratio(scan_hits, scan_misses);
  layers.exec_fused_compiles = fused;
}

}  // namespace perfbench

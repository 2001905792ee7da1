// `analytics`: a few long star-schema queries from one client through
// server::Engine::Sql. Exec breakers, the tensor sort/gather kernels and the
// thread pool do nearly all the work; compilation and admission almost none.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/exec/memory_budget.h"
#include "core/gen.h"
#include "core/oracle.h"
#include "src/server/engine.h"
#include "core/stats.h"
#include "src/storage/table.h"
#include "src/tensor/ops.h"
#include "core/workload.h"

namespace perfbench {
namespace {

constexpr int64_t kFactRows = int64_t{1} << 19;
/// Below the spill_agg GROUP BY's footprint, so its breaker spills.
constexpr int64_t kSpillBudgetBytes = int64_t{1} << 20;
constexpr double kTailP = 0.90;
/// Each set-up allocates the whole star schema; more repetitions would
/// mostly measure the allocator's reuse of the previous one.
constexpr size_t kAnalyticsSetUps = 5;
/// Untimed ops before the timed window. Throughput rises by about a tenth
/// over a run's first seconds (a 35 s run read ~11% faster than a 20 s
/// one), and that transient made runs disagree.
constexpr double kWarmUpSeconds = 5;
constexpr const char* kTenant = "analytics";

std::shared_ptr<tdp::Table> MustBuild(tdp::StatusOr<std::shared_ptr<tdp::Table>> t) {
  if (!t.ok()) throw std::runtime_error(t.status().ToString());
  return std::move(t).value();
}

tdp::Column DictionaryColumn(const std::vector<int64_t>& codes,
                             const std::vector<std::string>& dictionary) {
  return tdp::Column::Dictionary(tdp::Tensor::FromVector(codes), dictionary);
}

/// Registers fact, dim1 and dim2 on the accelerator (so no query pays a
/// per-plan device copy of the fact table).
void RegisterStarSchema(tdp::Session& session, const StarSchema& s,
                        Tracer* tracer) {
  std::vector<int64_t> dim1_ids(s.dim1_region.size());
  for (size_t i = 0; i < dim1_ids.size(); ++i) dim1_ids[i] = static_cast<int64_t>(i);
  std::vector<int64_t> dim2_ids(s.dim2_segment.size());
  for (size_t i = 0; i < dim2_ids.size(); ++i) dim2_ids[i] = static_cast<int64_t>(i);
  const std::vector<std::pair<std::string, std::shared_ptr<tdp::Table>>> tables = {
      {"fact", MustBuild(tdp::TableBuilder("fact")
                             .AddInt64("id", s.id)
                             .AddInt64("d1", s.d1)
                             .AddInt64("d2", s.d2)
                             .AddInt64("hk", s.hk)
                             .AddInt64("qty", s.qty)
                             .AddFloat64("price", s.price)
                             .AddColumn("cat", DictionaryColumn(s.cat, s.categories))
                             .Build())},
      {"dim1", MustBuild(tdp::TableBuilder("dim1")
                             .AddInt64("d1", dim1_ids)
                             .AddColumn("region",
                                        DictionaryColumn(s.dim1_region, s.regions))
                             .Build())},
      {"dim2", MustBuild(tdp::TableBuilder("dim2")
                             .AddInt64("d2", dim2_ids)
                             .AddInt64("segment", s.dim2_segment)
                             .Build())},
  };
  for (const auto& [name, table] : tables) {
    Tracer::Scope span(tracer, "storage.RegisterTable", -1, name);
    const tdp::Status st = session.RegisterTable(name, table, tdp::Device::kAccel);
    if (!st.ok()) throw std::runtime_error(st.ToString());
  }
}

tdp::exec::RunOptions RunOptionsFor(AnalyticsClass c) {
  tdp::exec::RunOptions run;
  if (c == AnalyticsClass::kSpillAgg) run.memory_budget_bytes = kSpillBudgetBytes;
  return run;
}

/// One statement of one class, in the order the warm-up runs them.
struct Statement {
  AnalyticsClass cls;
  size_t index;
  const std::string* sql;
};

std::vector<Statement> AllStatements() {
  std::vector<Statement> all;
  for (int c = 0; c < kAnalyticsClasses; ++c) {
    const auto cls = static_cast<AnalyticsClass>(c);
    const auto& texts = AnalyticsStatements(cls);
    for (size_t i = 0; i < texts.size(); ++i) all.push_back({cls, i, &texts[i]});
  }
  return all;
}

/// A set-up engine: data generated and registered, every statement
/// compiled into the tenant's plan cache.
struct Setup {
  StarSchema schema;
  std::unique_ptr<tdp::server::Engine> engine;
  std::vector<std::string> errors;
  /// Filled by `RunFirst`: each statement's first result (per
  /// AllStatements()), checked against the oracle.
  std::vector<std::shared_ptr<tdp::Table>> first_results;
  int64_t spilled_bytes = 0;
  double seconds = 0;
};

std::unique_ptr<Setup> SetUp(uint64_t seed, Tracer* tracer) {
  const Clock::time_point start = Clock::now();
  auto setup = std::make_unique<Setup>();
  setup->schema = MakeStarSchema(seed, kFactRows);
  setup->engine = std::make_unique<tdp::server::Engine>();
  tdp::Session& session = setup->engine->tenant(kTenant);
  RegisterStarSchema(session, setup->schema, tracer);
  for (const Statement& st : AllStatements()) {
    auto q = session.Prepare(*st.sql);
    if (!q.ok()) setup->errors.push_back(*st.sql + ": " + q.status().ToString());
  }
  setup->seconds = SecondsSince(start);
  return setup;
}

/// Runs every statement once; returns the seconds it took.
double RunFirst(Setup& setup) {
  const Clock::time_point start = Clock::now();
  for (const Statement& st : AllStatements()) {
    const int64_t spilled_before = tdp::exec::QueryMemory::TotalBytesSpilled();
    auto result = setup.engine->Sql({kTenant, *st.sql, {}, RunOptionsFor(st.cls)});
    if (st.cls == AnalyticsClass::kSpillAgg) {
      setup.spilled_bytes +=
          tdp::exec::QueryMemory::TotalBytesSpilled() - spilled_before;
    }
    if (!result.ok()) {
      setup.errors.push_back(*st.sql + ": " + result.status().ToString());
      setup.first_results.push_back(nullptr);
    } else {
      setup.first_results.push_back(std::move(result).value());
    }
  }
  return SecondsSince(start);
}

/// Checks every warm-up result against the plain-C++ oracle and returns the
/// checksums later runs must reproduce.
std::vector<uint64_t> CheckFirstRuns(const Setup& setup, RunResult& result) {
  for (const std::string& e : setup.errors) result.Fail(e);
  if (setup.spilled_bytes <= 0) {
    result.Fail("spill_agg did not spill under its memory budget");
  }
  std::vector<uint64_t> checksums;
  const std::vector<Statement> all = AllStatements();
  for (size_t i = 0; i < all.size(); ++i) {
    const auto& table = setup.first_results[i];
    ++result.attempted;
    if (table == nullptr) {
      checksums.push_back(0);
      continue;
    }
    Rows got = TableRows(*table);
    if (!AnalyticsOrdered(all[i].cls)) got = SortedRows(std::move(got));
    const Rows expected =
        AnalyticsExpected(setup.schema, all[i].cls, all[i].index);
    const std::string diff = CompareRows(expected, got);
    if (!diff.empty()) {
      result.Fail(std::string(AnalyticsClassName(all[i].cls)) + " oracle: " +
                  diff);
    }
    checksums.push_back(ResultChecksum(*table));
  }
  return checksums;
}

size_t StatementSlot(AnalyticsClass c, size_t index) {
  size_t slot = 0;
  for (const Statement& st : AllStatements()) {
    if (st.cls == c && st.index == index) return slot;
    ++slot;
  }
  throw std::logic_error("unknown analytics statement");
}

/// The closed loop: one client, ops in the seeded class order, each result
/// checked against its statement's first-run checksum. Runs for at least
/// `seconds` and until `min_ops` ops completed, sending each along `path`.
OpSamples RunLoop(Setup& setup, uint64_t seed, double seconds, int64_t min_ops,
                  const std::vector<uint64_t>& checksums, OpPath path,
                  Tracer* tracer, RunResult& result, double* window_s) {
  AnalyticsOpStream stream(seed);
  std::vector<size_t> next_index(kAnalyticsClasses, 0);
  OpSamples samples;
  const Clock::time_point start = Clock::now();
  for (int64_t op = 0;; ++op) {
    const double elapsed = SecondsSince(start);
    // Stop on a block boundary, so every class ran equally often.
    const auto done = static_cast<int64_t>(samples.ms.size());
    if (elapsed >= seconds && done >= min_ops &&
        op % kAnalyticsClasses == 0) {
      break;
    }
    if (elapsed >= 150) break;  // hard cap: the floor check reports the shortfall
    const AnalyticsClass cls = stream.Next();
    const auto& texts = AnalyticsStatements(cls);
    const size_t index = next_index[static_cast<size_t>(cls)]++ % texts.size();
    const std::string& sql = texts[index];
    const char* name = AnalyticsClassName(cls);
    ++result.attempted;
    const Clock::time_point op_start = Clock::now();
    auto table = SendOp(*setup.engine, kTenant, sql, RunOptionsFor(cls), path,
                        tracer, op, name);
    const double op_ms = SecondsSince(op_start) * 1e3;
    if (!table.ok()) {
      result.Fail(std::string(name) + ": " + table.status().ToString());
      continue;
    }
    if (ResultChecksum(**table) != checksums[StatementSlot(cls, index)]) {
      result.Fail(std::string(name) + ": result differs from its first run");
      continue;
    }
    samples.Add(name, op_ms, SecondsSince(start));
  }
  *window_s = SecondsSince(start);
  return samples;
}

}  // namespace

RunResult RunAnalytics(const RunConfig& config) {
  RunResult result;
  if (!config.trace) {
    std::unique_ptr<Setup> setup;
    const std::vector<double> setup_s =
        RepeatSetUp([&] { return SetUp(config.seed, nullptr); }, &setup,
                    kAnalyticsSetUps);
    result.Detail("first_runs_s", RunFirst(*setup), "s");
    const std::vector<uint64_t> checksums = CheckFirstRuns(*setup, result);
    setup->schema = StarSchema{};  // the oracle is done with the columns
    double window_s = 0;
    RunLoop(*setup, config.seed + 3, kWarmUpSeconds, 0, checksums, OpPath::kSql,
            nullptr, result, &window_s);
    const OpSamples ops =
        RunLoop(*setup, config.seed, config.seconds, MinSamplesFor(kTailP),
                checksums, OpPath::kSql, nullptr, result, &window_s);
    AddEndToEnd(result, setup_s, ops, kTailP, PeakRssMiB(), kAnalyticsClasses);
    AddClassLatencies(result, ops);
    return result;
  }

  Tracer tracer;
  std::unique_ptr<Setup> setup = SetUp(config.seed, &tracer);
  RunFirst(*setup);
  const std::vector<uint64_t> checksums = CheckFirstRuns(*setup, result);
  setup->schema = StarSchema{};
  double warm_up_s = 0;
  RunLoop(*setup, config.seed + 3, kWarmUpSeconds, 0, checksums, OpPath::kSql,
          nullptr, result, &warm_up_s);
  tdp::Session& session = setup->engine->tenant(kTenant);
  LayerFigures layers;

  // Compilation, one layer at a time (the engine compiles each statement
  // once; its plan cache serves every later op).
  for (int rep = 0; rep < 3; ++rep) {
    for (const Statement& st : AllStatements()) {
      auto q = CompileThroughLayers(session, *st.sql, {}, &tracer, -1,
                                    AnalyticsClassName(st.cls));
      if (!q.ok()) result.Fail("compile: " + q.status().ToString());
    }
  }

  // Three windows: Engine::Sql untraced, Engine::Sql under a span (the
  // pair gives the tracing overhead), and Prepare + Run under spans.
  const tdp::server::EngineStats before = setup->engine->stats();
  const tdp::PlanCacheStats cache_before = session.plan_cache_stats();
  double untraced_s = 0, traced_s = 0, layers_s = 0;
  Window window;
  const OpSamples untraced =
      RunLoop(*setup, config.seed, config.seconds / 3, 0, checksums,
              OpPath::kSql, nullptr, result, &untraced_s);
  layers.proc_cpu_busy_ratio = window.CpuBusyRatio();
  const tdp::server::EngineStats after = setup->engine->stats();
  const OpSamples traced =
      RunLoop(*setup, config.seed + 1, config.seconds / 3, 0, checksums,
              OpPath::kSqlSpan, &tracer, result, &traced_s);
  RunLoop(*setup, config.seed + 2, config.seconds / 3, 0, checksums,
          OpPath::kLayers, &tracer, result, &layers_s);
  const tdp::PlanCacheStats cache_after = session.plan_cache_stats();

  FillServerFigures(before, after, cache_before, cache_after, layers);
  layers.trace_overhead_ratio =
      TraceOverhead(untraced.ms.size(), untraced_s, traced.ms.size(), traced_s);

  const std::vector<Span> spans = tracer.spans();
  const SpanSummary summary = Summarize(spans);
  FillCompileFigures(summary, layers);
  AddSpanDetails(result, summary);
  if (auto it = summary.duration_us.find("exec.Run"); it != summary.duration_us.end()) {
    layers.exec_run_ms_p50 = MedianOrZero(it->second) / 1e3;
    double total_s = 0;
    for (double us : it->second) total_s += us / 1e6;
    layers.exec_rows_per_s =
        static_cast<double>(kFactRows) * static_cast<double>(it->second.size()) / total_s;
  }
  for (int c = 0; c < kAnalyticsClasses; ++c) {
    const std::string cls = AnalyticsClassName(static_cast<AnalyticsClass>(c));
    const auto it = summary.tagged_duration_us.find("exec.Run|" + cls);
    if (it == summary.tagged_duration_us.end()) continue;
    const double p50_ms = MedianOrZero(it->second) / 1e3;
    layers.exec_rows_per_s_by_class[cls] = static_cast<double>(kFactRows) / (p50_ms / 1e3);
    result.Detail("exec.run_ms_p50." + cls, p50_ms, "ms",
                  static_cast<int64_t>(it->second.size()));
  }

  std::vector<std::shared_ptr<tdp::exec::CompiledQuery>> prepared;
  for (const Statement& st : AllStatements()) {
    auto q = session.Prepare(*st.sql);
    if (q.ok()) prepared.push_back(*q);
  }
  FillPrimitiveCacheFigures(prepared, layers);

  auto fact = session.catalog().GetTable("fact");
  if (fact.ok()) {
    layers.storage_segments_per_table = static_cast<double>((*fact)->num_segments());
    const tdp::Tensor price = (*fact)->column(5).data();
    const tdp::Tensor hk = (*fact)->column(3).data();
    const tdp::Tensor qty = (*fact)->column(4).data();
    const tdp::Tensor mask =
        tdp::Gt(qty, tdp::Tensor::Scalar(50, tdp::DType::kInt64, qty.device()));
    ProbeKernels(price, hk, mask, 2.0, layers);
  }
  ProbeMatMulConv(0.5, layers);

  const int64_t overfull = OverfullOpSpans(spans, "op");
  if (overfull > 0) {
    result.Fail(std::to_string(overfull) +
                " op spans whose children sum to more than the op");
  }
  result.Detail("trace.overfull_op_spans", static_cast<double>(overfull), "count");
  WriteSpans(tracer, config);
  AddPerLayer(result, layers);
  return result;
}

}  // namespace perfbench

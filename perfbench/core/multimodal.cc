// `multimodal`: the paper's multi-modal scenario from 4 closed-loop clients
// through server::Engine::Sql. Fig. 2's three query shapes over an
// attachments corpus scored by the batchable image_text_similarity UDF,
// plus a filtered top-10 over an IVF-indexed embeddings table. Model
// forward passes, cross-query coalescing and the vector index dominate.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/gen.h"
#include "core/oracle.h"
#include "core/stats.h"
#include "core/workload.h"
#include "src/common/rng.h"
#include "src/data/attachments.h"
#include "src/index/ivf_index.h"
#include "src/models/clip.h"
#include "src/runtime/inference_scheduler.h"
#include "src/server/engine.h"
#include "src/storage/table.h"
#include "src/tensor/ops.h"

namespace perfbench {
namespace {

constexpr int kClients = 4;
/// p90, not p99: a run completes about 75 ops/s, so only p90 leaves every
/// latency sub-window its sample floor (100 ops; p99 would need 1000).
constexpr double kTailP = 0.90;
constexpr const char* kTenant = "multimodal";
constexpr int64_t kPhotos = 100, kReceipts = 50, kLogos = 50;
constexpr int64_t kCorpusRows = kPhotos + kReceipts + kLogos;
constexpr int64_t kNumLists = 64;
constexpr int64_t kNumProbes = 8;
constexpr int64_t kVecClusters = 48;
constexpr int64_t kTopK = 10;
constexpr double kThreshold = 0.8;
constexpr int64_t kTrainingProbeSteps = 120;
/// Rows per image_text_similarity call. The UDF's batch target is 128 and
/// the scheduler coalesces calls only while they fit it together, so two
/// concurrent 64-row calls on one concept can share a forward; at the
/// compiled size (128) no two calls fit.
constexpr int64_t kModelBatchRows = 64;
/// Largest difference allowed between the engine's scores and a direct
/// SimClip::Similarity call on the whole corpus (or an exact dot product).
constexpr double kScoreTolerance = 1e-4;

const std::vector<std::string>& Concepts() {
  static const std::vector<std::string> kConcepts = {"receipt", "dog", "logo",
                                                      "beach", "cat"};
  return kConcepts;
}

std::string SqlFor(const MultimodalOp& op) {
  const std::string c = Concepts()[static_cast<size_t>(op.concept_index)];
  switch (op.cls) {
    case MultimodalClass::kSimFilter:
      return "SELECT filename FROM Attachments WHERE "
             "image_text_similarity('" + c + "', images) > 0.8";
    case MultimodalClass::kSimCount:
      return "SELECT COUNT(*) AS n FROM Attachments WHERE "
             "image_text_similarity('" + c + "', images) > 0.8";
    case MultimodalClass::kSimTopK:
      return "SELECT filename, image_text_similarity('" + c +
             "', images) AS score FROM Attachments ORDER BY score DESC LIMIT 2";
    case MultimodalClass::kVecTopK:
      return "SELECT id, dot(e, ?) AS sim FROM embeddings WHERE grp <> ? "
             "ORDER BY sim DESC LIMIT 10";
  }
  return "";
}

std::vector<std::string> AllTexts() {
  std::vector<std::string> texts;
  for (int c = 0; c < kMultimodalClasses; ++c) {
    for (size_t k = 0; k < Concepts().size(); ++k) {
      MultimodalOp op;
      op.cls = static_cast<MultimodalClass>(c);
      op.concept_index = static_cast<int64_t>(k);
      const std::string sql = SqlFor(op);
      if (std::find(texts.begin(), texts.end(), sql) == texts.end()) {
        texts.push_back(sql);
      }
    }
  }
  return texts;
}

int64_t InputRows(MultimodalClass c) {
  return c == MultimodalClass::kVecTopK ? kVecRows : kCorpusRows;
}

tdp::server::EngineOptions MultimodalEngineOptions() {
  tdp::server::EngineOptions options;
  options.max_concurrent = kClients;
  options.per_tenant_max_concurrent = kClients;
  return options;
}

struct Setup {
  std::unique_ptr<tdp::server::Engine> engine;
  std::shared_ptr<tdp::models::SimClip> clip;
  tdp::data::AttachmentDataset corpus;
  Embeddings embeddings;
  std::vector<tdp::Tensor> queries;  // Embeddings::queries as tensors
  std::vector<std::string> errors;
  double seconds = 0;
};

std::shared_ptr<tdp::Table> MustBuild(tdp::StatusOr<std::shared_ptr<tdp::Table>> t) {
  if (!t.ok()) throw std::runtime_error(t.status().ToString());
  return std::move(t).value();
}

std::unique_ptr<Setup> SetUp(uint64_t seed, Tracer* tracer) {
  const Clock::time_point start = Clock::now();
  auto setup = std::make_unique<Setup>();
  setup->engine = std::make_unique<tdp::server::Engine>(MultimodalEngineOptions());
  tdp::Session& session = setup->engine->tenant(kTenant);

  tdp::Rng rng(StreamSeed(seed, 7));
  setup->corpus = tdp::data::MakeAttachmentDataset(kPhotos, kReceipts, kLogos, rng);
  setup->clip = std::make_shared<tdp::models::SimClip>();
  if (!tdp::models::RegisterImageTextSimilarityUdf(session.functions(), setup->clip).ok()) {
    throw std::runtime_error("cannot register image_text_similarity");
  }
  setup->embeddings = MakeEmbeddings(seed, kVecRows, kVecDim, kVecClusters, kVecQueries);
  std::vector<int64_t> ids(static_cast<size_t>(kVecRows));
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int64_t>(i);
  const std::vector<std::pair<std::string, std::shared_ptr<tdp::Table>>> tables = {
      {"Attachments", MustBuild(tdp::TableBuilder("Attachments")
                                    .AddStrings("filename", setup->corpus.filenames)
                                    .AddTensor("images", setup->corpus.images)
                                    .Build())},
      {"embeddings",
       MustBuild(tdp::TableBuilder("embeddings")
                     .AddInt64("id", ids)
                     .AddInt64("grp", setup->embeddings.grp)
                     .AddTensor("e", tdp::Tensor::FromVector(setup->embeddings.vectors,
                                                             {kVecRows, kVecDim}))
                     .Build())},
  };
  for (const auto& [name, table] : tables) {
    Tracer::Scope span(tracer, "storage.RegisterTable", -1, name);
    const tdp::Status st = session.RegisterTable(name, table, tdp::Device::kAccel);
    if (!st.ok()) throw std::runtime_error(st.ToString());
  }
  {
    Tracer::Scope span(tracer, "index.Build", -1, "embeddings");
    tdp::index::IvfIndex::Options options;
    options.num_lists = kNumLists;
    const tdp::Status st = session.CreateVectorIndex("embeddings", "e", options);
    if (!st.ok()) throw std::runtime_error(st.ToString());
  }
  for (const auto& q : setup->embeddings.queries) {
    setup->queries.push_back(tdp::Tensor::FromVector(q));
  }
  for (const std::string& sql : AllTexts()) {
    auto q = session.Prepare(sql);
    if (!q.ok()) {
      setup->errors.push_back(sql + ": " + q.status().ToString());
    } else if (sql.find("dot(") != std::string::npos &&
               (*q)->Explain().find("FilteredIndexTopK") == std::string::npos) {
      setup->errors.push_back("vec_topk does not use the IVF index:\n" +
                              (*q)->Explain());
    }
  }
  setup->seconds = SecondsSince(start);
  return setup;
}

/// Direct SimClip scores of the whole corpus, per concept.
struct Oracle {
  std::vector<std::vector<float>> scores;  // [concept][image]
  std::map<std::string, int64_t> image_of;  // filename -> image row

  explicit Oracle(const Setup& setup) {
    for (const std::string& c : Concepts()) {
      auto s = setup.clip->Similarity(c, setup.corpus.images);
      if (!s.ok()) throw std::runtime_error(s.status().ToString());
      scores.push_back(s->To(tdp::Device::kCpu).ToVector<float>());
    }
    for (size_t i = 0; i < setup.corpus.filenames.size(); ++i) {
      image_of[setup.corpus.filenames[i]] = static_cast<int64_t>(i);
    }
  }
};

tdp::exec::RunOptions RunOptionsFor(const Setup& setup, const MultimodalOp& op) {
  tdp::exec::RunOptions run;
  if (op.cls == MultimodalClass::kVecTopK) {
    run.params = {tdp::exec::ScalarValue::FromTensor(
                      setup.queries[static_cast<size_t>(op.query)]),
                  tdp::exec::ScalarValue::Int(op.excluded_grp)};
    run.vector_search.num_probes = kNumProbes;
  } else {
    run.model_batch_rows = kModelBatchRows;
  }
  return run;
}

struct ClientLog {
  RunResult result;  // op counts and failures
  OpSamples ops;
  std::vector<double> recall;
};

/// Empty when `rows` is a correct answer to `op`, else why not. Sets
/// `*recall` for vec_topk ops.
std::string Check(const Setup& setup, const Oracle& oracle, const MultimodalOp& op,
                  const Rows& rows, double* recall) {
  if (op.cls == MultimodalClass::kVecTopK) {
    const Embeddings& e = setup.embeddings;
    const auto& q = e.queries[static_cast<size_t>(op.query)];
    const std::vector<int64_t> exact = ExactTopK(e, kVecDim, q, op.excluded_grp, kTopK);
    if (rows.size() != exact.size()) return "vec_topk: wrong row count";
    std::vector<int64_t> got;
    double previous = INFINITY;
    for (const Row& row : rows) {
      const int64_t id = std::stoll(row[0]);
      const double sim = std::stod(row[1]);
      if (id < 0 || id >= kVecRows) return "vec_topk: bad id";
      if (e.grp[static_cast<size_t>(id)] == op.excluded_grp) {
        return "vec_topk: row violates the WHERE predicate";
      }
      double dot = 0;
      for (int64_t j = 0; j < kVecDim; ++j) {
        dot += static_cast<double>(e.vectors[static_cast<size_t>(id * kVecDim + j)]) *
               q[static_cast<size_t>(j)];
      }
      if (std::fabs(dot - sim) > kScoreTolerance) return "vec_topk: wrong score";
      if (sim > previous + kScoreTolerance) return "vec_topk: not in score order";
      previous = sim;
      got.push_back(id);
    }
    if (std::set<int64_t>(got.begin(), got.end()).size() != got.size()) {
      return "vec_topk: duplicate rows";
    }
    *recall = RecallAt(got, exact);
    return "";
  }
  const std::vector<float>& scores = oracle.scores[static_cast<size_t>(op.concept_index)];
  auto score_of = [&](const std::string& filename) -> double {
    const auto it = oracle.image_of.find(filename);
    return it == oracle.image_of.end() ? NAN : scores[static_cast<size_t>(it->second)];
  };
  switch (op.cls) {
    case MultimodalClass::kSimCount: {
      const auto [lo, hi] = CountBounds(scores, kThreshold, kScoreTolerance);
      const int64_t n = rows.size() == 1 ? std::stoll(rows[0][0]) : -1;
      return n >= lo && n <= hi ? "" : "sim_count: count outside the oracle's bounds";
    }
    case MultimodalClass::kSimFilter: {
      std::set<std::string> returned;
      for (const Row& row : rows) {
        if (!(score_of(row[0]) >= kThreshold - kScoreTolerance)) {
          return "sim_filter: returned an image below the threshold";
        }
        returned.insert(row[0]);
      }
      if (returned.size() != rows.size()) return "sim_filter: duplicate rows";
      for (const auto& [name, i] : oracle.image_of) {
        if (scores[static_cast<size_t>(i)] > kThreshold + kScoreTolerance &&
            returned.count(name) == 0) {
          return "sim_filter: missed " + name;
        }
      }
      return "";
    }
    case MultimodalClass::kSimTopK: {
      if (rows.size() != 2) return "sim_topk: wrong row count";
      std::set<std::string> returned;
      double lowest = INFINITY;
      for (const Row& row : rows) {
        const double direct = score_of(row[0]);
        if (!(std::fabs(direct - std::stod(row[1])) <= kScoreTolerance)) {
          return "sim_topk: score differs from SimClip::Similarity";
        }
        if (direct > lowest + kScoreTolerance) return "sim_topk: not in score order";
        lowest = std::min(lowest, direct);
        returned.insert(row[0]);
      }
      for (const auto& [name, i] : oracle.image_of) {
        if (returned.count(name) == 0 &&
            scores[static_cast<size_t>(i)] > lowest + kScoreTolerance) {
          return "sim_topk: missed " + name;
        }
      }
      return "";
    }
    case MultimodalClass::kVecTopK:
      break;
  }
  return "";
}

/// `kClients` closed-loop clients for `seconds` and until `min_ops` ops
/// have completed, each sending its ops along `path`.
std::vector<ClientLog> RunClients(Setup& setup, const Oracle& oracle, uint64_t seed,
                                  double seconds, int64_t min_ops, OpPath path,
                                  Tracer* tracer) {
  std::vector<ClientLog> logs(kClients);
  std::atomic<int64_t> completed{0};
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = logs[static_cast<size_t>(c)];
      MultimodalOpStream stream(seed, c);
      for (int64_t i = 0;; ++i) {
        const double elapsed = SecondsSince(start);
        if ((elapsed >= seconds && completed.load() >= min_ops) || elapsed >= 150) break;
        const MultimodalOp op = stream.Next(static_cast<int64_t>(Concepts().size()));
        const std::string sql = SqlFor(op);
        const char* cls = MultimodalClassName(op.cls);
        const int64_t op_id = c * 100000000 + i;
        ++log.result.attempted;
        const Clock::time_point op_start = Clock::now();
        auto table = SendOp(*setup.engine, kTenant, sql, RunOptionsFor(setup, op),
                            path, tracer, op_id, cls);
        const double op_ms = SecondsSince(op_start) * 1e3;
        if (!table.ok()) {
          log.result.Fail(std::string(cls) + ": " + table.status().ToString());
          continue;
        }
        ++completed;
        log.ops.Add(cls, op_ms, SecondsSince(start));
        double recall = -1;
        const std::string why = Check(setup, oracle, op, TableRows(**table), &recall);
        if (!why.empty()) log.result.Fail(why);
        if (recall >= 0) log.recall.push_back(recall);
      }
    });
  }
  for (auto& t : threads) t.join();
  return logs;
}

OpSamples Collect(const std::vector<ClientLog>& logs, RunResult& result,
                  std::vector<double>* recall) {
  OpSamples all;
  for (const ClientLog& log : logs) {
    all.Merge(log.ops);
    result.Merge(log.result);
    recall->insert(recall->end(), log.recall.begin(), log.recall.end());
  }
  return all;
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

}  // namespace

RunResult RunMultimodal(const RunConfig& config) {
  RunResult result;
  if (!config.trace) {
    std::unique_ptr<Setup> setup;
    const std::vector<double> setup_s =
        RepeatSetUp([&] { return SetUp(config.seed, nullptr); }, &setup);
    for (const std::string& e : setup->errors) result.Fail(e);
    const Oracle oracle(*setup);
    const std::vector<ClientLog> logs =
        RunClients(*setup, oracle, config.seed, config.seconds,
                   MinSamplesFor(kTailP), OpPath::kSql, nullptr);
    std::vector<double> recall;
    const OpSamples ops = Collect(logs, result, &recall);
    AddEndToEnd(result, setup_s, ops, kTailP, PeakRssMiB());
    AddClassLatencies(result, ops);
    result.Detail("recall_at_10", Mean(recall), "fraction",
                  static_cast<int64_t>(recall.size()));
    return result;
  }

  Tracer tracer;
  std::unique_ptr<Setup> setup = SetUp(config.seed, &tracer);
  for (const std::string& e : setup->errors) result.Fail(e);
  const Oracle oracle(*setup);
  tdp::Session& session = setup->engine->tenant(kTenant);
  LayerFigures layers;
  for (int rep = 0; rep < 3; ++rep) {
    for (const std::string& sql : AllTexts()) {
      auto q = CompileThroughLayers(session, sql, {}, &tracer, -1, "compile");
      if (!q.ok()) result.Fail("compile: " + q.status().ToString());
    }
  }

  auto& scheduler = tdp::runtime::InferenceScheduler::Global();
  const tdp::runtime::InferenceScheduler::Stats sched_before = scheduler.stats();
  const tdp::server::EngineStats before = setup->engine->stats();
  const tdp::PlanCacheStats cache_before = session.plan_cache_stats();
  // Three windows: Engine::Sql untraced, Engine::Sql under a span (the
  // pair gives the tracing overhead), and Prepare + Run under spans.
  Window window;
  const std::vector<ClientLog> untraced_logs = RunClients(
      *setup, oracle, config.seed, config.seconds / 3, 0, OpPath::kSql, nullptr);
  const double untraced_s = window.wall_s();
  layers.proc_cpu_busy_ratio = window.CpuBusyRatio();
  const tdp::runtime::InferenceScheduler::Stats sched_after = scheduler.stats();
  const tdp::server::EngineStats after = setup->engine->stats();
  const tdp::PlanCacheStats cache_after = session.plan_cache_stats();
  std::vector<double> recall;
  const OpSamples untraced = Collect(untraced_logs, result, &recall);

  const Clock::time_point traced_start = Clock::now();
  const std::vector<ClientLog> traced_logs = RunClients(
      *setup, oracle, config.seed + 1, config.seconds / 3, 0, OpPath::kSqlSpan, &tracer);
  const double traced_s = SecondsSince(traced_start);
  const OpSamples traced = Collect(traced_logs, result, &recall);
  Collect(RunClients(*setup, oracle, config.seed + 2, config.seconds / 3, 0,
                     OpPath::kLayers, &tracer),
          result, &recall);

  FillServerFigures(before, after, cache_before, cache_after, layers);
  const double calls = static_cast<double>(sched_after.calls - sched_before.calls);
  const double forwards =
      static_cast<double>(sched_after.forwards - sched_before.forwards);
  layers.runtime_coalesced_share =
      calls > 0 ? static_cast<double>(sched_after.coalesced_requests -
                                      sched_before.coalesced_requests) / calls
                : 0;
  layers.runtime_rows_per_forward =
      forwards > 0 ? static_cast<double>(sched_after.rows - sched_before.rows) / forwards
                   : 0;
  layers.trace_overhead_ratio =
      TraceOverhead(untraced.ms.size(), untraced_s, traced.ms.size(), traced_s);

  const std::vector<Span> spans = tracer.spans();
  const SpanSummary summary = Summarize(spans);
  FillCompileFigures(summary, layers);
  AddSpanDetails(result, summary);
  double rows = 0, run_s = 0;
  std::vector<double> run_us;
  for (const Span& s : spans) {
    if (s.name != "exec.Run") continue;
    run_us.push_back(s.duration_us());
    run_s += s.duration_us() / 1e6;
    for (int c = 0; c < kMultimodalClasses; ++c) {
      const auto cls = static_cast<MultimodalClass>(c);
      if (s.tag == MultimodalClassName(cls)) rows += static_cast<double>(InputRows(cls));
    }
  }
  layers.exec_run_ms_p50 = MedianOrZero(run_us) / 1e3;
  layers.exec_rows_per_s = run_s > 0 ? rows / run_s : 0;
  for (int c = 0; c < kMultimodalClasses; ++c) {
    const std::string cls = MultimodalClassName(static_cast<MultimodalClass>(c));
    const auto it = summary.tagged_duration_us.find("exec.Run|" + cls);
    if (it == summary.tagged_duration_us.end()) continue;
    result.Detail("exec.run_ms_p50." + cls, MedianOrZero(it->second) / 1e3, "ms",
                  static_cast<int64_t>(it->second.size()));
  }
  std::vector<std::shared_ptr<tdp::exec::CompiledQuery>> prepared;
  for (const std::string& sql : AllTexts()) {
    auto q = session.Prepare(sql);
    if (q.ok()) prepared.push_back(*q);
  }
  FillPrimitiveCacheFigures(prepared, layers);
  if (auto t = session.catalog().GetTable("embeddings"); t.ok()) {
    layers.storage_segments_per_table = static_cast<double>((*t)->num_segments());
  }
  if (auto it = summary.duration_us.find("index.Build"); it != summary.duration_us.end()) {
    result.Detail("index.build_s", it->second.front() / 1e6, "s");
  }

  // Index, model and kernel probes on the workload's own data.
  tdp::Rng index_rng(tdp::kDefaultVectorIndexSeed);
  tdp::index::IvfIndex::Options index_options;
  index_options.num_lists = kNumLists;
  const tdp::Tensor vectors = tdp::Tensor::FromVector(setup->embeddings.vectors,
                                                      {kVecRows, kVecDim});
  auto index = tdp::index::IvfIndex::Build(vectors, index_options, index_rng);
  if (index.ok()) {
    layers.index_scan_fraction = index->ScanFraction(kNumProbes);
    std::vector<double> search_us;
    for (int rep = 0; rep < 4; ++rep) {
      for (const tdp::Tensor& q : setup->queries) {
        const Clock::time_point s = Clock::now();
        (void)index->Search(q, kTopK, kNumProbes);
        search_us.push_back(SecondsSince(s) * 1e6);
      }
    }
    result.Detail("index.search_us_p50", Median(search_us), "us",
                  static_cast<int64_t>(search_us.size()));
  }
  const tdp::Tensor images = setup->corpus.images.To(tdp::Device::kAccel);
  std::vector<double> encode_ms;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point s = Clock::now();
    (void)setup->clip->EncodeImages(images);
    encode_ms.push_back(SecondsSince(s) * 1e3 / static_cast<double>(kCorpusRows));
  }
  result.Detail("models.clip_encode_ms_per_image", Median(encode_ms), "ms", 5);
  const tdp::Tensor scores =
      tdp::MatMul(vectors.To(tdp::Device::kAccel),
                  tdp::Reshape(setup->queries[0].To(tdp::Device::kAccel), {kVecDim, 1}));
  const tdp::Tensor flat_scores = tdp::Reshape(scores, {kVecRows});
  const tdp::Tensor grp =
      tdp::Tensor::FromVector(setup->embeddings.grp).To(tdp::Device::kAccel);
  const tdp::Tensor mask =
      tdp::Ne(grp, tdp::Tensor::Scalar(0, tdp::DType::kInt64, grp.device()));
  ProbeKernels(flat_scores, grp, mask, 0.4, layers);
  ProbeMatMulConv(0.4, layers);
  // The trainable-query layers (autograd, nn, soft operators), which no
  // listed workload exercises.
  ProbeTraining(config.seed, kTrainingProbeSteps, result);
  result.Detail("recall_at_10", Mean(recall), "fraction",
                static_cast<int64_t>(recall.size()));
  WriteSpans(tracer, config);
  AddPerLayer(result, layers);
  return result;
}

}  // namespace perfbench

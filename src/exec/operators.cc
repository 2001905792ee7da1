#include "src/exec/operators.h"

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "src/common/string_util.h"
#include "src/common/thread_pool.h"
#include "src/exec/bound_expr.h"
#include "src/exec/keys.h"
#include "src/exec/operator_kernels.h"
#include "src/exec/primitive_cache.h"
#include "src/exec/soft_ops.h"
#include "src/exec/spill.h"
#include "src/exec/spill_kernels.h"
#include "src/tensor/ops.h"

namespace tdp {
namespace exec {
namespace {

using plan::AggDef;
using plan::AggKind;
using plan::AggregateNode;
using plan::FilterNode;
using plan::JoinNode;
using plan::LimitNode;
using plan::ProjectNode;
using plan::ScanNode;
using plan::SortNode;
using plan::TvfScanNode;

}  // namespace

EvalOptions EvalOpts(const ExecContext& ctx) {
  EvalOptions opts;
  opts.device = ctx.device;
  opts.params = ctx.params;
  opts.udf_dispatch = ctx.udf_dispatch;
  opts.cancel = ctx.cancel;
  return opts;
}

// ---- Scan -------------------------------------------------------------------

StatusOr<Chunk> ExecuteScan(const ScanNode& node, const ExecContext& ctx) {
  TDP_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                       ctx.catalog->GetTable(node.table_name));
  // The catalog may hold a newer registration of this table (training
  // loops re-register inputs); validate it still matches the bound schema.
  // Downstream expressions read columns by position, so both the count and
  // the per-position names must still agree — a reordered/renamed
  // re-registration has to fail loudly, never silently read wrong data.
  Chunk chunk;
  if (node.projected_columns.empty()) {
    if (static_cast<size_t>(table->num_columns()) != node.schema.size()) {
      return Status::ExecutionError(
          "table " + node.table_name +
          " changed shape since compilation; re-compile the query");
    }
    for (size_t i = 0; i < node.schema.size(); ++i) {
      if (!EqualsIgnoreCase(table->column_names()[i], node.schema[i].name)) {
        return Status::ExecutionError(
            "table " + node.table_name + " column " + std::to_string(i) +
            " is now '" + table->column_names()[i] +
            "' (compiled against '" + node.schema[i].name +
            "'); re-compile the query");
      }
    }
    chunk = Chunk::FromTable(*table);
  } else {
    for (size_t k = 0; k < node.projected_columns.size(); ++k) {
      const int64_t i = node.projected_columns[k];
      if (i >= table->num_columns()) {
        return Status::ExecutionError(
            "table " + node.table_name +
            " changed shape since compilation; re-compile the query");
      }
      const std::string& name =
          table->column_names()[static_cast<size_t>(i)];
      if (!EqualsIgnoreCase(name, node.schema[k].name)) {
        return Status::ExecutionError(
            "table " + node.table_name + " column " + std::to_string(i) +
            " is now '" + name + "' (compiled against '" +
            node.schema[k].name + "'); re-compile the query");
      }
      chunk.names.push_back(name);
      chunk.columns.push_back(table->column(i));
    }
  }
  // Move data to the execution device if the table lives elsewhere. The
  // transfer copies every column, so repeated prepared-statement runs keep
  // the moved columns in the per-plan cache, keyed by table identity —
  // DML installs a fresh Table object, which misses and re-transfers.
  // Sharing the cached copy across runs aliases no more than the
  // same-device path below, which hands out the table's own columns.
  bool needs_move = false;
  for (const Column& c : chunk.columns) {
    if (c.data().device() != ctx.device) {
      needs_move = true;
      break;
    }
  }
  if (!needs_move) return chunk;
  if (ctx.primitive_cache != nullptr) {
    std::shared_ptr<const Table> key = table;
    if (auto cached = ctx.primitive_cache->LookupScan(&node, key, ctx.device)) {
      chunk.columns = *cached;
      return chunk;
    }
    for (Column& c : chunk.columns) {
      if (c.data().device() != ctx.device) c = c.To(ctx.device);
    }
    ctx.primitive_cache->StoreScan(
        &node, std::move(key), ctx.device,
        std::make_shared<const std::vector<Column>>(chunk.columns));
    return chunk;
  }
  for (Column& c : chunk.columns) {
    if (c.data().device() != ctx.device) c = c.To(ctx.device);
  }
  return chunk;
}

StatusOr<Chunk> ExecuteTvfScan(const TvfScanNode& node, Chunk input,
                               const ExecContext& ctx) {
  for (Column& c : input.columns) {
    if (c.data().device() != ctx.device) c = c.To(ctx.device);
  }
  TDP_ASSIGN_OR_RETURN(Chunk out, node.fn->fn(input, node.args, ctx.device));
  if (out.names.size() != node.fn->output_schema.size()) {
    return Status::ExecutionError(
        "TVF " + node.fn->name + " returned " +
        std::to_string(out.names.size()) + " columns, declared " +
        std::to_string(node.fn->output_schema.size()));
  }
  return out;
}

// ---- Filter / Project -------------------------------------------------------

StatusOr<Chunk> ExecuteFilter(const FilterNode& node, const Chunk& input,
                              const ExecContext& ctx) {
  TDP_ASSIGN_OR_RETURN(
      Tensor mask,
      EvaluatePredicate(*node.predicate, input, EvalOpts(ctx)));
  if (mask.numel() != input.num_rows()) {
    return Status::ExecutionError("predicate mask length mismatch");
  }
  return input.Select(NonZero(mask));
}

StatusOr<Chunk> ExecuteProject(const ProjectNode& node, const Chunk& input,
                               const ExecContext& ctx) {
  Chunk out;
  for (size_t i = 0; i < node.exprs.size(); ++i) {
    TDP_ASSIGN_OR_RETURN(
        Column c,
        EvaluateExprToColumn(*node.exprs[i], input, EvalOpts(ctx)));
    out.names.push_back(node.schema[i].name);
    out.columns.push_back(std::move(c));
  }
  return out;
}

// ---- ModelEval (streaming micro-batch model evaluation) ---------------------

StatusOr<Chunk> ExecuteModelEval(const plan::ModelEvalNode& node,
                                 const Chunk& morsel, const ExecContext& ctx) {
  TDP_CHECK(node.wrapped != nullptr);
  const auto run_wrapped = [&](const Chunk& batch) -> StatusOr<Chunk> {
    switch (node.wrapped->kind) {
      case plan::NodeKind::kFilter:
        return ExecuteFilter(static_cast<const FilterNode&>(*node.wrapped),
                             batch, ctx);
      case plan::NodeKind::kProject:
        return ExecuteProject(static_cast<const ProjectNode&>(*node.wrapped),
                              batch, ctx);
      case plan::NodeKind::kTvfScan:
        return ExecuteTvfScan(static_cast<const TvfScanNode&>(*node.wrapped),
                              batch, ctx);
      default:
        return Status::Internal("ModelEval wraps unsupported operator: " +
                                node.wrapped->Describe());
    }
  };
  const int64_t batch_rows = std::max<int64_t>(
      ctx.model_batch_rows > 0 ? ctx.model_batch_rows : node.batch_rows, 1);
  const int64_t rows = morsel.num_rows();
  // Zero or one batch: a single direct call, exactly what the breaker path
  // would have done with this input (empty inputs included — TVF bodies
  // already handle 0-row chunks on the materialized path).
  if (rows <= batch_rows) return run_wrapped(morsel);
  std::vector<Chunk> outputs;
  outputs.reserve(static_cast<size_t>((rows + batch_rows - 1) / batch_rows));
  for (int64_t start = 0; start < rows; start += batch_rows) {
    TDP_RETURN_NOT_OK(CheckCancel(ctx));
    const int64_t count = std::min(batch_rows, rows - start);
    TDP_ASSIGN_OR_RETURN(Chunk out,
                         run_wrapped(morsel.SliceRows(start, count)));
    outputs.push_back(std::move(out));
  }
  // Slice-order reassembly: row-locality of batchable bodies makes this
  // concatenation bit-identical to one whole-morsel evaluation.
  return Chunk::Concat(outputs);
}

// ---- Aggregate --------------------------------------------------------------

StatusOr<AggInputs> EvaluateAggInputs(const AggregateNode& node,
                                      const Chunk& input,
                                      const ExecContext& ctx) {
  AggInputs out;
  out.rows = input.num_rows();
  out.key_columns.reserve(node.group_exprs.size());
  for (const auto& expr : node.group_exprs) {
    TDP_ASSIGN_OR_RETURN(
        Column key,
        EvaluateExprToColumn(*expr, input, EvalOpts(ctx)));
    out.key_columns.push_back(std::move(key));
  }
  out.arg_columns.reserve(node.aggregates.size());
  for (const AggDef& def : node.aggregates) {
    if (def.arg) {
      TDP_ASSIGN_OR_RETURN(
          Column arg,
          EvaluateExprToColumn(*def.arg, input, EvalOpts(ctx)));
      out.arg_columns.push_back(std::move(arg));
    } else {
      out.arg_columns.emplace_back();
    }
  }
  return out;
}

AggInputs MergeAggInputs(const std::vector<const AggInputs*>& parts) {
  TDP_CHECK(!parts.empty());
  if (parts.size() == 1) return *parts[0];
  AggInputs out;
  std::vector<Column> column_parts(parts.size());
  const size_t num_keys = parts[0]->key_columns.size();
  out.key_columns.reserve(num_keys);
  for (size_t k = 0; k < num_keys; ++k) {
    for (size_t p = 0; p < parts.size(); ++p) {
      column_parts[p] = parts[p]->key_columns[k];
    }
    out.key_columns.push_back(Column::Concat(column_parts));
  }
  const size_t num_args = parts[0]->arg_columns.size();
  out.arg_columns.reserve(num_args);
  for (size_t a = 0; a < num_args; ++a) {
    if (!parts[0]->arg_columns[a].defined()) {
      out.arg_columns.emplace_back();
      continue;
    }
    for (size_t p = 0; p < parts.size(); ++p) {
      column_parts[p] = parts[p]->arg_columns[a];
    }
    out.arg_columns.push_back(Column::Concat(column_parts));
  }
  for (const AggInputs* p : parts) out.rows += p->rows;
  return out;
}

namespace {

/// The soft (differentiable) group-by of §4: when a training-mode
/// aggregate's group keys are all PE-encoded, each group's count is the
/// expected row count under the keys' probabilities, so gradients flow
/// from the counts back into the UDFs that produced the keys. Only
/// COUNT(*) is differentiable this way.
StatusOr<Chunk> SoftFinalizeAggregate(const AggregateNode& node,
                                      const AggInputs& inputs) {
  for (const AggDef& def : node.aggregates) {
    if (def.kind != AggKind::kCountStar) {
      return Status::Unimplemented(
          "trainable aggregation over PE keys supports COUNT(*) only");
    }
  }
  TDP_ASSIGN_OR_RETURN(SoftGroupByResult soft,
                       SoftGroupByCount(inputs.key_columns));
  Chunk out;
  for (size_t g = 0; g < node.group_names.size(); ++g) {
    out.names.push_back(node.group_names[g]);
    out.columns.push_back(Column::Plain(soft.key_values[g]));
  }
  for (const AggDef& def : node.aggregates) {
    out.names.push_back(def.name);
    out.columns.push_back(Column::Plain(soft.counts));
  }
  return out;
}

// Rejects arguments no aggregate folds: strings outside COUNT, and
// tensor-valued columns.
Status CheckAggArguments(const AggregateNode& node, const AggInputs& inputs) {
  for (size_t d = 0; d < node.aggregates.size(); ++d) {
    const AggDef& def = node.aggregates[d];
    if (!def.arg) continue;
    const Column& arg_col = inputs.arg_columns[d];
    if (arg_col.encoding() == Encoding::kDictionary &&
        def.kind != AggKind::kCount) {
      return Status::TypeError("cannot " +
                               std::string(plan::AggKindName(def.kind)) +
                               " a string column");
    }
    if (arg_col.IsTensorColumn()) {
      return Status::TypeError("aggregate argument must be a scalar column");
    }
  }
  return Status::OK();
}

// One aggregate's per-group running state. Rows fold in with `AddRows`;
// page partials fold in page order with `Merge`.
struct AggAccumulator {
  AggAccumulator(AggKind kind, int64_t num_groups)
      : kind(kind),
        acc(static_cast<size_t>(num_groups), 0.0),
        counts(static_cast<size_t>(num_groups), 0),
        has(static_cast<size_t>(num_groups), 0) {}

  // Folds `n` rows in order: row i into group `gid[i]` with value
  // `args[i]` (0 when `args` is null). With DISTINCT `codes`, a row whose
  // (group, code) pair was folded before is skipped.
  void AddRows(int64_t n, const int64_t* gid, const double* args,
               const int64_t* codes) {
    for (int64_t i = 0; i < n; ++i) {
      const size_t g = static_cast<size_t>(gid[i]);
      if (codes != nullptr) {
        const int64_t pair[2] = {gid[i], codes[i]};
        if (!distinct_seen.Insert(pair).second) continue;
      }
      const double v = args != nullptr ? args[i] : 0.0;
      switch (kind) {
        case AggKind::kCountStar:
        case AggKind::kCount:
          break;
        case AggKind::kSum:
        case AggKind::kAvg:
          acc[g] += v;
          break;
        case AggKind::kMin:
          acc[g] = has[g] ? std::min(acc[g], v) : v;
          break;
        case AggKind::kMax:
          acc[g] = has[g] ? std::max(acc[g], v) : v;
          break;
      }
      has[g] = 1;
      ++counts[g];
    }
  }

  void Merge(const AggAccumulator& page) {
    for (size_t g = 0; g < acc.size(); ++g) {
      if (!page.has[g]) continue;
      switch (kind) {
        case AggKind::kCountStar:
        case AggKind::kCount:
          break;
        case AggKind::kSum:
        case AggKind::kAvg:
          acc[g] += page.acc[g];
          break;
        case AggKind::kMin:
          acc[g] = has[g] ? std::min(acc[g], page.acc[g]) : page.acc[g];
          break;
        case AggKind::kMax:
          acc[g] = has[g] ? std::max(acc[g], page.acc[g]) : page.acc[g];
          break;
      }
      has[g] = 1;
      counts[g] += page.counts[g];
    }
  }

  // The aggregate's output column values, as `dtype`.
  Tensor Finish(DType dtype, Device device) const {
    const int64_t num_groups = static_cast<int64_t>(acc.size());
    Tensor result = Tensor::Zeros({num_groups}, dtype, device);
    for (int64_t g = 0; g < num_groups; ++g) {
      const size_t ug = static_cast<size_t>(g);
      double v = acc[ug];
      if (kind == AggKind::kCountStar || kind == AggKind::kCount) {
        v = static_cast<double>(counts[ug]);
      } else if (kind == AggKind::kAvg) {
        v = counts[ug] > 0 ? acc[ug] / static_cast<double>(counts[ug]) : 0;
      }
      result.SetAt({g}, v);
    }
    return result;
  }

  AggKind kind;
  std::vector<double> acc;
  std::vector<int64_t> counts;
  std::vector<unsigned char> has;
  KeyTable distinct_seen{2};  // (group id, argument code)
};

// One page of an aggregate's evaluated inputs: per row its group id, and
// per aggregate the argument doubles (empty without an argument) and the
// DISTINCT codes (empty unless DISTINCT).
struct AggPage {
  std::vector<int64_t> gid;
  std::vector<std::vector<double>> args;
  std::vector<std::vector<int64_t>> codes;
};

// Page file layout: [rows][group ids], then per aggregate with an
// argument [argument doubles] and, for DISTINCT, [codes].
Status WriteAggPage(SpillWriter& w, const AggregateNode& node,
                    const AggPage& page) {
  TDP_RETURN_NOT_OK(w.WriteInt64(static_cast<int64_t>(page.gid.size())));
  TDP_RETURN_NOT_OK(w.WriteInt64Span(page.gid.data(), page.gid.size()));
  for (size_t d = 0; d < node.aggregates.size(); ++d) {
    TDP_RETURN_NOT_OK(
        w.WriteBytes(page.args[d].data(), page.args[d].size() * 8));
    TDP_RETURN_NOT_OK(
        w.WriteInt64Span(page.codes[d].data(), page.codes[d].size()));
  }
  return Status::OK();
}

Status ReadAggPage(SpillReader& r, const AggregateNode& node, AggPage& page) {
  TDP_ASSIGN_OR_RETURN(const int64_t rows, r.ReadInt64());
  const size_t n = static_cast<size_t>(rows);
  page.gid.resize(n);
  TDP_RETURN_NOT_OK(r.ReadInt64Span(page.gid.data(), n));
  for (size_t d = 0; d < node.aggregates.size(); ++d) {
    const AggDef& def = node.aggregates[d];
    page.args[d].resize(def.arg ? n : 0);
    page.codes[d].resize(def.arg && def.distinct ? n : 0);
    TDP_RETURN_NOT_OK(
        r.ReadBytes(page.args[d].data(), page.args[d].size() * 8));
    TDP_RETURN_NOT_OK(
        r.ReadInt64Span(page.codes[d].data(), page.codes[d].size()));
  }
  return Status::OK();
}

}  // namespace

StatusOr<Chunk> FinalizeAggregate(const AggregateNode& node,
                                  const AggInputs& inputs,
                                  const ExecContext& ctx) {
  if (ctx.soft_mode && !inputs.key_columns.empty() &&
      std::all_of(inputs.key_columns.begin(), inputs.key_columns.end(),
                  [](const Column& key) {
                    return key.encoding() == Encoding::kProbability;
                  })) {
    return SoftFinalizeAggregate(node, inputs);
  }
  TDP_RETURN_NOT_OK(CheckAggArguments(node, inputs));
  const int64_t rows = inputs.rows;
  const int64_t width = static_cast<int64_t>(inputs.key_columns.size());
  const size_t num_defs = node.aggregates.size();
  constexpr int64_t kAggBlock = 4096;
  const int64_t num_pages = (rows + kAggBlock - 1) / kAggBlock;

  // The kernel works in fixed 4096-row pages. Scratch it materializes
  // beyond the (caller-owned) evaluated inputs: key codes, argument
  // doubles, distinct codes, and the per-row group ids. Over budget the
  // pages stream through a spill file instead and only one is resident —
  // every step is page by page in page order, so results are bit-identical.
  const int64_t scratch =
      rows * 8 * static_cast<int64_t>(width + num_defs + 2);
  const bool spill = ctx.memory != nullptr && !ctx.soft_mode && rows > 0 &&
                     ctx.memory->ShouldSpill(scratch);
  const ScopedReservation reservation(ctx.memory, spill ? 0 : scratch);
  std::string path;
  if (spill) {
    TDP_ASSIGN_OR_RETURN(path, ctx.memory->NewSpillFile("aggpages"));
  }

  // Pass A: per page, the rows' first-seen group ids from the key table
  // (key codes are row-local, so pages see exactly the whole-relation key
  // equivalences) and every aggregate's argument values.
  KeyTable groups(width);
  std::vector<int64_t> first_row;  // per first-seen id
  std::vector<AggPage> pages(spill ? 1 : static_cast<size_t>(num_pages));
  std::unique_ptr<SpillWriter> writer;
  if (spill) writer = std::make_unique<SpillWriter>(path);
  std::vector<Column> page_keys(static_cast<size_t>(width));
  for (int64_t p = 0; p < num_pages; ++p) {
    TDP_RETURN_NOT_OK(CheckCancel(ctx));
    const int64_t lo = p * kAggBlock;
    const int64_t pn = std::min(kAggBlock, rows - lo);
    AggPage& page = pages[spill ? 0 : static_cast<size_t>(p)];
    for (size_t k = 0; k < page_keys.size(); ++k) {
      page_keys[k] = inputs.key_columns[k].SliceRows(lo, pn);
    }
    TDP_ASSIGN_OR_RETURN(const std::vector<int64_t> tuples,
                         KeyTuples(page_keys));
    page.gid.resize(static_cast<size_t>(pn));
    for (int64_t i = 0; i < pn; ++i) {
      const auto [id, inserted] = groups.Insert(tuples.data() + i * width);
      page.gid[static_cast<size_t>(i)] = id;
      if (inserted) first_row.push_back(lo + i);
    }
    page.args.assign(num_defs, {});
    page.codes.assign(num_defs, {});
    for (size_t d = 0; d < num_defs; ++d) {
      const AggDef& def = node.aggregates[d];
      if (!def.arg) continue;
      const Column arg = inputs.arg_columns[d].SliceRows(lo, pn);
      page.args[d] = arg.DecodeValues().To(DType::kFloat64).ToVector<double>();
      if (def.distinct) {
        TDP_ASSIGN_OR_RETURN(page.codes[d], KeyCodes(arg));
      }
    }
    if (spill) TDP_RETURN_NOT_OK(WriteAggPage(*writer, node, page));
  }
  if (spill) {
    TDP_RETURN_NOT_OK(writer->Close());
    ctx.memory->AddSpilledBytes(writer->bytes_written());
  }

  // Renumber the groups into lexicographic code order — value order,
  // since codes preserve order — and emit each group's key columns at its
  // first row (PE keys hard-decoded — the exact operator swap of §4).
  const std::vector<int64_t> sorted_id = groups.SortIds();
  const int64_t num_groups = node.group_exprs.empty() ? 1 : groups.size();
  Chunk out;
  if (!node.group_exprs.empty()) {
    std::vector<int64_t> representative(first_row.size());
    for (size_t id = 0; id < first_row.size(); ++id) {
      representative[static_cast<size_t>(sorted_id[id])] = first_row[id];
    }
    const Tensor rep = Tensor::FromVector(representative, {}, ctx.device);
    for (size_t k = 0; k < inputs.key_columns.size(); ++k) {
      Column key_col = inputs.key_columns[k];
      if (key_col.encoding() == Encoding::kProbability) {
        key_col = Column::Plain(key_col.DecodeValues());
      }
      out.names.push_back(node.group_names[k]);
      out.columns.push_back(key_col.Select(rep));
    }
  }
  const auto renumber = [&sorted_id](AggPage& page) {
    for (int64_t& g : page.gid) g = sorted_id[static_cast<size_t>(g)];
  };

  // Pass B: fold every aggregate page by page, in page order, so the
  // floating-point reduction tree depends only on the row count — results
  // are identical for every TDP_NUM_THREADS, every morsel size (the
  // streaming executor merges per-morsel inputs in morsel order first) and
  // every budget. An aggregate whose page merge (num_pages * num_groups
  // entries) costs no more than its rows folds each page into a partial
  // and merges the partials in page order; in memory those partials are
  // computed concurrently. DISTINCT and high-cardinality aggregates fold
  // rows serially.
  std::vector<AggAccumulator> totals;
  std::vector<uint8_t> by_partials(num_defs);
  for (size_t d = 0; d < num_defs; ++d) {
    totals.emplace_back(node.aggregates[d].kind, num_groups);
    by_partials[d] = !node.aggregates[d].distinct && num_pages > 1 &&
                     num_pages * num_groups <= rows;
  }
  const auto fold = [&](const AggPage& page, size_t d, AggAccumulator& into) {
    into.AddRows(static_cast<int64_t>(page.gid.size()), page.gid.data(),
                 page.args[d].empty() ? nullptr : page.args[d].data(),
                 page.codes[d].empty() ? nullptr : page.codes[d].data());
  };
  if (!spill) {
    ParallelFor(0, num_pages, GrainForCost(kAggBlock),
                [&](int64_t begin, int64_t end) {
                  for (int64_t p = begin; p < end; ++p) {
                    renumber(pages[static_cast<size_t>(p)]);
                  }
                });
    for (size_t d = 0; d < num_defs; ++d) {
      if (by_partials[d]) {
        std::vector<AggAccumulator> partials(
            static_cast<size_t>(num_pages),
            AggAccumulator(node.aggregates[d].kind, num_groups));
        ParallelFor(0, num_pages, GrainForCost(kAggBlock),
                    [&](int64_t begin, int64_t end) {
                      for (int64_t p = begin; p < end; ++p) {
                        fold(pages[static_cast<size_t>(p)], d,
                             partials[static_cast<size_t>(p)]);
                      }
                    });
        for (const AggAccumulator& partial : partials) {
          totals[d].Merge(partial);
        }
      } else {
        for (const AggPage& page : pages) fold(page, d, totals[d]);
      }
    }
  } else {
    SpillReader reader(path);
    AggPage& page = pages[0];
    for (int64_t p = 0; p < num_pages; ++p) {
      TDP_RETURN_NOT_OK(CheckCancel(ctx));
      TDP_RETURN_NOT_OK(ReadAggPage(reader, node, page));
      renumber(page);
      for (size_t d = 0; d < num_defs; ++d) {
        if (!by_partials[d]) {
          fold(page, d, totals[d]);
          continue;
        }
        AggAccumulator partial(node.aggregates[d].kind, num_groups);
        fold(page, d, partial);
        totals[d].Merge(partial);
      }
    }
  }

  for (size_t d = 0; d < num_defs; ++d) {
    out.names.push_back(node.aggregates[d].name);
    out.columns.push_back(Column::Plain(totals[d].Finish(
        node.schema[node.group_exprs.size() + d].dtype, ctx.device)));
  }
  return out;
}

// ---- Join -------------------------------------------------------------------

StatusOr<JoinHashTable> BuildJoinHashTable(const JoinNode& node,
                                           Chunk build_input,
                                           const ExecContext& ctx) {
  const auto& build_key_cols =
      node.build_left ? node.left_keys : node.right_keys;
  // Over-budget equi-join builds go grace: the payload is partitioned to
  // disk and only the key -> row maps stay resident. Pure-residual joins
  // (no keys) always build in memory — their probe is a cartesian product
  // over the materialized build side.
  if (ctx.memory != nullptr && !ctx.soft_mode && !build_key_cols.empty() &&
      build_input.num_rows() > 0) {
    const int64_t footprint =
        ChunkFootprintBytes(build_input) + build_input.num_rows() * 48;
    if (ctx.memory->ShouldSpill(footprint)) {
      JoinHashTable ht;
      TDP_ASSIGN_OR_RETURN(ht.spilled,
                           BuildSpilledJoin(node, build_input, ctx));
      return ht;
    }
  }
  JoinHashTable ht;
  ht.build = std::move(build_input);
  if (!build_key_cols.empty()) {
    TDP_ASSIGN_OR_RETURN(
        const JoinKeys keys,
        MakeJoinKeys(ht.build, build_key_cols, ht.build, build_key_cols));
    ht.rows = KeyRows(keys.width);
    for (int64_t r = 0; r < ht.build.num_rows(); ++r) {
      if (keys.live[static_cast<size_t>(r)]) ht.rows.Add(keys.row(r), r);
    }
    ht.rows.Finish();
  }
  return ht;
}

StatusOr<Chunk> ProbeJoin(const JoinNode& node, const JoinHashTable& ht,
                          const Chunk& probe, const ExecContext& ctx) {
  if (ht.spilled != nullptr) {
    return ProbeSpilledJoin(node, *ht.spilled, probe, ctx);
  }
  const int64_t probe_rows = probe.num_rows();
  const int64_t build_rows = ht.build.num_rows();
  const auto& build_key_cols =
      node.build_left ? node.left_keys : node.right_keys;
  const auto& probe_key_cols =
      node.build_left ? node.right_keys : node.left_keys;

  // Matched row pairs, in probe-row-major order; matches of one probe row
  // come out in ascending build-row order.
  std::vector<int64_t> probe_idx;
  std::vector<int64_t> build_idx;
  if (!probe_key_cols.empty()) {
    TDP_ASSIGN_OR_RETURN(
        const JoinKeys keys,
        MakeJoinKeys(ht.build, build_key_cols, probe, probe_key_cols));
    for (int64_t r = 0; r < probe_rows; ++r) {
      if (!keys.live[static_cast<size_t>(r)]) continue;
      for (int64_t b : ht.rows.Find(keys.row(r))) {
        probe_idx.push_back(r);
        build_idx.push_back(b);
      }
    }
  } else {
    // Pure residual join: cartesian pairs filtered below.
    probe_idx.reserve(static_cast<size_t>(probe_rows * build_rows));
    build_idx.reserve(static_cast<size_t>(probe_rows * build_rows));
    for (int64_t l = 0; l < probe_rows; ++l) {
      for (int64_t r = 0; r < build_rows; ++r) {
        probe_idx.push_back(l);
        build_idx.push_back(r);
      }
    }
  }

  return AssembleJoin(
      node, ht.build.Select(Tensor::FromVector(build_idx, {}, ctx.device)),
      probe.Select(Tensor::FromVector(probe_idx, {}, ctx.device)), ctx);
}

StatusOr<Chunk> AssembleJoin(const JoinNode& node, const Chunk& build_rows,
                             const Chunk& probe_rows, const ExecContext& ctx) {
  // Schema order (left columns first) regardless of which side was the
  // build: the build-side flip is invisible downstream.
  const Chunk& left = node.build_left ? build_rows : probe_rows;
  const Chunk& right = node.build_left ? probe_rows : build_rows;
  Chunk joined;
  for (const Chunk* side : {&left, &right}) {
    for (const Column& column : side->columns) {
      joined.names.push_back(node.schema[joined.columns.size()].name);
      joined.columns.push_back(column);
    }
  }
  if (node.residual) {
    TDP_ASSIGN_OR_RETURN(
        Tensor mask,
        EvaluatePredicate(*node.residual, joined, EvalOpts(ctx)));
    joined = joined.Select(NonZero(mask));
  }
  return joined;
}

// ---- Sort / Limit / Distinct ------------------------------------------------

namespace {

// One value per row: what an ORDER BY key must hold.
bool IsScalarKey(const Column& column) {
  return column.encoding() != Encoding::kPlain || column.data().dim() == 1;
}

}  // namespace

StatusOr<SortKeys> EvaluateSortKeys(const SortNode& node, const Chunk& input,
                                    const ExecContext& ctx) {
  SortKeys keys(input.num_rows());
  for (const auto& item : node.items) {
    TDP_ASSIGN_OR_RETURN(
        Column key_col, EvaluateExprToColumn(*item.expr, input, EvalOpts(ctx)));
    if (!IsScalarKey(key_col)) {
      return Status::TypeError("ORDER BY key must be a scalar column");
    }
    TDP_RETURN_NOT_OK(keys.Add(key_col, item.descending));
  }
  return keys;
}

StatusOr<Chunk> ExecuteSort(const SortNode& node, const Chunk& input,
                            const ExecContext& ctx) {
  const int64_t rows = input.num_rows();
  // In-memory sort scratch: the key codes + permutation (+ the output
  // copy of the relation, since `input` stays live until Select returns).
  // Over budget -> external sort, bit-identical permutation.
  if (ctx.memory != nullptr && !ctx.soft_mode && rows > 0 &&
      !node.items.empty()) {
    const int64_t scratch =
        ChunkFootprintBytes(input) +
        rows * 8 * static_cast<int64_t>(node.items.size() + 2);
    if (ctx.memory->ShouldSpill(scratch)) {
      return ExternalSortChunk(node, input, ctx);
    }
  }
  const ScopedReservation reservation(
      ctx.memory,
      rows * 8 * static_cast<int64_t>(node.items.size() + 2));
  TDP_ASSIGN_OR_RETURN(const SortKeys keys, EvaluateSortKeys(node, input, ctx));
  return input.Select(
      Tensor::FromVector(keys.Sorted(node.fused_limit), {}, ctx.device));
}

StatusOr<Chunk> ExecuteLimit(const LimitNode& node, const Chunk& input) {
  const int64_t rows = input.num_rows();
  const int64_t start = std::min(node.offset, rows);
  const int64_t count = node.limit < 0
                            ? rows - start
                            : std::min(node.limit, rows - start);
  Tensor idx = Tensor::Empty({count}, DType::kInt64,
                             input.columns.empty()
                                 ? Device::kCpu
                                 : input.columns[0].data().device());
  int64_t* p = idx.data<int64_t>();
  for (int64_t i = 0; i < count; ++i) p[i] = start + i;
  return input.Select(idx);
}

StatusOr<Chunk> ExecuteDistinct(const Chunk& input) {
  const int64_t rows = input.num_rows();
  const int64_t width = input.num_columns();
  TDP_ASSIGN_OR_RETURN(const std::vector<int64_t> tuples,
                       KeyTuples(input.columns));
  KeyTable seen(width);
  std::vector<int64_t> keep;
  for (int64_t r = 0; r < rows; ++r) {
    if (seen.Insert(tuples.data() + r * width).second) keep.push_back(r);
  }
  const Device device =
      input.columns.empty() ? Device::kCpu : input.columns[0].data().device();
  return input.Select(Tensor::FromVector(keep, {}, device));
}

// ---- IndexTopK --------------------------------------------------------------

namespace {

// Evaluates the node's absorbed projection over `rows` (already reduced to
// the winning top-k rows) into the output chunk. Every expression here is
// row-local (the rewrite rejects UDF-bearing projections), so evaluating
// over the k winners yields the same bytes as evaluating over the full
// relation and then selecting — the property the exactness guarantee
// rests on.
StatusOr<Chunk> ProjectIndexTopK(const plan::IndexTopKNode& node,
                                 const Chunk& rows, const ExecContext& ctx) {
  Chunk out;
  for (size_t i = 0; i < node.exprs.size(); ++i) {
    TDP_ASSIGN_OR_RETURN(
        Column c,
        EvaluateExprToColumn(*node.exprs[i], rows, EvalOpts(ctx)));
    out.names.push_back(node.schema[i].name);
    out.columns.push_back(std::move(c));
  }
  return out;
}

// Top-k permutation over `n` rows ranked by the node's sort keys — the
// similarity DESC first, then the absorbed `extra_keys` tie-breaks —
// under the same `SortKeys` order as ExecuteSort, so candidate-subset
// ranking reproduces the exact plan's order (ties included) bit for bit.
// `key_column(ordinal)` yields `exprs[ordinal]` over those n rows.
StatusOr<Tensor> TopKPerm(
    const plan::IndexTopKNode& node, int64_t n, Device device,
    const std::function<StatusOr<Column>(int64_t)>& key_column) {
  SortKeys keys(n);
  const auto add = [&](int64_t ordinal, bool descending) -> Status {
    TDP_ASSIGN_OR_RETURN(const Column column, key_column(ordinal));
    if (!IsScalarKey(column)) {
      return Status::TypeError("similarity key must be a scalar column");
    }
    return keys.Add(column, descending);
  };
  TDP_RETURN_NOT_OK(add(node.sim_ordinal, /*descending=*/true));
  for (const auto& extra : node.extra_keys) {
    TDP_RETURN_NOT_OK(add(extra.ordinal, extra.descending));
  }
  return Tensor::FromVector(keys.Sorted(node.k), {}, device);
}

// The k = 0 / zero-survivor result: the projection evaluated over the
// UNfiltered input, then a zero-row Select — projecting first keeps
// mixed literal/column chunks consistent where per-subset projection of
// constants over an empty chunk would diverge.
StatusOr<Chunk> EmptyIndexTopK(const plan::IndexTopKNode& node,
                               const Chunk& input, const ExecContext& ctx) {
  TDP_ASSIGN_OR_RETURN(Chunk projected, ProjectIndexTopK(node, input, ctx));
  return projected.Select(Tensor::Empty({0}, DType::kInt64, ctx.device));
}

// The exact plan shape IndexTopK replaced — Filter (when a predicate was
// absorbed), Project, stable multi-key top-k sort — used for the brute
// strategy and whenever the index cannot serve this run (re-registered
// table, row-count drift, or a degenerate zero-row candidate set).
StatusOr<Chunk> IndexTopKExact(const plan::IndexTopKNode& node,
                               const Chunk& input, const ExecContext& ctx) {
  const Chunk* base = &input;
  Chunk filtered;
  if (node.predicate != nullptr) {
    TDP_ASSIGN_OR_RETURN(
        Tensor mask,
        EvaluatePredicate(*node.predicate, input, EvalOpts(ctx)));
    if (mask.numel() != input.num_rows()) {
      return Status::ExecutionError("predicate mask length mismatch");
    }
    const Tensor survivors = NonZero(mask);
    if (survivors.numel() == 0) return EmptyIndexTopK(node, input, ctx);
    filtered = input.Select(survivors);
    base = &filtered;
  }
  TDP_ASSIGN_OR_RETURN(Chunk projected, ProjectIndexTopK(node, *base, ctx));
  TDP_ASSIGN_OR_RETURN(
      Tensor perm,
      TopKPerm(node, projected.num_rows(), ctx.device,
               [&projected](int64_t ordinal) -> StatusOr<Column> {
                 return projected.columns[static_cast<size_t>(ordinal)];
               }));
  return projected.Select(perm);
}

}  // namespace

StatusOr<Chunk> ExecuteIndexTopK(const plan::IndexTopKNode& node,
                                 const Chunk& input, const ExecContext& ctx) {
  // Re-resolve the index from THIS run's catalog snapshot: plans are
  // immutable and shared, so index validity — like table resolution — is
  // per-run state. A vanished/stale index (the table was re-registered
  // after compilation) degrades to the exact Sort+Limit computation
  // rather than failing; the next compile drops the IndexTopK node
  // entirely (the catalog version moved).
  // LIMIT 0 emits nothing: take the exact path straight away (its
  // zero-row Select keeps mixed literal/column chunks consistent) rather
  // than probing an index whose candidates would be discarded.
  if (node.k <= 0) return IndexTopKExact(node, input, ctx);

  // The index covers the table's PHYSICAL rows (deleted rows included);
  // its validity conditions are (a) identity — FindVectorIndex already
  // checked the entry tags the registration this snapshot serves — and
  // (b) coverage: one index id per physical row, and the scanned input is
  // the table's full live view (row i of `input` is live position i).
  const std::shared_ptr<const VectorIndexEntry> entry =
      ctx.catalog->FindVectorIndex(node.table_name, node.column_name);
  if (entry == nullptr ||
      entry->index->num_rows() != entry->table->num_physical_rows() ||
      entry->table->num_rows() != input.num_rows()) {
    return IndexTopKExact(node, input, ctx);
  }
  const Table& table = *entry->table;

  // Filtered-search strategy: the per-run override beats the compiled
  // cost-rule choice; for an unfiltered node only a forced kBrute changes
  // anything (pre- and post-filter coincide with the plain probe when
  // there is no predicate). Brute bypasses the index entirely.
  const VectorSearchStrategy strategy =
      ctx.vector_search.strategy != VectorSearchStrategy::kAuto
          ? ctx.vector_search.strategy
          : (node.predicate != nullptr ? node.strategy
                                       : VectorSearchStrategy::kPostFilter);
  if (strategy == VectorSearchStrategy::kBrute) {
    return IndexTopKExact(node, input, ctx);
  }

  const auto& sim = static_cast<const exec::BoundVectorSim&>(
      *node.exprs[static_cast<size_t>(node.sim_ordinal)]);
  TDP_ASSIGN_OR_RETURN(EvalResult query,
                       EvaluateExpr(*sim.query, input, EvalOpts(ctx)));
  if (!query.is_scalar || !query.scalar.is_tensor()) {
    return Status::TypeError(
        "IndexTopK query must be a constant tensor (bind the vector with "
        "ScalarValue::FromTensor)");
  }

  // Negative budgets were rejected at run entry (ValidateRunOptions);
  // here 0 means "probe every cell".
  const int64_t num_lists = entry->index->num_lists();
  // Cosine ranking only trusts the dot-ordered cell probe on unit-norm
  // rows (see IvfIndex::rows_unit_norm); otherwise probe every cell so
  // partial-probe recall can never silently collapse — results stay
  // exact, only the scan-fraction saving is lost.
  const bool trust_partial_probe =
      sim.sim_kind == exec::BoundVectorSim::SimKind::kDot ||
      entry->index->rows_unit_norm();
  const int64_t probes =
      (ctx.vector_search.num_probes == 0 || !trust_partial_probe)
          ? num_lists
          : std::min(ctx.vector_search.num_probes, num_lists);

  // Candidate generation, by strategy. Candidates are LIVE row ids in
  // ascending order; for a filtered node every candidate already
  // satisfies the predicate by the time ranking starts.
  std::vector<int64_t> candidates;
  if (node.predicate == nullptr) {
    // The probe budget is a floor: cells are probed past it until k
    // candidate rows exist, so a LIMIT k never shrinks below min(k, n)
    // just because the best cell is small — recall absorbs the
    // approximation, row count never does. Probed ids are PHYSICAL; the
    // deleted ones are dropped and the survivors mapped to live positions
    // (MapPhysicalToLive preserves ascending order). A delete-heavy cell
    // can leave fewer than k live candidates even though the probe floor
    // was met, so the budget doubles until k live rows exist or every
    // cell was visited — deletes, like small cells, cost scan fraction,
    // never result rows.
    for (int64_t budget = probes;;) {
      TDP_ASSIGN_OR_RETURN(
          std::vector<int64_t> physical,
          entry->index->ProbeCandidates(query.scalar.tensor_value(), budget,
                                        /*min_candidates=*/node.k));
      candidates = table.MapPhysicalToLive(physical);
      if (static_cast<int64_t>(candidates.size()) >= node.k ||
          budget >= num_lists) {
        break;
      }
      budget = std::min(budget * 2, num_lists);
    }
    if (candidates.empty()) {
      return IndexTopKExact(node, input, ctx);
    }
  } else if (strategy == VectorSearchStrategy::kPreFilter) {
    // Pre-filter: evaluate the predicate over the live view once, push
    // the surviving rows into the probe as a physical-id selection
    // bitmap. Only selected rows are collected (so every candidate is a
    // survivor — no re-check, no widening loop), fully-pruned cells
    // don't consume probe budget, and the min_candidates floor counts
    // SURVIVORS — the filtered row-count guarantee in one pass. Deleted
    // rows are never selected (the live mask can't reach them), keeping
    // the bitmap consistent with the physical-id index.
    TDP_ASSIGN_OR_RETURN(
        Tensor mask,
        EvaluatePredicate(*node.predicate, input, EvalOpts(ctx)));
    if (mask.numel() != input.num_rows()) {
      return Status::ExecutionError("predicate mask length mismatch");
    }
    const std::vector<int64_t> live_survivors =
        NonZero(mask).ToVector<int64_t>();
    if (live_survivors.empty()) return EmptyIndexTopK(node, input, ctx);
    const std::vector<int64_t> physical_survivors =
        table.MapLiveToPhysical(live_survivors);
    std::vector<uint8_t> selection(
        static_cast<size_t>(table.num_physical_rows()), 0);
    for (int64_t p : physical_survivors) {
      selection[static_cast<size_t>(p)] = 1;
    }
    TDP_ASSIGN_OR_RETURN(
        std::vector<int64_t> physical,
        entry->index->ProbeCandidates(query.scalar.tensor_value(), probes,
                                      /*min_candidates=*/node.k,
                                      &selection));
    candidates = table.MapPhysicalToLive(physical);
  } else {
    // Post-filter: probe first, apply the predicate to the candidates,
    // and widen the budget while fewer than k rows survive — doubling
    // up to `max_widening_rounds` times, then jumping straight to a full
    // probe. The last round always probes every cell, so the result can
    // never hold fewer than min(k, true survivors) rows no matter how
    // adversarially the survivors cluster — the widening pace bounds
    // wasted re-probing, not the row-count guarantee.
    int64_t rounds = 0;
    for (int64_t budget = probes;;) {
      TDP_ASSIGN_OR_RETURN(
          std::vector<int64_t> physical,
          entry->index->ProbeCandidates(query.scalar.tensor_value(), budget,
                                        /*min_candidates=*/node.k));
      const std::vector<int64_t> live = table.MapPhysicalToLive(physical);
      std::vector<int64_t> survivors;
      if (!live.empty()) {
        const bool probe_all_rows =
            static_cast<int64_t>(live.size()) == input.num_rows();
        const Tensor live_ids = Tensor::FromVector(live, {}, ctx.device);
        const Chunk probe_rows =
            probe_all_rows ? input : input.Select(live_ids);
        TDP_ASSIGN_OR_RETURN(
            Tensor mask,
            EvaluatePredicate(*node.predicate, probe_rows, EvalOpts(ctx)));
        if (mask.numel() != probe_rows.num_rows()) {
          return Status::ExecutionError("predicate mask length mismatch");
        }
        for (int64_t i : NonZero(mask).ToVector<int64_t>()) {
          survivors.push_back(live[static_cast<size_t>(i)]);
        }
      }
      if (static_cast<int64_t>(survivors.size()) >= node.k ||
          budget >= num_lists) {
        candidates = std::move(survivors);
        break;
      }
      ++rounds;
      budget = rounds > ctx.vector_search.max_widening_rounds
                   ? num_lists
                   : std::min(budget * 2, num_lists);
    }
    if (candidates.empty()) return EmptyIndexTopK(node, input, ctx);
  }

  // Candidates arrive in ascending row order; ranking them with the
  // plan's own sort keys (sim DESC, then tie-breaks) under TopKPerm's
  // `SortKeys` order reproduces the exact plan's ranking over the
  // candidate subset — with full probes the subset IS the (surviving)
  // relation, making the result bit-identical to the exact plan,
  // tie-breaks included. In the all-rows case the gather is skipped
  // (candidate ids are exactly [0, n) ascending, so `input` IS the
  // candidate chunk): the default probe budget must not pay a full-table
  // copy the brute plan never pays. Key expressions are row-local, so
  // skipping the identity gather cannot change a byte.
  const bool all_rows =
      static_cast<int64_t>(candidates.size()) == input.num_rows();
  const Tensor cand_ids = Tensor::FromVector(candidates, {}, ctx.device);
  const Chunk cand_rows = all_rows ? input : input.Select(cand_ids);
  TDP_ASSIGN_OR_RETURN(
      Tensor perm,
      TopKPerm(node, cand_rows.num_rows(), ctx.device,
               [&](int64_t ordinal) -> StatusOr<Column> {
                 return EvaluateExprToColumn(
                     *node.exprs[static_cast<size_t>(ordinal)], cand_rows,
                     EvalOpts(ctx));
               }));
  const Tensor row_ids = IndexSelect(cand_ids, 0, perm);
  return ProjectIndexTopK(node, input.Select(row_ids), ctx);
}

// ---- DDL / DML kernels ------------------------------------------------------

namespace {

Chunk RowsAffectedChunk(int64_t n) {
  Chunk out;
  out.names.push_back("rows_affected");
  out.columns.push_back(
      Column::Plain(Tensor::FromVector(std::vector<int64_t>{n}, {})));
  return out;
}

Status RequireWriter(const ExecContext& ctx, const char* what) {
  if (ctx.writer == nullptr) {
    return Status::InvalidArgument(
        std::string(what) +
        " needs a writable session; this execution context is read-only");
  }
  return Status::OK();
}

// Builds the append/assign batch for one target column from evaluated
// VALUES scalars, matching `tmpl` (the table's tail column — the
// encoding/dtype/row-shape contract WithAppended enforces).
StatusOr<Column> ColumnFromScalars(const Column& tmpl,
                                   const std::string& col_name,
                                   const std::vector<ScalarValue>& values) {
  const int64_t n = static_cast<int64_t>(values.size());
  for (const ScalarValue& v : values) {
    if (v.is_null()) {
      return Status::InvalidArgument("column " + col_name +
                                     ": NULL values are not supported");
    }
  }
  switch (tmpl.encoding()) {
    case Encoding::kDictionary: {
      std::vector<std::string> strs;
      strs.reserve(values.size());
      for (const ScalarValue& v : values) {
        if (!v.is_string()) {
          return Status::TypeError("column " + col_name +
                                   " takes string values");
        }
        strs.push_back(v.string_value());
      }
      return Column::FromStrings(strs, tmpl.data().device());
    }
    case Encoding::kProbability:
      return Status::InvalidArgument(
          "column " + col_name +
          ": INSERT into probability-encoded columns is not supported");
    case Encoding::kPlain:
      break;
  }
  const DType dtype = tmpl.data().dtype();
  const Device device = tmpl.data().device();
  if (tmpl.data().dim() >= 2) {
    // Tensor column: each value is a whole row tensor (bound through a
    // `?` parameter with ScalarValue::FromTensor).
    std::vector<int64_t> row_shape = tmpl.data().shape();
    row_shape[0] = 1;
    int64_t row_numel = 1;
    for (size_t d = 1; d < row_shape.size(); ++d) row_numel *= row_shape[d];
    std::vector<Tensor> rows;
    rows.reserve(values.size());
    for (const ScalarValue& v : values) {
      if (!v.is_tensor() || v.tensor_value().numel() != row_numel) {
        return Status::TypeError(
            "column " + col_name + " takes " + std::to_string(row_numel) +
            "-element tensor rows (bind with ScalarValue::FromTensor)");
      }
      rows.push_back(Reshape(
          v.tensor_value().Detach().To(dtype).To(device), row_shape));
    }
    return Column::Plain(Cat(rows, 0));
  }
  Tensor data;
  switch (dtype) {
    case DType::kInt64: {
      std::vector<int64_t> out;
      out.reserve(values.size());
      for (const ScalarValue& v : values) {
        if (!v.is_int()) {
          return Status::TypeError("column " + col_name +
                                   " takes integer values");
        }
        out.push_back(v.int_value());
      }
      data = Tensor::FromVector(out, {}, device);
      break;
    }
    case DType::kBool: {
      data = Tensor::Empty({n}, DType::kBool, device);
      bool* p = data.data<bool>();
      for (int64_t i = 0; i < n; ++i) {
        if (!values[static_cast<size_t>(i)].is_bool()) {
          return Status::TypeError("column " + col_name +
                                   " takes boolean values");
        }
        p[i] = values[static_cast<size_t>(i)].bool_value();
      }
      break;
    }
    case DType::kFloat32:
    case DType::kFloat64: {
      std::vector<double> out;
      out.reserve(values.size());
      for (const ScalarValue& v : values) {
        if (!v.is_numeric()) {
          return Status::TypeError("column " + col_name +
                                   " takes numeric values");
        }
        out.push_back(v.AsDouble());
      }
      data = Tensor::FromVector(out, {}, device).To(dtype);
      break;
    }
    default:
      return Status::TypeError("column " + col_name +
                               ": unsupported column dtype for INSERT");
  }
  return Column::Plain(std::move(data));
}

// Coerces an evaluated column (INSERT ... SELECT source / UPDATE
// assignment result) to `tmpl`'s encoding, dtype, and device. Numeric
// widening (int column into a float column) is the only conversion; a
// genuine encoding mismatch fails with the column named.
StatusOr<Column> CoerceToColumn(const Column& tmpl,
                                const std::string& col_name,
                                const Column& incoming) {
  if (incoming.encoding() != tmpl.encoding()) {
    return Status::TypeError(
        "column " + col_name + " is " +
        std::string(EncodingName(tmpl.encoding())) + "-encoded; got " +
        std::string(EncodingName(incoming.encoding())) + " values");
  }
  if (tmpl.encoding() != Encoding::kPlain) return incoming;
  const DType dtype = tmpl.data().dtype();
  const Device device = tmpl.data().device();
  if (incoming.data().dim() != tmpl.data().dim()) {
    return Status::TypeError("column " + col_name + " rank mismatch");
  }
  if (incoming.data().dtype() == dtype &&
      incoming.data().device() == device) {
    return incoming;
  }
  const bool numeric_ok =
      IsFloatingPoint(dtype) || incoming.data().dtype() == dtype;
  if (!numeric_ok) {
    return Status::TypeError("column " + col_name + " type mismatch");
  }
  return Column::Plain(incoming.data().Detach().To(dtype).To(device));
}

/// Re-tags `entry` onto `table` (sharing the index storage).
std::shared_ptr<const VectorIndexEntry> RetagIndexEntry(
    const VectorIndexEntry& entry, std::shared_ptr<const Table> table) {
  return std::shared_ptr<const VectorIndexEntry>(new VectorIndexEntry{
      entry.table_name, entry.column_name, entry.index, std::move(table)});
}

/// The matching live positions (and selected rows) of a DML WHERE clause
/// over the full-table scan `input`; null predicate selects every row.
struct DmlSelection {
  std::vector<int64_t> positions;
  Chunk rows;
};

StatusOr<DmlSelection> SelectDmlRows(const exec::BoundExpr* predicate,
                                     const Chunk& input,
                                     const ExecContext& ctx) {
  DmlSelection sel;
  if (predicate == nullptr) {
    sel.positions.resize(static_cast<size_t>(input.num_rows()));
    for (int64_t i = 0; i < input.num_rows(); ++i) {
      sel.positions[static_cast<size_t>(i)] = i;
    }
    sel.rows = input;
    return sel;
  }
  TDP_ASSIGN_OR_RETURN(
      Tensor mask, EvaluatePredicate(*predicate, input, EvalOpts(ctx)));
  if (mask.numel() != input.num_rows()) {
    return Status::ExecutionError("predicate mask length mismatch");
  }
  const Tensor selected = NonZero(mask);
  sel.positions = selected.ToVector<int64_t>();
  sel.rows = input.Select(selected);
  return sel;
}

}  // namespace

StatusOr<Chunk> ExecuteCreateTable(const plan::CreateTableNode& node,
                                   const ExecContext& ctx) {
  TDP_RETURN_NOT_OK(RequireWriter(ctx, "CREATE TABLE"));
  std::vector<std::string> names;
  std::vector<Column> columns;
  names.reserve(node.table_schema.size());
  columns.reserve(node.table_schema.size());
  for (size_t i = 0; i < node.table_schema.size(); ++i) {
    const plan::ColumnMeta& meta = node.table_schema[i];
    names.push_back(meta.name);
    const int64_t width = node.tensor_widths[i];
    if (width > 0) {
      columns.push_back(
          Column::Plain(Tensor::Empty({0, width}, DType::kFloat32)));
    } else if (meta.encoding == Encoding::kDictionary) {
      columns.push_back(Column::FromStrings({}));
    } else {
      columns.push_back(Column::Plain(Tensor::Empty({0}, meta.dtype)));
    }
  }
  TDP_ASSIGN_OR_RETURN(
      std::shared_ptr<Table> table,
      Table::Create(node.table_name, std::move(names), std::move(columns)));
  // replace=false: CREATE TABLE of an existing name is an error, atomically
  // decided under the catalog mutex (two racing CREATEs cannot both win).
  TDP_RETURN_NOT_OK(ctx.writer->RegisterTable(node.table_name,
                                              std::move(table),
                                              /*replace=*/false));
  return RowsAffectedChunk(0);
}

StatusOr<Chunk> ExecuteInsert(const plan::InsertNode& node,
                              const Chunk& source, const ExecContext& ctx) {
  TDP_RETURN_NOT_OK(RequireWriter(ctx, "INSERT"));
  TDP_ASSIGN_OR_RETURN(std::shared_ptr<Table> target,
                       ctx.catalog->GetTable(node.table_name));
  const size_t num_cols = static_cast<size_t>(target->num_columns());
  if (node.column_map.size() != num_cols) {
    return Status::ExecutionError(
        "table " + node.table_name +
        " changed shape since compilation; re-compile the statement");
  }

  // Build the append batch in TABLE column order (column_map[i] is the
  // target column of value position i; the binder guarantees the map is a
  // permutation).
  std::vector<Column> batch(num_cols);
  int64_t added = 0;
  if (node.children.empty()) {
    added = static_cast<int64_t>(node.rows.size());
    // VALUES rows: evaluate every expression to a constant (no input
    // relation exists), then build one column per value position.
    const Chunk no_input;
    std::vector<std::vector<ScalarValue>> by_position(num_cols);
    for (const auto& row : node.rows) {
      if (row.size() != num_cols) {
        return Status::Internal("INSERT row arity mismatch");
      }
      for (size_t i = 0; i < row.size(); ++i) {
        TDP_ASSIGN_OR_RETURN(
            EvalResult v,
            EvaluateExpr(*row[i], no_input, EvalOpts(ctx)));
        if (!v.is_scalar) {
          return Status::TypeError(
              "INSERT VALUES entries must be constant expressions");
        }
        by_position[i].push_back(std::move(v.scalar));
      }
    }
    for (size_t i = 0; i < num_cols; ++i) {
      const int64_t t = node.column_map[i];
      TDP_ASSIGN_OR_RETURN(
          batch[static_cast<size_t>(t)],
          ColumnFromScalars(target->TailColumn(t),
                            target->column_names()[static_cast<size_t>(t)],
                            by_position[i]));
    }
  } else {
    // INSERT ... SELECT: the evaluated child's columns are the value
    // positions.
    if (source.columns.size() != num_cols) {
      return Status::Internal("INSERT SELECT arity mismatch");
    }
    added = source.num_rows();
    if (added == 0) return RowsAffectedChunk(0);
    for (size_t i = 0; i < num_cols; ++i) {
      const int64_t t = node.column_map[i];
      TDP_ASSIGN_OR_RETURN(
          batch[static_cast<size_t>(t)],
          CoerceToColumn(target->TailColumn(t),
                         target->column_names()[static_cast<size_t>(t)],
                         source.columns[i]));
    }
  }

  TDP_ASSIGN_OR_RETURN(std::shared_ptr<Table> written,
                       target->WithAppended(batch));

  // Vector indexes extend incrementally: the new physical rows are
  // assigned to their nearest existing centroids — no rebuild, recall
  // degrades gracefully until the next explicit CREATE VECTOR INDEX. An
  // entry that cannot extend (unexpected shape/dtype) is dropped; the
  // exact fallback keeps queries correct.
  std::vector<std::shared_ptr<const VectorIndexEntry>> entries;
  for (const auto& entry :
       ctx.catalog->TableVectorIndexes(node.table_name)) {
    if (entry->index->num_rows() != target->num_physical_rows()) continue;
    const auto col = target->ColumnIndex(entry->column_name);
    if (!col.ok()) continue;
    auto extended = entry->index->WithAppended(
        batch[static_cast<size_t>(col.value())].data());
    if (!extended.ok()) continue;
    entries.push_back(std::shared_ptr<const VectorIndexEntry>(
        new VectorIndexEntry{entry->table_name, entry->column_name,
                             std::make_shared<const index::IvfIndex>(
                                 std::move(extended).value()),
                             written}));
  }

  TDP_RETURN_NOT_OK(ctx.writer->ApplyDmlWrite(
      node.table_name, target, std::move(written), std::move(entries)));
  return RowsAffectedChunk(added);
}

StatusOr<Chunk> ExecuteUpdate(const plan::UpdateNode& node,
                              const Chunk& input, const ExecContext& ctx) {
  TDP_RETURN_NOT_OK(RequireWriter(ctx, "UPDATE"));
  TDP_ASSIGN_OR_RETURN(std::shared_ptr<Table> target,
                       ctx.catalog->GetTable(node.table_name));
  if (input.num_rows() != target->num_rows()) {
    return Status::ExecutionError(
        "table " + node.table_name +
        " changed while the UPDATE was running; retry the statement");
  }
  TDP_ASSIGN_OR_RETURN(DmlSelection sel,
                       SelectDmlRows(node.predicate.get(), input, ctx));
  if (sel.positions.empty()) return RowsAffectedChunk(0);

  // Assignment expressions are evaluated over the OLD matching rows
  // (standard SQL: `SET a = b, b = a` swaps). Every expression here is
  // row-local, so evaluating over the selected subset equals evaluating
  // over the relation and gathering.
  std::vector<std::pair<int64_t, Column>> updates;
  updates.reserve(node.assignments.size());
  for (const auto& [col, expr] : node.assignments) {
    TDP_ASSIGN_OR_RETURN(
        Column values,
        EvaluateExprToColumn(*expr, sel.rows, EvalOpts(ctx)));
    TDP_ASSIGN_OR_RETURN(
        values,
        CoerceToColumn(target->TailColumn(col),
                       target->column_names()[static_cast<size_t>(col)],
                       values));
    updates.emplace_back(col, std::move(values));
  }
  TDP_ASSIGN_OR_RETURN(std::shared_ptr<Table> written,
                       target->WithUpdated(sel.positions, updates));

  // WithUpdated compacts to a single physical==live segment. An index
  // entry survives (re-tagged, storage shared) only when that compaction
  // provably preserved physical ids — no deletes in the base — and the
  // indexed column was not assigned; otherwise it is dropped and queries
  // take the exact fallback until the index is rebuilt.
  std::vector<std::shared_ptr<const VectorIndexEntry>> entries;
  if (!target->has_deletes()) {
    for (const auto& entry :
         ctx.catalog->TableVectorIndexes(node.table_name)) {
      if (entry->index->num_rows() != target->num_physical_rows()) continue;
      const auto col = target->ColumnIndex(entry->column_name);
      if (!col.ok()) continue;
      const bool assigned =
          std::any_of(node.assignments.begin(), node.assignments.end(),
                      [&col](const auto& a) {
                        return a.first == col.value();
                      });
      if (assigned) continue;
      entries.push_back(RetagIndexEntry(*entry, written));
    }
  }

  TDP_RETURN_NOT_OK(ctx.writer->ApplyDmlWrite(
      node.table_name, target, std::move(written), std::move(entries)));
  return RowsAffectedChunk(static_cast<int64_t>(sel.positions.size()));
}

StatusOr<Chunk> ExecuteDelete(const plan::DeleteNode& node,
                              const Chunk& input, const ExecContext& ctx) {
  TDP_RETURN_NOT_OK(RequireWriter(ctx, "DELETE"));
  TDP_ASSIGN_OR_RETURN(std::shared_ptr<Table> target,
                       ctx.catalog->GetTable(node.table_name));
  if (input.num_rows() != target->num_rows()) {
    return Status::ExecutionError(
        "table " + node.table_name +
        " changed while the DELETE was running; retry the statement");
  }
  TDP_ASSIGN_OR_RETURN(DmlSelection sel,
                       SelectDmlRows(node.predicate.get(), input, ctx));
  // A no-match DELETE is a pure no-op: skip the install entirely, so it
  // bumps neither the catalog version nor any reader's snapshot.
  if (sel.positions.empty()) return RowsAffectedChunk(0);

  TDP_ASSIGN_OR_RETURN(std::shared_ptr<Table> written,
                       target->WithDeleted(sel.positions));

  // DELETE never moves a physical row — every index entry survives with
  // its storage shared; probing filters the newly-deleted ids.
  std::vector<std::shared_ptr<const VectorIndexEntry>> entries;
  for (const auto& entry :
       ctx.catalog->TableVectorIndexes(node.table_name)) {
    if (entry->index->num_rows() != target->num_physical_rows()) continue;
    entries.push_back(RetagIndexEntry(*entry, written));
  }

  TDP_RETURN_NOT_OK(ctx.writer->ApplyDmlWrite(
      node.table_name, target, std::move(written), std::move(entries)));
  return RowsAffectedChunk(static_cast<int64_t>(sel.positions.size()));
}

int64_t DefaultMorselRows() {
  static const int64_t cached = [] {
    constexpr int64_t kDefault = 64 * 1024;
    const char* env = std::getenv("TDP_MORSEL_ROWS");
    if (env == nullptr || *env == '\0') return kDefault;
    char* end = nullptr;
    const long long v = std::strtoll(env, &end, 10);
    if (end == env || *end != '\0' || v < 1 || v > (int64_t{1} << 40)) {
      TDP_LOG(Warning) << "ignoring invalid TDP_MORSEL_ROWS='" << env << "'";
      return kDefault;
    }
    return static_cast<int64_t>(v);
  }();
  return cached;
}

}  // namespace exec
}  // namespace tdp

#ifndef TDP_EXEC_OPERATOR_KERNELS_H_
#define TDP_EXEC_OPERATOR_KERNELS_H_

#include <memory>
#include <vector>

#include "src/common/statusor.h"
#include "src/exec/bound_expr.h"
#include "src/exec/keys.h"
#include "src/exec/operators.h"
#include "src/plan/logical_plan.h"

namespace tdp {
namespace exec {

struct SpilledJoinBuild;  // spill_kernels.h

// Per-operator execution kernels of the streaming executor
// (`ExecutePlan`, streaming.h): the order-preserving kernels
// (scan/filter/project/join-probe/ModelEval) run on bounded row-range
// morsels, and the breaker kernels (aggregate finalize, sort, distinct,
// TVF) run on deterministically assembled streams. Every streaming kernel
// is row-local, so a run over N morsels is bit-identical to a run over
// one whole-relation morsel of the same query — at any thread count and
// morsel size. The streaming parity suite asserts this invariant.

/// Expression-evaluation options for one run: the device, the `?`
/// bindings, and the batchable-UDF dispatch seam (scheduler + token).
EvalOptions EvalOpts(const ExecContext& ctx);

// ---- Streaming operators (order-preserving, morsel-safe) -------------------

/// Resolves the scan's table from the run's catalog snapshot, validates the
/// bound schema, and returns the (zero-copy) column handles on the
/// execution device.
StatusOr<Chunk> ExecuteScan(const plan::ScanNode& node, const ExecContext& ctx);

/// Keeps the rows where the predicate holds. With `pick` (a column-pick
/// Project consuming this output, see `AsColumnPick`) only the picked
/// columns are gathered, under the Project's names: the result equals
/// `ExecuteProject(*pick, ExecuteFilter(node, input, ctx), ctx)`.
StatusOr<Chunk> ExecuteFilter(const plan::FilterNode& node, const Chunk& input,
                              const ExecContext& ctx,
                              const plan::ProjectNode* pick = nullptr);

/// `node` as a Project when each of its expressions is a plain column
/// reference (it only picks, reorders and renames columns), else null.
const plan::ProjectNode* AsColumnPick(const plan::LogicalNode& node);

StatusOr<Chunk> ExecuteProject(const plan::ProjectNode& node,
                               const Chunk& input, const ExecContext& ctx);

/// Micro-batch model evaluation (the streaming form of a batchable
/// Filter/Project/TVF): slices `morsel` into `batch_rows`-row batches
/// (ctx.model_batch_rows overrides the node's compiled size when set),
/// runs the wrapped operator's kernel per batch, and concatenates outputs
/// in slice order. Because batchable bodies are row-local, the reassembled
/// result is bit-identical to evaluating the whole morsel at once. Zero-
/// and single-batch inputs take a direct single call (preserving the
/// wrapped kernel's empty-input semantics exactly) — soft-mode runs always
/// do. Polls `ctx.cancel` between batches.
StatusOr<Chunk> ExecuteModelEval(const plan::ModelEvalNode& node,
                                 const Chunk& morsel, const ExecContext& ctx);

// ---- Hash join: build consumer + streaming probe ---------------------------

/// The build side of a hash join, materialized by the build pipeline.
/// Probe emission order is deterministic by construction: matches for a
/// probe row are emitted in ascending build-row order (each key's rows
/// are stored ascending, see `KeyRows`).
struct JoinHashTable {
  /// The join's materialized build side: the right child by default, the
  /// left when the optimizer flipped `JoinNode::build_left` (smaller
  /// estimated input).
  Chunk build;
  /// Build key tuples (`MakeJoinKeys` codes) -> build rows, ascending.
  KeyRows rows{0};
  /// Set instead of `build`/`rows` when the build went grace (the build
  /// footprint exceeded the run's `MemoryBudget`): the payload lives in
  /// per-partition spill files and `ProbeJoin` dispatches to
  /// `ProbeSpilledJoin`. Shared so morsel probes can run concurrently.
  std::shared_ptr<const SpilledJoinBuild> spilled;
};

/// Builds the hash table over the join's build child output (see
/// `JoinNode::build_left`). Pure-residual joins (no equi keys) leave
/// `rows` empty and probe as a per-morsel cartesian product.
StatusOr<JoinHashTable> BuildJoinHashTable(const plan::JoinNode& node,
                                           Chunk build_input,
                                           const ExecContext& ctx);

/// Probes `probe` (a morsel of the join's probe-child stream) against the
/// build table: emits matches in probe-row-major order, applies the
/// residual predicate, and assembles the joined chunk in schema order
/// (left child's columns first, whichever side was the build) — the same
/// row order whether `probe` is one morsel or the whole relation.
StatusOr<Chunk> ProbeJoin(const plan::JoinNode& node, const JoinHashTable& ht,
                          const Chunk& probe, const ExecContext& ctx);

/// The joined chunk from the matched build and probe rows, both already
/// gathered in emission order: columns in schema order (the left child's
/// first, whichever side was the build), residual predicate applied.
/// Shared by `ProbeJoin` and `ProbeSpilledJoin` (spill_kernels.h).
StatusOr<Chunk> AssembleJoin(const plan::JoinNode& node,
                             const Chunk& build_rows, const Chunk& probe_rows,
                             const ExecContext& ctx);

// ---- Aggregate: per-morsel input evaluation + deterministic finalize -------

/// Per-morsel partial state of the aggregate consumer: the evaluated group
/// key columns and aggregate argument columns. Evaluation (the tensor-
/// program part) runs morsel-parallel; the merge concatenates parts in
/// morsel order, so the reduction tree seen by `FinalizeAggregate` depends
/// only on the total row sequence — never on morsel size or thread count.
struct AggInputs {
  int64_t rows = 0;
  std::vector<Column> key_columns;  // one per group expr
  std::vector<Column> arg_columns;  // one per aggregate; undefined if no arg
};

StatusOr<AggInputs> EvaluateAggInputs(const plan::AggregateNode& node,
                                      const Chunk& input,
                                      const ExecContext& ctx);

/// Concatenates per-morsel parts in morsel order (the deterministic merge
/// at the breaker).
AggInputs MergeAggInputs(const std::vector<const AggInputs*>& parts);

/// Groups, accumulates (fixed 4096-row pages, page-order combine) and
/// materializes the aggregate output columns. Over the run's memory
/// budget the pages stream through a spill file, bit-identically. In soft
/// mode, when every evaluated group key is PE-encoded, it runs the
/// differentiable `SoftGroupByCount` instead (COUNT(*) only).
StatusOr<Chunk> FinalizeAggregate(const plan::AggregateNode& node,
                                  const AggInputs& inputs,
                                  const ExecContext& ctx);

// ---- Breakers (whole-relation kernels) -------------------------------------

StatusOr<Chunk> ExecuteTvfScan(const plan::TvfScanNode& node, Chunk input,
                               const ExecContext& ctx);
/// The node's ORDER BY keys over the whole `input` (key expressions need
/// not be row-local): the one order the in-memory and external sorts use.
StatusOr<SortKeys> EvaluateSortKeys(const plan::SortNode& node,
                                    const Chunk& input,
                                    const ExecContext& ctx);
/// ORDER BY; a fused LIMIT k takes the parallel top-k (`SortKeys::Sorted`).
StatusOr<Chunk> ExecuteSort(const plan::SortNode& node, const Chunk& input,
                            const ExecContext& ctx);
StatusOr<Chunk> ExecuteLimit(const plan::LimitNode& node, const Chunk& input);
StatusOr<Chunk> ExecuteDistinct(const Chunk& input);

/// Index-accelerated top-k similarity (see `plan::IndexTopKNode`): probes
/// the run snapshot's vector index for candidate rows
/// (`ExecContext::index_probes` cells; 0 = all), re-ranks them exactly
/// with the plan's own similarity expression (the `SortKeys` order, so
/// full-probe results are bit-identical to the Sort+Limit plan the node
/// replaced), and projects the winners. Falls back to that exact
/// computation when the snapshot no longer holds a valid index.
StatusOr<Chunk> ExecuteIndexTopK(const plan::IndexTopKNode& node,
                                 const Chunk& input, const ExecContext& ctx);

// ---- DDL / DML kernels (root breakers) -------------------------------------
//
// Each computes its write delta against the run's immutable snapshot
// (`ctx.catalog`), installs it through `ctx.writer->ApplyDmlWrite` (or
// RegisterTable for CREATE TABLE), and returns the single-row
// `rows_affected` chunk the plan's schema declares. A lost write-write
// race surfaces as a retryable ExecutionError; a null `ctx.writer` as a
// clean "read-only execution context" error. Index entries over the
// written table travel with the swap: INSERT extends them incrementally
// (IvfIndex::WithAppended), DELETE re-tags them (shared index storage, the
// deleted-row bitmap filters probes), UPDATE re-tags only when the write
// provably preserved physical row identity of the indexed column.

StatusOr<Chunk> ExecuteCreateTable(const plan::CreateTableNode& node,
                                   const ExecContext& ctx);
/// `source` is the evaluated SELECT child for INSERT ... SELECT; pass an
/// empty chunk for the VALUES form (rows evaluated from `node.rows`).
StatusOr<Chunk> ExecuteInsert(const plan::InsertNode& node,
                              const Chunk& source, const ExecContext& ctx);
/// `input` is the full-table scan of children[0] (old rows).
StatusOr<Chunk> ExecuteUpdate(const plan::UpdateNode& node,
                              const Chunk& input, const ExecContext& ctx);
StatusOr<Chunk> ExecuteDelete(const plan::DeleteNode& node,
                              const Chunk& input, const ExecContext& ctx);

}  // namespace exec
}  // namespace tdp

#endif  // TDP_EXEC_OPERATOR_KERNELS_H_

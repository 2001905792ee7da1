#ifndef TDP_EXEC_SPILL_KERNELS_H_
#define TDP_EXEC_SPILL_KERNELS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/statusor.h"
#include "src/exec/keys.h"
#include "src/exec/operator_kernels.h"
#include "src/exec/operators.h"
#include "src/plan/logical_plan.h"

namespace tdp {
namespace exec {

// Spill-to-disk (out-of-budget) variants of the sort and join breakers.
// Each produces BIT-IDENTICAL results to its in-memory sibling — the spill
// paths use the exact same row permutations and emission orders;
// only where the scratch lives changes. `ExecuteSort` /
// `BuildJoinHashTable` dispatch here when `ExecContext::memory` reports
// the in-memory footprint over budget. (Aggregation pages its inputs
// itself: `FinalizeAggregate` streams the same pages through a spill
// file when over budget.)

// ---- External sort ----------------------------------------------------------

/// Out-of-budget ORDER BY: orders the rows with the in-memory sort's own
/// `SortKeys` (so the permutation is the same by construction, fused
/// LIMIT top-k included), spills the output rows page by page in output
/// order, then assembles the output one column at a time from the pages.
/// Peak scratch is the key codes + permutation, one output column and one
/// page, instead of the whole permuted copy of the relation; a fused LIMIT
/// k spills only the k rows that reach the output.
StatusOr<Chunk> ExternalSortChunk(const plan::SortNode& node,
                                  const Chunk& input, const ExecContext& ctx);

// ---- Grace hash join (spilled build payload) --------------------------------

/// Out-of-budget join build: the build payload is hash-partitioned by key
/// into per-partition spill files; the key -> local-row map of each
/// partition stays resident (keys and indices are the cheap part — the
/// wide payload columns are what spills). A key lands in exactly one
/// partition and partitions preserve build-row order, so probe emission
/// (probe-row-major, ascending build row per probe row) is reproduced
/// exactly by per-partition gathers.
struct SpilledJoinBuild {
  int64_t num_partitions = 0;
  /// 0-row zero-copy view of the build input: schema, encodings, and
  /// shared dictionary/domain metadata for assembling probe outputs.
  Chunk prototype;
  std::vector<std::string> files;      // one payload file per partition
  std::vector<int64_t> partition_rows;
  /// Per partition: build key tuples (`MakeJoinKeys` codes) ->
  /// partition-local build rows, ascending (local order == global
  /// build-row order by construction).
  std::vector<KeyRows> rows;
};

StatusOr<std::shared_ptr<SpilledJoinBuild>> BuildSpilledJoin(
    const plan::JoinNode& node, const Chunk& build_input,
    const ExecContext& ctx);

/// Probe one morsel against a spilled build: partitions are loaded one at
/// a time and their matched rows scattered into the emission-order output.
StatusOr<Chunk> ProbeSpilledJoin(const plan::JoinNode& node,
                                 const SpilledJoinBuild& build,
                                 const Chunk& probe, const ExecContext& ctx);

}  // namespace exec
}  // namespace tdp

#endif  // TDP_EXEC_SPILL_KERNELS_H_

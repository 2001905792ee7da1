#ifndef TDP_EXEC_STREAMING_H_
#define TDP_EXEC_STREAMING_H_

#include <functional>

#include "src/common/status.h"
#include "src/common/statusor.h"
#include "src/exec/operators.h"

namespace tdp {
namespace plan {
struct PipelinePlan;
}  // namespace plan

namespace exec {

/// Consumer of the result pipeline's chunks, invoked in morsel order.
/// Returning a non-OK status aborts execution with that status — the
/// bounded cursor queue uses this to stop production the moment the
/// cursor is closed or its run is cancelled.
using ChunkSink = std::function<Status(Chunk)>;

/// Executes a full optimized plan through its morsel-driven streaming
/// pipelines (`plan::BuildPipelines`) and materializes the result chunk.
/// Each operator lowers to a tensor program on `ctx.device` (TQP-style
/// compiled operators): filters become boolean-mask kernels, aggregates
/// become grouped reductions, joins hash tensor-encoded keys, and so on.
///
/// Results are deterministic for every thread count (`TDP_NUM_THREADS`)
/// and morsel size: morsel outputs are assembled in morsel order, and
/// floating-point aggregate accumulation folds fixed-size row blocks whose
/// boundaries depend only on the row count. Soft-mode (trainable) runs use
/// the same pipelines with one whole-relation morsel each.
///
/// Errors (missing tables, schema drift since compilation, type
/// mismatches) surface as failed Status, never as crashes.
StatusOr<Chunk> ExecutePlan(const plan::PipelinePlan& pplan,
                            const ExecContext& ctx);

/// Runs the same executor push-style: every breaker (upstream) pipeline
/// materializes exactly as under `ExecutePlan`, then the final (result)
/// pipeline's chunks are handed to `sink` incrementally in morsel order
/// instead of being concatenated. The concatenation of the sunk chunks is
/// bit-identical to `ExecutePlan`'s result; at least one chunk (possibly
/// zero-row) is always sunk on success. Workers poll `ctx.cancel` at
/// morsel boundaries.
Status ExecuteStreamingToSink(const plan::PipelinePlan& pplan,
                              const ExecContext& ctx, const ChunkSink& sink);

}  // namespace exec
}  // namespace tdp

#endif  // TDP_EXEC_STREAMING_H_

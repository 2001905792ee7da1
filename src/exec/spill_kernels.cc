#include "src/exec/spill_kernels.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/common/logging.h"
#include "src/exec/bound_expr.h"
#include "src/exec/memory_budget.h"
#include "src/exec/spill.h"
#include "src/tensor/dtype.h"
#include "src/tensor/ops.h"

namespace tdp {
namespace exec {
namespace {

using plan::JoinNode;
using plan::SortNode;

// The grace partition of row `r`'s key: the key table's tuple hash, high
// bits (each partition's own table probes with the low bits).
size_t GracePartition(const JoinKeys& keys, int64_t r, int64_t parts) {
  return static_cast<size_t>(KeyTable::Hash(keys.row(r), keys.width) >> 32) %
         static_cast<size_t>(parts);
}

// Rows-per-page / partition-count sizing against the budget. The spill
// paths must work at ANY positive budget (the differential suite runs
// pathological 1-byte budgets), so sizes are floored rather than failed.
int64_t ClampRows(int64_t v, int64_t lo, int64_t hi) {
  return std::max(lo, std::min(v, hi));
}

// Copies the rows of contiguous `src` into `dst` from row `at` on. Exact
// byte copies — no value re-encoding.
void CopyRowsAt(Tensor& dst, const Tensor& src, int64_t at) {
  const int64_t src_rows = src.size(0);
  if (src_rows == 0) return;
  const int64_t row_bytes = src.numel() / src_rows * DTypeSize(src.dtype());
  std::memcpy(TensorRawBytesMutable(dst) + at * row_bytes, TensorRawBytes(src),
              static_cast<size_t>(src_rows * row_bytes));
}

// Allocates the assembly target for `prototype`'s payload with `rows`
// rows (same dtype, same per-row shape, same device).
Tensor AllocLike(const Tensor& prototype, int64_t rows) {
  std::vector<int64_t> shape = prototype.shape();
  TDP_CHECK(!shape.empty());
  shape[0] = rows;
  return Tensor::Empty(shape, prototype.dtype(), prototype.device());
}

// Wraps an assembled payload tensor in `prototype`'s encoding (dictionary
// strings / PE domain copied from the prototype — same contents, so codes
// stay meaningful and decoded values are bit-identical).
Column WrapLike(const Column& prototype, Tensor payload) {
  switch (prototype.encoding()) {
    case Encoding::kPlain:
      return Column::Plain(std::move(payload));
    case Encoding::kDictionary:
      return Column::Dictionary(std::move(payload), prototype.dictionary());
    case Encoding::kProbability:
      return Column::Probability(std::move(payload), prototype.domain());
  }
  return Column::Plain(std::move(payload));
}

}  // namespace

// ---- External sort ----------------------------------------------------------

StatusOr<Chunk> ExternalSortChunk(const SortNode& node, const Chunk& input,
                                  const ExecContext& ctx) {
  QueryMemory* mem = ctx.memory;
  TDP_CHECK(mem != nullptr);
  const int64_t rows = input.num_rows();
  const size_t num_keys = node.items.size();
  TDP_CHECK(rows > 0 && num_keys > 0);

  // The order comes from the in-memory sort's own `SortKeys` (keys
  // evaluated over the whole relation, top-k under a fused limit). The
  // codes and the permutation are this path's resident working set — 8
  // bytes/row/key plus 8 per output row, vs the payload copy the
  // in-memory sort holds.
  TDP_ASSIGN_OR_RETURN(const SortKeys keys, EvaluateSortKeys(node, input, ctx));
  const std::vector<int64_t> order = keys.Sorted(node.fused_limit);
  const int64_t out_rows = static_cast<int64_t>(order.size());
  const ScopedReservation code_reservation(
      mem, static_cast<int64_t>(num_keys) * rows * 8 + out_rows * 8);

  const int64_t row_bytes =
      ChunkFootprintBytes(input) / std::max<int64_t>(rows, 1) +
      static_cast<int64_t>(num_keys) * 8 + 16;
  const int64_t page_rows = ClampRows(
      mem->budget_bytes() / 3 / std::max<int64_t>(row_bytes, 1), 1024, 4096);
  const int64_t pages = (out_rows + page_rows - 1) / page_rows;

  // Phase 1: gather the output rows page by page, in output order, and
  // spill each page. Only rows that reach the output are written: under a
  // fused LIMIT k, k rows. Page layout: [num_cols][column][column]...
  TDP_ASSIGN_OR_RETURN(const std::string path, mem->NewSpillFile("sort"));
  SpillWriter w(path);
  for (int64_t p = 0; p < pages; ++p) {
    TDP_RETURN_NOT_OK(CheckCancel(ctx));
    const int64_t lo = p * page_rows;
    const int64_t n = std::min(page_rows, out_rows - lo);
    const std::vector<int64_t> ids(order.begin() + lo, order.begin() + lo + n);
    const Chunk page = input.Select(Tensor::FromVector(ids, {}, ctx.device));
    const ScopedReservation page_reservation(mem, ChunkFootprintBytes(page));
    TDP_RETURN_NOT_OK(w.WriteInt64(static_cast<int64_t>(page.columns.size())));
    for (const Column& c : page.columns) TDP_RETURN_NOT_OK(w.WriteColumn(c));
  }
  TDP_RETURN_NOT_OK(w.Close());
  mem->AddSpilledBytes(w.bytes_written());

  // Phase 2: per-column assembly — one pass over the pages per column,
  // appending each page's rows. Peak scratch: one output column + one
  // page.
  Chunk out;
  out.names = input.names;
  for (size_t j = 0; j < input.columns.size(); ++j) {
    TDP_RETURN_NOT_OK(CheckCancel(ctx));
    const Column& prototype = input.columns[j];
    Tensor payload = AllocLike(prototype.data(), out_rows);
    SpillReader reader(path);
    for (int64_t p = 0; p < pages; ++p) {
      TDP_ASSIGN_OR_RETURN(int64_t cols, reader.ReadInt64());
      TDP_CHECK(static_cast<int64_t>(j) < cols);
      for (size_t c = 0; c < j; ++c) TDP_RETURN_NOT_OK(reader.SkipColumn());
      TDP_ASSIGN_OR_RETURN(Column page_col, reader.ReadColumn());
      for (int64_t c = static_cast<int64_t>(j) + 1; c < cols; ++c) {
        TDP_RETURN_NOT_OK(reader.SkipColumn());
      }
      CopyRowsAt(payload, page_col.data().Contiguous(), p * page_rows);
    }
    out.columns.push_back(WrapLike(prototype, std::move(payload)));
  }
  return out;
}

// ---- Grace hash join --------------------------------------------------------

StatusOr<std::shared_ptr<SpilledJoinBuild>> BuildSpilledJoin(
    const JoinNode& node, const Chunk& build_input, const ExecContext& ctx) {
  QueryMemory* mem = ctx.memory;
  TDP_CHECK(mem != nullptr);
  const auto& build_key_cols =
      node.build_left ? node.left_keys : node.right_keys;
  TDP_CHECK(!build_key_cols.empty());
  const int64_t rows = build_input.num_rows();

  TDP_ASSIGN_OR_RETURN(
      const JoinKeys keys,
      MakeJoinKeys(build_input, build_key_cols, build_input, build_key_cols));

  const int64_t footprint = ChunkFootprintBytes(build_input) + rows * 48;
  const int64_t part_budget = std::max<int64_t>(mem->budget_bytes() / 4, 1);
  const int64_t parts = ClampRows(
      (footprint + part_budget - 1) / part_budget, 2, 64);

  auto build = std::make_shared<SpilledJoinBuild>();
  build->num_partitions = parts;
  build->prototype = build_input.SliceRows(0, 0);
  build->files.resize(static_cast<size_t>(parts));
  build->partition_rows.assign(static_cast<size_t>(parts), 0);
  build->rows.reserve(static_cast<size_t>(parts));
  for (int64_t p = 0; p < parts; ++p) build->rows.emplace_back(keys.width);

  // Assign rows to partitions in build-row order: partition-local index
  // order == global build-row order, the property probe emission relies
  // on. A key hashes to exactly one partition; a row whose key matches
  // nothing (NaN) goes to none.
  std::vector<std::vector<int64_t>> partition_sel(
      static_cast<size_t>(parts));
  for (int64_t r = 0; r < rows; ++r) {
    if (!keys.live[static_cast<size_t>(r)]) continue;
    const size_t p = GracePartition(keys, r, parts);
    build->rows[p].Add(keys.row(r), build->partition_rows[p]++);
    partition_sel[p].push_back(r);
  }
  for (KeyRows& part_rows : build->rows) part_rows.Finish();

  // Spill each partition's payload. Partition file layout:
  //   [rows][num_pages] then per page: [page_rows][num_cols][column]...
  constexpr int64_t kJoinPageRows = 4096;
  for (int64_t p = 0; p < parts; ++p) {
    TDP_RETURN_NOT_OK(CheckCancel(ctx));
    const std::vector<int64_t>& sel = partition_sel[static_cast<size_t>(p)];
    const int64_t n = static_cast<int64_t>(sel.size());
    Tensor sel_t = Tensor::FromVector(sel, {}, ctx.device);
    const Chunk part = build_input.Select(sel_t);
    const ScopedReservation part_reservation(mem, ChunkFootprintBytes(part));
    TDP_ASSIGN_OR_RETURN(std::string path, mem->NewSpillFile("joinpart"));
    build->files[static_cast<size_t>(p)] = path;
    SpillWriter w(path);
    const int64_t pages = n == 0 ? 0 : (n + kJoinPageRows - 1) / kJoinPageRows;
    TDP_RETURN_NOT_OK(w.WriteInt64(n));
    TDP_RETURN_NOT_OK(w.WriteInt64(pages));
    for (int64_t pg = 0; pg < pages; ++pg) {
      const int64_t plo = pg * kJoinPageRows;
      const int64_t pn = std::min(kJoinPageRows, n - plo);
      TDP_RETURN_NOT_OK(w.WriteInt64(pn));
      const Chunk page = part.SliceRows(plo, pn);
      TDP_RETURN_NOT_OK(
          w.WriteInt64(static_cast<int64_t>(page.columns.size())));
      for (const Column& c : page.columns) {
        TDP_RETURN_NOT_OK(w.WriteColumn(c));
      }
    }
    TDP_RETURN_NOT_OK(w.Close());
    mem->AddSpilledBytes(w.bytes_written());
  }
  return build;
}

StatusOr<Chunk> ProbeSpilledJoin(const JoinNode& node,
                                 const SpilledJoinBuild& build,
                                 const Chunk& probe, const ExecContext& ctx) {
  const auto& build_key_cols =
      node.build_left ? node.left_keys : node.right_keys;
  const auto& probe_key_cols =
      node.build_left ? node.right_keys : node.left_keys;
  TDP_ASSIGN_OR_RETURN(const JoinKeys keys,
                       MakeJoinKeys(build.prototype, build_key_cols, probe,
                                    probe_key_cols));

  // Emission order (identical to the in-memory probe): probe-row-major,
  // matches of one probe row in ascending build-row order — which is
  // ascending partition-local order, since every match of a key lives in
  // one partition and partitions preserve build-row order.
  std::vector<int64_t> probe_idx;
  std::vector<int32_t> match_part;
  std::vector<int64_t> match_local;
  for (int64_t r = 0; r < probe.num_rows(); ++r) {
    if (!keys.live[static_cast<size_t>(r)]) continue;
    const size_t p = GracePartition(keys, r, build.num_partitions);
    for (int64_t local : build.rows[p].Find(keys.row(r))) {
      probe_idx.push_back(r);
      match_part.push_back(static_cast<int32_t>(p));
      match_local.push_back(local);
    }
  }
  const int64_t total = static_cast<int64_t>(probe_idx.size());

  // Build-side columns: load matched partitions one at a time, gather
  // their matched rows, scatter into emission positions.
  std::vector<Tensor> build_payloads;
  build_payloads.reserve(build.prototype.columns.size());
  for (const Column& c : build.prototype.columns) {
    build_payloads.push_back(AllocLike(c.data(), total));
  }
  // Per-partition match entries (emission position, local row), in
  // ascending local order so one sequential pass over the pages suffices.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> entries(
      static_cast<size_t>(build.num_partitions));
  for (int64_t s = 0; s < total; ++s) {
    entries[static_cast<size_t>(match_part[static_cast<size_t>(s)])]
        .emplace_back(match_local[static_cast<size_t>(s)], s);
  }
  std::vector<int64_t> scatter_pos;
  for (int64_t p = 0; p < build.num_partitions; ++p) {
    auto& part_entries = entries[static_cast<size_t>(p)];
    if (part_entries.empty()) continue;
    TDP_RETURN_NOT_OK(CheckCancel(ctx));
    std::sort(part_entries.begin(), part_entries.end());
    SpillReader reader(build.files[static_cast<size_t>(p)]);
    TDP_ASSIGN_OR_RETURN(int64_t part_rows, reader.ReadInt64());
    TDP_ASSIGN_OR_RETURN(int64_t pages, reader.ReadInt64());
    (void)part_rows;
    size_t cursor = 0;  // next unconsumed entry
    int64_t page_lo = 0;
    for (int64_t pg = 0; pg < pages && cursor < part_entries.size(); ++pg) {
      TDP_ASSIGN_OR_RETURN(int64_t pn, reader.ReadInt64());
      TDP_ASSIGN_OR_RETURN(int64_t cols, reader.ReadInt64());
      TDP_CHECK(cols == static_cast<int64_t>(build_payloads.size()));
      // A build row may match many probe rows: every entry of this page
      // scatters one copy. The per-column inner loop re-reads nothing —
      // columns arrive in file order.
      const size_t page_begin = cursor;
      size_t page_end = cursor;
      while (page_end < part_entries.size() &&
             part_entries[page_end].first < page_lo + pn) {
        ++page_end;
      }
      for (int64_t c = 0; c < cols; ++c) {
        TDP_ASSIGN_OR_RETURN(Column page_col, reader.ReadColumn());
        const Tensor src = page_col.data().Contiguous();
        const int64_t row_elems = pn == 0 ? 0 : src.numel() / pn;
        const int64_t row_bytes = row_elems * DTypeSize(src.dtype());
        const uint8_t* sp = TensorRawBytes(src);
        uint8_t* dp =
            TensorRawBytesMutable(build_payloads[static_cast<size_t>(c)]);
        for (size_t e = page_begin; e < page_end; ++e) {
          const int64_t local = part_entries[e].first - page_lo;
          const int64_t out_s = part_entries[e].second;
          std::memcpy(dp + out_s * row_bytes, sp + local * row_bytes,
                      static_cast<size_t>(row_bytes));
        }
      }
      cursor = page_end;
      page_lo += pn;
    }
  }

  Chunk build_rows;
  for (size_t i = 0; i < build.prototype.columns.size(); ++i) {
    build_rows.columns.push_back(
        WrapLike(build.prototype.columns[i], std::move(build_payloads[i])));
  }
  return AssembleJoin(
      node, build_rows,
      probe.Select(Tensor::FromVector(probe_idx, {}, ctx.device)), ctx);
}

}  // namespace exec
}  // namespace tdp

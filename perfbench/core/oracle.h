#ifndef PERFBENCH_CORE_ORACLE_H_
#define PERFBENCH_CORE_ORACLE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/gen.h"

namespace tdp {
class Table;
}

namespace perfbench {

/// Result oracles that do not trust the engine: every expected value is
/// computed in plain C++ from the generated inputs.
///
/// A result row renders each cell exactly: integers in decimal, floats
/// with 17 significant digits (integral floats print like integers, so an
/// engine that returns SUM(int) as int64 or as float64 compares equal),
/// strings as-is.
using Row = std::vector<std::string>;
using Rows = std::vector<Row>;

std::string Cell(int64_t v);
std::string Cell(double v);

/// Decodes every column of an engine result.
Rows TableRows(const tdp::Table& table);

/// Sorted copy, for results whose row order the query leaves open.
Rows SortedRows(Rows rows);

/// FNV-1a over the raw bytes of every result column (and the dictionary of
/// dictionary columns): cheap enough to check every run of a query whose
/// result is large against its first, oracle-checked run.
uint64_t ResultChecksum(const tdp::Table& table);

/// Empty when equal, else a one-line description of the first difference.
std::string CompareRows(const Rows& expected, const Rows& got);

// ---- analytics ----------------------------------------------------------------

/// Expected rows of statement `statement` of class `c` over `s` (sorted
/// unless the statement has an ORDER BY).
Rows AnalyticsExpected(const StarSchema& s, AnalyticsClass c,
                       size_t statement);

/// True when the statement's result order is part of its contract.
bool AnalyticsOrdered(AnalyticsClass c);

// ---- multimodal ---------------------------------------------------------------

/// Exact top-k row ids by inner product with `query` over rows whose group
/// differs from `excluded_grp`; ties break toward the lower row id.
std::vector<int64_t> ExactTopK(const Embeddings& e, int64_t dim,
                               const std::vector<float>& query,
                               int64_t excluded_grp, int64_t k);

/// |got ∩ exact| / |exact| (1 when `exact` is empty).
double RecallAt(const std::vector<int64_t>& got,
                const std::vector<int64_t>& exact);

/// Bounds on COUNT(*) WHERE score > threshold when the engine's scores may
/// differ from `scores` by up to `tolerance`: rows within the tolerance of
/// the threshold may fall either way.
std::pair<int64_t, int64_t> CountBounds(const std::vector<float>& scores,
                                        double threshold, double tolerance);

// ---- training probe ------------------------------------------------------------

/// Mean squared error of `predicted` against `target` (equal length).
double Mse(const std::vector<double>& predicted,
           const std::vector<double>& target);

}  // namespace perfbench

#endif  // PERFBENCH_CORE_ORACLE_H_

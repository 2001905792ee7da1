#ifndef TDP_BASELINE_BASELINE_DB_H_
#define TDP_BASELINE_BASELINE_DB_H_

#include <compare>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "src/common/statusor.h"
#include "src/sql/ast.h"

namespace tdp {
namespace baseline {

/// A cell value in the baseline engine (no tensors — scalar relational
/// data only, like the extracted OCR tables it exists to serve).
using Value = std::variant<int64_t, double, std::string, bool>;

/// SQL comparison: int64 x int64 as int64, int64 x double exactly, NaN
/// unordered against everything, strings by value and unordered against
/// numbers.
std::partial_ordering ValueCompare(const Value& a, const Value& b);
bool ValueEquals(const Value& a, const Value& b);
bool ValueLess(const Value& a, const Value& b);
std::string ValueToString(const Value& v);

struct BaselineTable {
  std::vector<std::string> column_names;
  std::vector<std::vector<Value>> rows;  // row-major
};

/// BaselineDB: a deliberately conventional, interpreted, row-at-a-time
/// analytical SQL engine — the stand-in for DuckDB in Fig. 3 (left) and
/// the independent oracle for differential-testing TDP's tensor query
/// processor. It shares TDP's SQL parser but nothing below it: evaluation
/// walks the AST per row over std::variant values.
///
/// Supported: SELECT (exprs, aliases, *), FROM table / subquery / INNER
/// JOIN, WHERE, GROUP BY + COUNT/SUM/AVG/MIN/MAX (+ DISTINCT), HAVING,
/// ORDER BY, LIMIT/OFFSET, DISTINCT, CASE, BETWEEN, IN. No UDFs/TVFs —
/// by design, ML stays outside this engine (that is the paper's point).
class BaselineDb {
 public:
  Status RegisterTable(const std::string& name, BaselineTable table);

  StatusOr<BaselineTable> Sql(const std::string& query) const;

  StatusOr<const BaselineTable*> GetTable(const std::string& name) const;

 private:
  std::map<std::string, BaselineTable> tables_;  // lowercased keys
};

}  // namespace baseline
}  // namespace tdp

#endif  // TDP_BASELINE_BASELINE_DB_H_

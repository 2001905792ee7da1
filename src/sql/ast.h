#ifndef TDP_SQL_AST_H_
#define TDP_SQL_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace tdp {
namespace sql {

// Abstract syntax produced by the parser; consumed by the binder. Nodes use
// a Kind tag + static downcasts (the usual database-engine layout, cf.
// DuckDB) rather than visitors, keeping traversal code local and simple.

// ---- Expressions -----------------------------------------------------------

enum class ExprKind {
  kColumnRef,
  kLiteral,
  kBinary,
  kUnary,
  kFunctionCall,
  kStar,  // COUNT(*) argument / SELECT *
  kCase,
  kParameter,  // '?' prepared-statement placeholder
};

struct Expr {
  explicit Expr(ExprKind kind) : kind(kind) {}
  virtual ~Expr() = default;
  ExprKind kind;

  /// Round-trippable rendering for error messages and plan dumps.
  virtual std::string ToString() const = 0;
};

using ExprPtr = std::unique_ptr<Expr>;

struct ColumnRefExpr : Expr {
  ColumnRefExpr(std::string table, std::string column)
      : Expr(ExprKind::kColumnRef),
        table_name(std::move(table)),
        column_name(std::move(column)) {}
  std::string table_name;  // optional qualifier, may be empty
  std::string column_name;
  std::string ToString() const override {
    return table_name.empty() ? column_name : table_name + "." + column_name;
  }
};

enum class LiteralKind { kInteger, kFloat, kString, kBoolean, kNull };

struct LiteralExpr : Expr {
  LiteralExpr() : Expr(ExprKind::kLiteral) {}
  LiteralKind literal_kind = LiteralKind::kNull;
  double number_value = 0.0;
  int64_t int_value = 0;  // kInteger: the exact value
  std::string string_value;
  bool bool_value = false;
  std::string ToString() const override;
};

enum class BinaryOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
};

std::string_view BinaryOpName(BinaryOp op);

struct BinaryExpr : Expr {
  BinaryExpr(BinaryOp op, ExprPtr left, ExprPtr right)
      : Expr(ExprKind::kBinary),
        op(op),
        left(std::move(left)),
        right(std::move(right)) {}
  BinaryOp op;
  ExprPtr left;
  ExprPtr right;
  std::string ToString() const override;
};

enum class UnaryOp { kNeg, kNot };

struct UnaryExpr : Expr {
  UnaryExpr(UnaryOp op, ExprPtr operand)
      : Expr(ExprKind::kUnary), op(op), operand(std::move(operand)) {}
  UnaryOp op;
  ExprPtr operand;
  std::string ToString() const override;
};

/// Aggregates (COUNT/SUM/AVG/MIN/MAX) and scalar UDF calls share this node;
/// the binder tells them apart.
struct FunctionCallExpr : Expr {
  FunctionCallExpr() : Expr(ExprKind::kFunctionCall) {}
  std::string function_name;  // lowercased
  std::vector<ExprPtr> args;
  bool is_star_arg = false;  // COUNT(*)
  bool distinct = false;     // COUNT(DISTINCT x)
  std::string ToString() const override;
};

struct StarExpr : Expr {
  StarExpr() : Expr(ExprKind::kStar) {}
  std::string ToString() const override { return "*"; }
};

struct CaseExpr : Expr {
  CaseExpr() : Expr(ExprKind::kCase) {}
  // WHEN condition THEN result pairs; optional ELSE.
  std::vector<std::pair<ExprPtr, ExprPtr>> branches;
  ExprPtr else_expr;  // may be null -> NULL/0
  std::string ToString() const override;
};

/// A `?` placeholder. Ordinals are assigned left-to-right by the parser;
/// values are supplied per execution via `CompiledQuery::Run(params)`.
struct ParameterExpr : Expr {
  explicit ParameterExpr(int64_t ordinal)
      : Expr(ExprKind::kParameter), ordinal(ordinal) {}
  int64_t ordinal;  // 0-based position among the statement's placeholders
  std::string ToString() const override { return "?"; }
};

// ---- Table references ------------------------------------------------------

enum class TableRefKind { kBaseTable, kSubquery, kTableFunction, kJoin };

struct SelectStatement;

struct TableRef {
  explicit TableRef(TableRefKind kind) : kind(kind) {}
  virtual ~TableRef() = default;
  TableRefKind kind;
  std::string alias;  // may be empty
};

using TableRefPtr = std::unique_ptr<TableRef>;

struct BaseTableRef : TableRef {
  explicit BaseTableRef(std::string name)
      : TableRef(TableRefKind::kBaseTable), table_name(std::move(name)) {}
  std::string table_name;
};

struct SubqueryRef : TableRef {
  SubqueryRef() : TableRef(TableRefKind::kSubquery) {}
  std::unique_ptr<SelectStatement> subquery;
};

/// FROM tvf_name(input [, scalar args...]) — the paper's TVF-in-FROM form
/// (Listing 4/6/9). The input is a registered table name or a subquery
/// (`FROM extract_table(SELECT images FROM Document WHERE ...)`).
struct TableFunctionRef : TableRef {
  TableFunctionRef() : TableRef(TableRefKind::kTableFunction) {}
  std::string function_name;       // lowercased
  TableRefPtr input;               // base table or subquery
  std::vector<ExprPtr> extra_args; // literal arguments after the input
};

enum class JoinType { kInner, kLeft };

struct JoinRef : TableRef {
  JoinRef() : TableRef(TableRefKind::kJoin) {}
  JoinType join_type = JoinType::kInner;
  TableRefPtr left;
  TableRefPtr right;
  ExprPtr condition;  // ON expr
};

// ---- Statements -------------------------------------------------------------

enum class StatementKind { kSelect, kCreateTable, kInsert, kUpdate, kDelete };

/// Common base for every parsed statement. `ParseStatement` returns this;
/// callers dispatch on `kind` with static downcasts, same as Expr.
struct Statement {
  explicit Statement(StatementKind kind) : kind(kind) {}
  virtual ~Statement() = default;
  StatementKind kind;
};

using StatementPtr = std::unique_ptr<Statement>;

struct SelectItem {
  ExprPtr expr;
  std::string alias;  // may be empty
};

struct OrderByItem {
  ExprPtr expr;
  bool descending = false;
};

struct SelectStatement : Statement {
  SelectStatement() : Statement(StatementKind::kSelect) {}
  bool distinct = false;
  std::vector<SelectItem> select_list;
  TableRefPtr from;  // may be null (SELECT 1+1)
  ExprPtr where;
  std::vector<ExprPtr> group_by;
  ExprPtr having;
  std::vector<OrderByItem> order_by;
  std::optional<int64_t> limit;
  std::optional<int64_t> offset;
};

/// One `name type` entry in CREATE TABLE. The parser stores the type name
/// verbatim (uppercased); the binder owns the name -> (encoding, dtype)
/// mapping so unknown types surface as bind errors, not parse errors.
struct ColumnDef {
  std::string name;
  std::string type_name;     // INT | BIGINT | FLOAT | REAL | DOUBLE |
                             // TEXT | BOOL | BOOLEAN | TENSOR
  int64_t tensor_width = 0;  // TENSOR(d) only; 0 for scalar types
};

/// CREATE TABLE name (col type, ...).
struct CreateTableStatement : Statement {
  CreateTableStatement() : Statement(StatementKind::kCreateTable) {}
  std::string table_name;
  std::vector<ColumnDef> columns;
};

/// INSERT INTO name [(cols)] VALUES (...), ... | SELECT ... — exactly one
/// of `values` / `select` is populated.
struct InsertStatement : Statement {
  InsertStatement() : Statement(StatementKind::kInsert) {}
  std::string table_name;
  /// Explicit column list; empty means "declared order". The engine has no
  /// default values, so a non-empty list must still name every column.
  std::vector<std::string> columns;
  std::vector<std::vector<ExprPtr>> values;  // VALUES rows
  std::unique_ptr<SelectStatement> select;   // INSERT ... SELECT source
};

/// UPDATE name SET col = expr, ... [WHERE pred].
struct UpdateStatement : Statement {
  UpdateStatement() : Statement(StatementKind::kUpdate) {}
  std::string table_name;
  std::vector<std::pair<std::string, ExprPtr>> assignments;
  ExprPtr where;  // null = every row
};

/// DELETE FROM name [WHERE pred].
struct DeleteStatement : Statement {
  DeleteStatement() : Statement(StatementKind::kDelete) {}
  std::string table_name;
  ExprPtr where;  // null = every row
};

/// Deep structural copy of an expression tree.
ExprPtr CloneExpr(const Expr& e);

}  // namespace sql
}  // namespace tdp

#endif  // TDP_SQL_AST_H_

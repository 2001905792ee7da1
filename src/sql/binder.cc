#include "src/sql/binder.h"

#include <map>
#include <set>
#include <utility>

#include "src/common/string_util.h"

namespace tdp {
namespace sql {

using exec::BoundBinary;
using exec::BoundCase;
using exec::BoundColumnRef;
using exec::BoundExpr;
using exec::BoundExprPtr;
using exec::BoundLiteral;
using exec::BoundUdfCall;
using exec::BoundUnary;
using exec::ScalarValue;
using plan::AggDef;
using plan::AggKind;
using plan::AggregateNode;
using plan::ColumnMeta;
using plan::CreateTableNode;
using plan::DeleteNode;
using plan::DistinctNode;
using plan::FilterNode;
using plan::InsertNode;
using plan::JoinNode;
using plan::LimitNode;
using plan::LogicalNode;
using plan::LogicalNodePtr;
using plan::ProjectNode;
using plan::ScanNode;
using plan::Schema;
using plan::SortItem;
using plan::SortNode;
using plan::TvfScanNode;
using plan::UpdateNode;

namespace {

/// Name resolution context: one entry per visible column.
struct BindScope {
  Schema schema;
  std::vector<std::string> qualifiers;  // table alias per column

  int64_t size() const { return static_cast<int64_t>(schema.size()); }
};

// Built-in names (aggregates; `dot`/`cosine_sim` vector similarity)
// resolve before the UDF registry — they are part of the language, not
// session state, so the IndexTopK rewrite can rely on their semantics.
// The single name lists live in udf/registry.h, next to the registration
// check that rejects them as UDF names.
bool IsAggregateName(const std::string& lower_name) {
  return udf::IsBuiltinAggregateName(lower_name);
}

bool IsVectorSimName(const std::string& lower_name) {
  return udf::IsBuiltinVectorSimName(lower_name);
}

StatusOr<AggKind> AggKindFromName(const std::string& lower_name,
                                  bool is_star) {
  if (lower_name == "count") {
    return is_star ? AggKind::kCountStar : AggKind::kCount;
  }
  if (is_star) {
    return Status::BindError("* argument only valid in COUNT(*)");
  }
  if (lower_name == "sum") return AggKind::kSum;
  if (lower_name == "avg") return AggKind::kAvg;
  if (lower_name == "min") return AggKind::kMin;
  if (lower_name == "max") return AggKind::kMax;
  return Status::BindError("unknown aggregate: " + lower_name);
}

/// True if the expression tree contains an aggregate function call.
bool ContainsAggregate(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kFunctionCall: {
      const auto& f = static_cast<const FunctionCallExpr&>(e);
      if (IsAggregateName(f.function_name)) return true;
      for (const auto& a : f.args) {
        if (ContainsAggregate(*a)) return true;
      }
      return false;
    }
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(e);
      return ContainsAggregate(*b.left) || ContainsAggregate(*b.right);
    }
    case ExprKind::kUnary:
      return ContainsAggregate(*static_cast<const UnaryExpr&>(e).operand);
    case ExprKind::kCase: {
      const auto& c = static_cast<const CaseExpr&>(e);
      for (const auto& [when, then] : c.branches) {
        if (ContainsAggregate(*when) || ContainsAggregate(*then)) return true;
      }
      return c.else_expr && ContainsAggregate(*c.else_expr);
    }
    default:
      return false;
  }
}

ColumnMeta MetaFromColumn(const std::string& name, const Column& column) {
  ColumnMeta meta;
  meta.name = name;
  meta.encoding = column.encoding();
  meta.dtype = column.data().dtype();
  meta.is_tensor = column.IsTensorColumn();
  return meta;
}

/// Output schema shared by every write statement: one int64 row count.
Schema RowsAffectedSchema() {
  ColumnMeta meta;
  meta.name = "rows_affected";
  meta.dtype = DType::kInt64;
  return Schema{meta};
}

/// Maps a declared CREATE TABLE type name to storage metadata. The
/// parser uppercases type names and validates TENSOR's width; everything
/// else (including unknown names) is decided here.
Status ApplyDeclaredTypeName(const ColumnDef& def, ColumnMeta& meta,
                             int64_t& tensor_width) {
  tensor_width = 0;
  const std::string& t = def.type_name;
  if (t == "INT" || t == "INTEGER" || t == "BIGINT") {
    meta.dtype = DType::kInt64;
  } else if (t == "FLOAT" || t == "REAL") {
    meta.dtype = DType::kFloat32;
  } else if (t == "DOUBLE") {
    meta.dtype = DType::kFloat64;
  } else if (t == "TEXT" || t == "STRING" || t == "VARCHAR") {
    meta.encoding = Encoding::kDictionary;
    meta.dtype = DType::kInt64;
  } else if (t == "BOOL" || t == "BOOLEAN") {
    meta.dtype = DType::kBool;
  } else if (t == "TENSOR") {
    meta.dtype = DType::kFloat32;
    meta.is_tensor = true;
    tensor_width = def.tensor_width;
  } else {
    return Status::BindError(
        "unknown column type: " + t +
        " (supported: INT, BIGINT, FLOAT, REAL, DOUBLE, TEXT, BOOL, "
        "TENSOR(d))");
  }
  return Status::OK();
}

ColumnMeta MetaFromDeclared(const udf::DeclaredColumn& decl) {
  ColumnMeta meta;
  meta.name = decl.name;
  switch (decl.type) {
    case udf::DeclaredType::kFloat:
      meta.dtype = DType::kFloat32;
      break;
    case udf::DeclaredType::kInt:
      meta.dtype = DType::kInt64;
      break;
    case udf::DeclaredType::kString:
      meta.encoding = Encoding::kDictionary;
      meta.dtype = DType::kInt64;
      break;
    case udf::DeclaredType::kBool:
      meta.dtype = DType::kBool;
      break;
    case udf::DeclaredType::kTensor:
      meta.dtype = DType::kFloat32;
      meta.is_tensor = true;
      break;
    case udf::DeclaredType::kProbability:
      meta.encoding = Encoding::kProbability;
      meta.dtype = DType::kFloat32;
      break;
  }
  return meta;
}

}  // namespace

// Out-of-line implementation object so binder.h stays small.
namespace {

class BinderImpl {
 public:
  BinderImpl(const Catalog& catalog, const udf::FunctionRegistry& registry)
      : catalog_(catalog), registry_(registry) {}

  StatusOr<LogicalNodePtr> BindSelect(const SelectStatement& stmt);
  StatusOr<LogicalNodePtr> BindStatement(const Statement& stmt);

 private:
  // ---- Write statements -----------------------------------------------------

  StatusOr<LogicalNodePtr> BindCreateTable(const CreateTableStatement& stmt);
  StatusOr<LogicalNodePtr> BindInsert(const InsertStatement& stmt);
  StatusOr<LogicalNodePtr> BindUpdate(const UpdateStatement& stmt);
  StatusOr<LogicalNodePtr> BindDelete(const DeleteStatement& stmt);

  /// Full-schema Scan of a write statement's target table, plus the scope
  /// its WHERE / SET expressions bind against. Deliberately NOT the pruned
  /// scan a SELECT would get: the DML kernels need every column of the old
  /// rows to assemble the replacement table.
  StatusOr<std::pair<LogicalNodePtr, BindScope>> BindWriteTargetScan(
      const std::string& table_name);
  using Scope = BindScope;

  // ---- FROM ----------------------------------------------------------------

  StatusOr<std::pair<LogicalNodePtr, Scope>> BindTableRef(const TableRef& ref);

  StatusOr<std::pair<LogicalNodePtr, Scope>> BindBaseTable(
      const BaseTableRef& ref);
  StatusOr<std::pair<LogicalNodePtr, Scope>> BindTvf(
      const TableFunctionRef& ref);
  StatusOr<std::pair<LogicalNodePtr, Scope>> BindJoin(const JoinRef& ref);

  // ---- Expressions ----------------------------------------------------------

  StatusOr<BoundExprPtr> BindExpr(const Expr& e, const Scope& scope);
  StatusOr<BoundExprPtr> BindColumnRef(const ColumnRefExpr& e,
                                       const Scope& scope);

  /// Binds a post-aggregation expression: aggregate calls and group
  /// expressions become column references into the aggregate output scope.
  StatusOr<BoundExprPtr> BindPostAgg(
      const Expr& e, const Scope& input_scope,
      const std::vector<std::string>& group_strings,
      std::vector<AggDef>& aggs, const Scope& agg_scope);

  ColumnMeta InferMeta(const BoundExpr& e, const Scope& scope,
                       const std::string& name) const;

  const Catalog& catalog_;
  const udf::FunctionRegistry& registry_;
};

StatusOr<std::pair<LogicalNodePtr, BindScope>> BinderImpl::BindBaseTable(
    const BaseTableRef& ref) {
  TDP_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                       catalog_.GetTable(ref.table_name));
  auto node = std::make_unique<ScanNode>();
  node->table_name = ref.table_name;
  Scope scope;
  const std::string qualifier =
      ref.alias.empty() ? ref.table_name : ref.alias;
  for (int64_t i = 0; i < table->num_columns(); ++i) {
    scope.schema.push_back(
        MetaFromColumn(table->column_names()[static_cast<size_t>(i)],
                       table->column(i)));
    scope.qualifiers.push_back(qualifier);
  }
  node->schema = scope.schema;
  return std::make_pair(LogicalNodePtr(std::move(node)), std::move(scope));
}

StatusOr<std::pair<LogicalNodePtr, BindScope>> BinderImpl::BindTvf(
    const TableFunctionRef& ref) {
  const udf::TableFunction* fn = registry_.FindTable(ref.function_name);
  if (fn == nullptr) {
    return Status::BindError("unknown table function: " + ref.function_name);
  }
  TDP_RETURN_NOT_OK(udf::CheckTvfArity(*fn, ref.extra_args.size()));
  auto node = std::make_unique<TvfScanNode>();
  node->fn = fn;
  TDP_ASSIGN_OR_RETURN(auto bound_input, BindTableRef(*ref.input));
  node->children.push_back(std::move(bound_input.first));
  for (const ExprPtr& arg : ref.extra_args) {
    // Only literal arguments are supported (the paper passes constants).
    if (arg->kind != ExprKind::kLiteral) {
      return Status::BindError(
          "table function " + fn->name +
          " arguments must be literals, got: " + arg->ToString() +
          "; signature: " + udf::TvfSignature(*fn));
    }
    const auto& lit = static_cast<const LiteralExpr&>(*arg);
    switch (lit.literal_kind) {
      case LiteralKind::kInteger:
        node->args.push_back(ScalarValue::Int(lit.int_value));
        break;
      case LiteralKind::kFloat:
        node->args.push_back(ScalarValue::Float(lit.number_value));
        break;
      case LiteralKind::kString:
        node->args.push_back(ScalarValue::String(lit.string_value));
        break;
      case LiteralKind::kBoolean:
        node->args.push_back(ScalarValue::Bool(lit.bool_value));
        break;
      case LiteralKind::kNull:
        node->args.push_back(ScalarValue::Null());
        break;
    }
  }
  Scope scope;
  const std::string qualifier =
      ref.alias.empty() ? ref.function_name : ref.alias;
  for (const udf::DeclaredColumn& decl : fn->output_schema) {
    scope.schema.push_back(MetaFromDeclared(decl));
    scope.qualifiers.push_back(qualifier);
  }
  node->schema = scope.schema;
  return std::make_pair(LogicalNodePtr(std::move(node)), std::move(scope));
}

StatusOr<std::pair<LogicalNodePtr, BindScope>> BinderImpl::BindJoin(
    const JoinRef& ref) {
  if (ref.join_type == JoinType::kLeft) {
    return Status::Unimplemented(
        "LEFT JOIN is not supported yet (no NULL semantics in TDP columns)");
  }
  TDP_ASSIGN_OR_RETURN(auto left, BindTableRef(*ref.left));
  TDP_ASSIGN_OR_RETURN(auto right, BindTableRef(*ref.right));
  Scope combined;
  combined.schema = left.second.schema;
  combined.qualifiers = left.second.qualifiers;
  for (size_t i = 0; i < right.second.schema.size(); ++i) {
    combined.schema.push_back(right.second.schema[i]);
    combined.qualifiers.push_back(right.second.qualifiers[i]);
  }
  const int64_t left_size = left.second.size();

  auto node = std::make_unique<JoinNode>();
  node->join_type = ref.join_type;
  node->children.push_back(std::move(left.first));
  node->children.push_back(std::move(right.first));
  node->schema = combined.schema;

  // Split the ON condition into conjuncts; pull out equi-key pairs.
  std::vector<const Expr*> conjuncts;
  std::vector<const Expr*> stack = {ref.condition.get()};
  while (!stack.empty()) {
    const Expr* e = stack.back();
    stack.pop_back();
    if (e->kind == ExprKind::kBinary) {
      const auto& b = static_cast<const BinaryExpr&>(*e);
      if (b.op == BinaryOp::kAnd) {
        stack.push_back(b.left.get());
        stack.push_back(b.right.get());
        continue;
      }
    }
    conjuncts.push_back(e);
  }

  BoundExprPtr residual;
  for (const Expr* conjunct : conjuncts) {
    bool is_equi_key = false;
    if (conjunct->kind == ExprKind::kBinary) {
      const auto& b = static_cast<const BinaryExpr&>(*conjunct);
      if (b.op == BinaryOp::kEq && b.left->kind == ExprKind::kColumnRef &&
          b.right->kind == ExprKind::kColumnRef) {
        TDP_ASSIGN_OR_RETURN(BoundExprPtr lb, BindExpr(*b.left, combined));
        TDP_ASSIGN_OR_RETURN(BoundExprPtr rb, BindExpr(*b.right, combined));
        int64_t li = static_cast<BoundColumnRef&>(*lb).column_index;
        int64_t ri = static_cast<BoundColumnRef&>(*rb).column_index;
        if (li >= left_size && ri < left_size) std::swap(li, ri);
        if (li < left_size && ri >= left_size) {
          node->left_keys.push_back(li);
          node->right_keys.push_back(ri - left_size);
          is_equi_key = true;
        }
      }
    }
    if (!is_equi_key) {
      TDP_ASSIGN_OR_RETURN(BoundExprPtr bound, BindExpr(*conjunct, combined));
      if (node->residual) {
        auto conj = std::make_unique<BoundBinary>(
            BinaryOp::kAnd, std::move(node->residual), std::move(bound));
        conj->display_name = "join residual";
        node->residual = std::move(conj);
      } else {
        node->residual = std::move(bound);
      }
    }
  }
  if (node->left_keys.empty() && !node->residual) {
    return Status::BindError("join requires an ON condition");
  }
  return std::make_pair(LogicalNodePtr(std::move(node)), std::move(combined));
}

StatusOr<std::pair<LogicalNodePtr, BindScope>> BinderImpl::BindTableRef(
    const TableRef& ref) {
  switch (ref.kind) {
    case TableRefKind::kBaseTable:
      return BindBaseTable(static_cast<const BaseTableRef&>(ref));
    case TableRefKind::kTableFunction:
      return BindTvf(static_cast<const TableFunctionRef&>(ref));
    case TableRefKind::kJoin:
      return BindJoin(static_cast<const JoinRef&>(ref));
    case TableRefKind::kSubquery: {
      const auto& sub = static_cast<const SubqueryRef&>(ref);
      TDP_ASSIGN_OR_RETURN(LogicalNodePtr node, BindSelect(*sub.subquery));
      Scope scope;
      const std::string qualifier = ref.alias;
      for (const ColumnMeta& meta : node->schema) {
        scope.schema.push_back(meta);
        scope.qualifiers.push_back(qualifier);
      }
      return std::make_pair(std::move(node), std::move(scope));
    }
  }
  return Status::Internal("unknown table ref kind");
}

StatusOr<BoundExprPtr> BinderImpl::BindColumnRef(const ColumnRefExpr& e,
                                                 const Scope& scope) {
  int64_t found = -1;
  for (int64_t i = 0; i < scope.size(); ++i) {
    const size_t ui = static_cast<size_t>(i);
    if (!EqualsIgnoreCase(scope.schema[ui].name, e.column_name)) continue;
    if (!e.table_name.empty() &&
        !EqualsIgnoreCase(scope.qualifiers[ui], e.table_name)) {
      continue;
    }
    if (found >= 0) {
      return Status::BindError("ambiguous column reference: " + e.ToString());
    }
    found = i;
  }
  if (found < 0) {
    return Status::BindError("column not found: " + e.ToString());
  }
  auto ref = std::make_unique<BoundColumnRef>(found);
  ref->display_name = e.column_name;
  return BoundExprPtr(std::move(ref));
}

StatusOr<BoundExprPtr> BinderImpl::BindExpr(const Expr& e,
                                            const Scope& scope) {
  switch (e.kind) {
    case ExprKind::kColumnRef:
      return BindColumnRef(static_cast<const ColumnRefExpr&>(e), scope);
    case ExprKind::kLiteral: {
      const auto& lit = static_cast<const LiteralExpr&>(e);
      ScalarValue v;
      switch (lit.literal_kind) {
        case LiteralKind::kInteger:
          v = ScalarValue::Int(lit.int_value);
          break;
        case LiteralKind::kFloat:
          v = ScalarValue::Float(lit.number_value);
          break;
        case LiteralKind::kString:
          v = ScalarValue::String(lit.string_value);
          break;
        case LiteralKind::kBoolean:
          v = ScalarValue::Bool(lit.bool_value);
          break;
        case LiteralKind::kNull:
          v = ScalarValue::Null();
          break;
      }
      auto bound = std::make_unique<BoundLiteral>(std::move(v));
      bound->display_name = lit.ToString();
      return BoundExprPtr(std::move(bound));
    }
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(e);
      TDP_ASSIGN_OR_RETURN(BoundExprPtr left, BindExpr(*b.left, scope));
      TDP_ASSIGN_OR_RETURN(BoundExprPtr right, BindExpr(*b.right, scope));
      auto bound = std::make_unique<BoundBinary>(b.op, std::move(left),
                                                 std::move(right));
      bound->display_name = b.ToString();
      return BoundExprPtr(std::move(bound));
    }
    case ExprKind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(e);
      TDP_ASSIGN_OR_RETURN(BoundExprPtr operand, BindExpr(*u.operand, scope));
      auto bound = std::make_unique<BoundUnary>(u.op, std::move(operand));
      bound->display_name = u.ToString();
      return BoundExprPtr(std::move(bound));
    }
    case ExprKind::kFunctionCall: {
      const auto& f = static_cast<const FunctionCallExpr&>(e);
      if (IsAggregateName(f.function_name)) {
        return Status::BindError(
            "aggregate " + f.function_name +
            " is not allowed here (only in SELECT/HAVING with GROUP BY)");
      }
      if (IsVectorSimName(f.function_name)) {
        if (f.is_star_arg || f.args.size() != 2) {
          return Status::BindError(f.function_name +
                                   " takes exactly two arguments: "
                                   "(embedding_column, query_vector)");
        }
        TDP_ASSIGN_OR_RETURN(BoundExprPtr col, BindExpr(*f.args[0], scope));
        TDP_ASSIGN_OR_RETURN(BoundExprPtr query,
                             BindExpr(*f.args[1], scope));
        auto bound = std::make_unique<exec::BoundVectorSim>(
            f.function_name == "dot"
                ? exec::BoundVectorSim::SimKind::kDot
                : exec::BoundVectorSim::SimKind::kCosine,
            std::move(col), std::move(query));
        bound->display_name = f.ToString();
        return BoundExprPtr(std::move(bound));
      }
      const udf::ScalarFunction* fn = registry_.FindScalar(f.function_name);
      if (fn == nullptr) {
        return Status::BindError("unknown function: " + f.function_name);
      }
      auto bound = std::make_unique<BoundUdfCall>();
      bound->fn = fn;
      for (const ExprPtr& arg : f.args) {
        TDP_ASSIGN_OR_RETURN(BoundExprPtr bound_arg, BindExpr(*arg, scope));
        bound->args.push_back(std::move(bound_arg));
      }
      bound->display_name = f.ToString();
      return BoundExprPtr(std::move(bound));
    }
    case ExprKind::kCase: {
      const auto& c = static_cast<const CaseExpr&>(e);
      auto bound = std::make_unique<BoundCase>();
      for (const auto& [when, then] : c.branches) {
        TDP_ASSIGN_OR_RETURN(BoundExprPtr bw, BindExpr(*when, scope));
        TDP_ASSIGN_OR_RETURN(BoundExprPtr bt, BindExpr(*then, scope));
        bound->branches.emplace_back(std::move(bw), std::move(bt));
      }
      if (c.else_expr) {
        TDP_ASSIGN_OR_RETURN(bound->else_expr,
                             BindExpr(*c.else_expr, scope));
      }
      bound->display_name = c.ToString();
      return BoundExprPtr(std::move(bound));
    }
    case ExprKind::kParameter: {
      const auto& p = static_cast<const ParameterExpr&>(e);
      auto bound = std::make_unique<exec::BoundParameter>(p.ordinal);
      bound->display_name = "?";
      return BoundExprPtr(std::move(bound));
    }
    case ExprKind::kStar:
      return Status::BindError("'*' is only valid in SELECT * or COUNT(*)");
  }
  return Status::Internal("unknown expression kind");
}

ColumnMeta BinderImpl::InferMeta(const BoundExpr& e, const Scope& scope,
                                 const std::string& name) const {
  ColumnMeta meta;
  meta.name = name;
  switch (e.kind) {
    case exec::BoundExprKind::kColumnRef: {
      const auto& ref = static_cast<const BoundColumnRef&>(e);
      meta = scope.schema[static_cast<size_t>(ref.column_index)];
      meta.name = name;
      return meta;
    }
    case exec::BoundExprKind::kLiteral: {
      const auto& lit = static_cast<const BoundLiteral&>(e);
      if (lit.value.is_int()) {
        meta.dtype = DType::kInt64;
      } else if (lit.value.is_string()) {
        meta.encoding = Encoding::kDictionary;
        meta.dtype = DType::kInt64;
      } else if (lit.value.is_bool()) {
        meta.dtype = DType::kBool;
      } else {
        meta.dtype = DType::kFloat32;
      }
      return meta;
    }
    case exec::BoundExprKind::kBinary: {
      const auto& b = static_cast<const BoundBinary&>(e);
      switch (b.op) {
        case BinaryOp::kEq:
        case BinaryOp::kNe:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe:
        case BinaryOp::kAnd:
        case BinaryOp::kOr:
          meta.dtype = DType::kBool;
          return meta;
        case BinaryOp::kDiv:
          meta.dtype = DType::kFloat32;
          return meta;
        default: {
          const ColumnMeta lm = InferMeta(*b.left, scope, name);
          const ColumnMeta rm = InferMeta(*b.right, scope, name);
          meta.dtype = PromoteTypes(lm.dtype, rm.dtype);
          return meta;
        }
      }
    }
    case exec::BoundExprKind::kUnary: {
      const auto& u = static_cast<const BoundUnary&>(e);
      if (u.op == UnaryOp::kNot) {
        meta.dtype = DType::kBool;
        return meta;
      }
      meta = InferMeta(*u.operand, scope, name);
      meta.name = name;
      return meta;
    }
    case exec::BoundExprKind::kUdfCall: {
      const auto& call = static_cast<const BoundUdfCall&>(e);
      udf::DeclaredColumn decl{name, call.fn->return_type};
      return MetaFromDeclared(decl);
    }
    case exec::BoundExprKind::kCase: {
      const auto& c = static_cast<const BoundCase&>(e);
      meta = InferMeta(*c.branches.front().second, scope, name);
      meta.name = name;
      return meta;
    }
    case exec::BoundExprKind::kParameter:
      // Parameter values are typed at Run() time, so assume the widest
      // numeric type here: float64 keeps int64 bindings exact (up to
      // 2^53) when this meta decides an aggregate's output column dtype.
      // Comparisons and arithmetic adapt to the actual bound value.
      meta.dtype = DType::kFloat64;
      return meta;
    case exec::BoundExprKind::kVectorSim:
      meta.dtype = DType::kFloat32;  // one similarity score per row
      return meta;
  }
  return meta;
}

StatusOr<BoundExprPtr> BinderImpl::BindPostAgg(
    const Expr& e, const Scope& input_scope,
    const std::vector<std::string>& group_strings, std::vector<AggDef>& aggs,
    const Scope& agg_scope) {
  // An expression identical to a GROUP BY expression references its column.
  const std::string repr = e.ToString();
  for (size_t g = 0; g < group_strings.size(); ++g) {
    if (EqualsIgnoreCase(repr, group_strings[g])) {
      auto ref = std::make_unique<BoundColumnRef>(static_cast<int64_t>(g));
      ref->display_name = repr;
      return BoundExprPtr(std::move(ref));
    }
  }
  switch (e.kind) {
    case ExprKind::kFunctionCall: {
      const auto& f = static_cast<const FunctionCallExpr&>(e);
      if (IsAggregateName(f.function_name)) {
        TDP_ASSIGN_OR_RETURN(AggKind kind,
                             AggKindFromName(f.function_name, f.is_star_arg));
        if (!f.is_star_arg && f.args.size() != 1) {
          return Status::BindError("aggregate takes exactly one argument: " +
                                   f.ToString());
        }
        // Deduplicate identical aggregate calls.
        for (size_t i = 0; i < aggs.size(); ++i) {
          if (EqualsIgnoreCase(aggs[i].name, repr)) {
            auto ref = std::make_unique<BoundColumnRef>(
                static_cast<int64_t>(group_strings.size() + i));
            ref->display_name = repr;
            return BoundExprPtr(std::move(ref));
          }
        }
        AggDef def;
        def.kind = kind;
        def.distinct = f.distinct;
        def.name = repr;
        if (!f.is_star_arg) {
          TDP_ASSIGN_OR_RETURN(def.arg, BindExpr(*f.args[0], input_scope));
        }
        aggs.push_back(std::move(def));
        auto ref = std::make_unique<BoundColumnRef>(
            static_cast<int64_t>(group_strings.size() + aggs.size() - 1));
        ref->display_name = repr;
        return BoundExprPtr(std::move(ref));
      }
      if (IsVectorSimName(f.function_name)) {
        return Status::BindError(
            f.function_name +
            " is not allowed in an aggregated SELECT (similarity is "
            "row-level; compute it before grouping)");
      }
      // Scalar UDF over post-aggregation values.
      const udf::ScalarFunction* fn = registry_.FindScalar(f.function_name);
      if (fn == nullptr) {
        return Status::BindError("unknown function: " + f.function_name);
      }
      auto bound = std::make_unique<BoundUdfCall>();
      bound->fn = fn;
      for (const ExprPtr& arg : f.args) {
        TDP_ASSIGN_OR_RETURN(
            BoundExprPtr bound_arg,
            BindPostAgg(*arg, input_scope, group_strings, aggs, agg_scope));
        bound->args.push_back(std::move(bound_arg));
      }
      bound->display_name = repr;
      return BoundExprPtr(std::move(bound));
    }
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(e);
      TDP_ASSIGN_OR_RETURN(
          BoundExprPtr left,
          BindPostAgg(*b.left, input_scope, group_strings, aggs, agg_scope));
      TDP_ASSIGN_OR_RETURN(
          BoundExprPtr right,
          BindPostAgg(*b.right, input_scope, group_strings, aggs, agg_scope));
      auto bound = std::make_unique<BoundBinary>(b.op, std::move(left),
                                                 std::move(right));
      bound->display_name = repr;
      return BoundExprPtr(std::move(bound));
    }
    case ExprKind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(e);
      TDP_ASSIGN_OR_RETURN(BoundExprPtr operand,
                           BindPostAgg(*u.operand, input_scope, group_strings,
                                       aggs, agg_scope));
      auto bound = std::make_unique<BoundUnary>(u.op, std::move(operand));
      bound->display_name = repr;
      return BoundExprPtr(std::move(bound));
    }
    case ExprKind::kLiteral:
    case ExprKind::kParameter:
      return BindExpr(e, agg_scope);
    case ExprKind::kColumnRef:
      return Status::BindError("column " + repr +
                               " must appear in GROUP BY or an aggregate");
    default:
      return Status::BindError(
          "unsupported expression in aggregated SELECT: " + repr);
  }
}

namespace {

// Output-column metadata for an aggregate definition.
ColumnMeta AggOutputMeta(const AggDef& def, DType arg_dtype) {
  ColumnMeta meta;
  meta.name = def.name;
  switch (def.kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      meta.dtype = DType::kInt64;
      break;
    case AggKind::kAvg:
      meta.dtype = DType::kFloat32;
      break;
    default:
      meta.dtype = arg_dtype == DType::kBool ? DType::kInt64 : arg_dtype;
      break;
  }
  return meta;
}

}  // namespace

StatusOr<LogicalNodePtr> BinderImpl::BindSelect(const SelectStatement& stmt) {
  LogicalNodePtr node;
  Scope scope;

  if (stmt.from) {
    TDP_ASSIGN_OR_RETURN(auto bound_from, BindTableRef(*stmt.from));
    node = std::move(bound_from.first);
    scope = std::move(bound_from.second);
  }

  // WHERE.
  if (stmt.where) {
    if (!node) return Status::BindError("WHERE requires a FROM clause");
    if (ContainsAggregate(*stmt.where)) {
      return Status::BindError("aggregates are not allowed in WHERE");
    }
    auto filter = std::make_unique<FilterNode>();
    TDP_ASSIGN_OR_RETURN(filter->predicate, BindExpr(*stmt.where, scope));
    filter->schema = scope.schema;
    filter->children.push_back(std::move(node));
    node = std::move(filter);
  }

  // Detect aggregation.
  bool has_aggregates = !stmt.group_by.empty();
  for (const SelectItem& item : stmt.select_list) {
    if (item.expr->kind != ExprKind::kStar &&
        ContainsAggregate(*item.expr)) {
      has_aggregates = true;
    }
  }
  if (stmt.having) has_aggregates = true;

  Scope output_scope;
  // Retained handles for ORDER BY fallback binding (hidden sort columns).
  ProjectNode* project_ptr = nullptr;
  AggregateNode* agg_ptr = nullptr;
  std::vector<LogicalNode*> post_agg_chain;  // nodes whose schema must grow
  std::vector<std::string> group_strings;
  Scope agg_scope;

  if (has_aggregates) {
    if (!node) return Status::BindError("aggregation requires FROM");
    auto agg = std::make_unique<AggregateNode>();
    for (const ExprPtr& g : stmt.group_by) {
      TDP_ASSIGN_OR_RETURN(BoundExprPtr bound, BindExpr(*g, scope));
      group_strings.push_back(g->ToString());
      agg->group_names.push_back(g->ToString());
      agg->group_exprs.push_back(std::move(bound));
    }

    // Bind SELECT and HAVING, populating agg->aggregates.
    std::vector<AggDef> aggs;
    for (size_t g = 0; g < agg->group_exprs.size(); ++g) {
      agg_scope.schema.push_back(InferMeta(*agg->group_exprs[g], scope,
                                           agg->group_names[g]));
      agg_scope.qualifiers.emplace_back();
    }

    std::vector<BoundExprPtr> final_exprs;
    std::vector<std::string> final_names;
    for (const SelectItem& item : stmt.select_list) {
      if (item.expr->kind == ExprKind::kStar) {
        return Status::BindError("SELECT * cannot be combined with GROUP BY");
      }
      TDP_ASSIGN_OR_RETURN(
          BoundExprPtr bound,
          BindPostAgg(*item.expr, scope, group_strings, aggs, agg_scope));
      final_names.push_back(item.alias.empty() ? item.expr->ToString()
                                               : item.alias);
      final_exprs.push_back(std::move(bound));
    }

    BoundExprPtr having_bound;
    if (stmt.having) {
      TDP_ASSIGN_OR_RETURN(
          having_bound,
          BindPostAgg(*stmt.having, scope, group_strings, aggs, agg_scope));
    }

    // Aggregate schema: groups ++ aggs.
    agg->schema = agg_scope.schema;
    for (const AggDef& def : aggs) {
      agg->schema.push_back(AggOutputMeta(
          def, def.arg ? InferMeta(*def.arg, scope, def.name).dtype
                       : DType::kFloat32));
    }
    agg->aggregates = std::move(aggs);
    agg->children.push_back(std::move(node));

    Scope post_scope;
    post_scope.schema = agg->schema;
    post_scope.qualifiers.assign(agg->schema.size(), "");
    agg_ptr = agg.get();
    node = std::move(agg);

    if (having_bound) {
      auto filter = std::make_unique<FilterNode>();
      filter->predicate = std::move(having_bound);
      filter->schema = post_scope.schema;
      post_agg_chain.push_back(filter.get());
      filter->children.push_back(std::move(node));
      node = std::move(filter);
    }

    // Final projection over the aggregate output.
    auto project = std::make_unique<ProjectNode>();
    for (size_t i = 0; i < final_exprs.size(); ++i) {
      project->schema.push_back(
          InferMeta(*final_exprs[i], post_scope, final_names[i]));
    }
    project->exprs = std::move(final_exprs);
    project->children.push_back(std::move(node));
    project_ptr = project.get();
    node = std::move(project);

    output_scope.schema = node->schema;
    output_scope.qualifiers.assign(node->schema.size(), "");
  } else {
    // Plain projection.
    auto project = std::make_unique<ProjectNode>();
    for (const SelectItem& item : stmt.select_list) {
      if (item.expr->kind == ExprKind::kStar) {
        if (!node) return Status::BindError("SELECT * requires FROM");
        for (int64_t i = 0; i < scope.size(); ++i) {
          auto ref = std::make_unique<BoundColumnRef>(i);
          ref->display_name = scope.schema[static_cast<size_t>(i)].name;
          project->schema.push_back(scope.schema[static_cast<size_t>(i)]);
          project->exprs.push_back(std::move(ref));
          output_scope.qualifiers.push_back(
              scope.qualifiers[static_cast<size_t>(i)]);
        }
        continue;
      }
      TDP_ASSIGN_OR_RETURN(BoundExprPtr bound, BindExpr(*item.expr, scope));
      // Unaliased plain column refs keep their bare column name (SQL
      // convention: `SELECT s.id` yields a column named "id").
      std::string name = item.alias;
      std::string qualifier;
      if (item.expr->kind == ExprKind::kColumnRef) {
        const auto& cref = static_cast<const ColumnRefExpr&>(*item.expr);
        if (name.empty()) name = cref.column_name;
        const auto& bref = static_cast<const BoundColumnRef&>(*bound);
        qualifier =
            scope.qualifiers[static_cast<size_t>(bref.column_index)];
      }
      if (name.empty()) name = item.expr->ToString();
      project->schema.push_back(InferMeta(*bound, scope, name));
      project->exprs.push_back(std::move(bound));
      output_scope.qualifiers.push_back(qualifier);
    }
    if (node) project->children.push_back(std::move(node));
    project_ptr = project.get();
    node = std::move(project);
    output_scope.schema = node->schema;
  }

  const size_t visible_columns = node->schema.size();

  if (stmt.distinct) {
    auto distinct = std::make_unique<DistinctNode>();
    distinct->schema = node->schema;
    distinct->children.push_back(std::move(node));
    node = std::move(distinct);
  }

  if (!stmt.order_by.empty()) {
    auto sort = std::make_unique<SortNode>();
    bool added_hidden = false;
    for (const OrderByItem& item : stmt.order_by) {
      SortItem bound_item;
      bound_item.descending = item.descending;
      auto direct = BindExpr(*item.expr, output_scope);
      if (direct.ok()) {
        bound_item.expr = std::move(direct).value();
        sort->items.push_back(std::move(bound_item));
        continue;
      }
      // Fallback: the sort key is not in the select list — bind it against
      // the pre-projection scope and carry it as a hidden projected column.
      if (stmt.distinct) {
        return Status::BindError(
            "ORDER BY expressions must appear in the select list when "
            "DISTINCT is used: " + item.expr->ToString());
      }
      BoundExprPtr hidden;
      if (has_aggregates) {
        const size_t aggs_before = agg_ptr->aggregates.size();
        TDP_ASSIGN_OR_RETURN(hidden,
                             BindPostAgg(*item.expr, scope, group_strings,
                                         agg_ptr->aggregates, agg_scope));
        // New aggregates introduced by ORDER BY widen the aggregate (and
        // any HAVING filter) schema.
        for (size_t i = aggs_before; i < agg_ptr->aggregates.size(); ++i) {
          const AggDef& def = agg_ptr->aggregates[i];
          agg_ptr->schema.push_back(AggOutputMeta(
              def, def.arg ? InferMeta(*def.arg, scope, def.name).dtype
                           : DType::kFloat32));
        }
        for (LogicalNode* n : post_agg_chain) n->schema = agg_ptr->schema;
      } else {
        if (!project_ptr->children.empty()) {
          TDP_ASSIGN_OR_RETURN(hidden, BindExpr(*item.expr, scope));
        } else {
          return direct.status();
        }
      }
      const int64_t hidden_index =
          static_cast<int64_t>(project_ptr->exprs.size());
      Scope hidden_scope;
      if (has_aggregates) {
        hidden_scope.schema = agg_ptr->schema;
        hidden_scope.qualifiers.assign(agg_ptr->schema.size(), "");
      } else {
        hidden_scope = scope;
      }
      ColumnMeta hidden_meta = InferMeta(
          *hidden, hidden_scope,
          "__sort_" + std::to_string(sort->items.size()));
      project_ptr->schema.push_back(hidden_meta);
      project_ptr->exprs.push_back(std::move(hidden));
      node->schema = project_ptr->schema;  // node is the project itself
      auto ref = std::make_unique<BoundColumnRef>(hidden_index);
      ref->display_name = hidden_meta.name;
      bound_item.expr = std::move(ref);
      sort->items.push_back(std::move(bound_item));
      added_hidden = true;
    }
    sort->schema = node->schema;
    sort->children.push_back(std::move(node));
    node = std::move(sort);

    if (added_hidden) {
      // Drop the hidden sort columns again.
      auto cleanup = std::make_unique<ProjectNode>();
      for (size_t i = 0; i < visible_columns; ++i) {
        auto ref = std::make_unique<BoundColumnRef>(static_cast<int64_t>(i));
        ref->display_name = node->schema[i].name;
        cleanup->schema.push_back(node->schema[i]);
        cleanup->exprs.push_back(std::move(ref));
      }
      cleanup->children.push_back(std::move(node));
      node = std::move(cleanup);
    }
  }

  if (stmt.limit.has_value() || stmt.offset.has_value()) {
    auto limit = std::make_unique<LimitNode>();
    limit->limit = stmt.limit.value_or(-1);
    limit->offset = stmt.offset.value_or(0);
    limit->schema = node->schema;
    limit->children.push_back(std::move(node));
    node = std::move(limit);
  }

  return node;
}

// ---- Write statements -------------------------------------------------------

StatusOr<std::pair<LogicalNodePtr, BindScope>> BinderImpl::BindWriteTargetScan(
    const std::string& table_name) {
  BaseTableRef ref(table_name);
  return BindBaseTable(ref);
}

StatusOr<LogicalNodePtr> BinderImpl::BindCreateTable(
    const CreateTableStatement& stmt) {
  auto node = std::make_unique<CreateTableNode>();
  node->table_name = stmt.table_name;
  for (const ColumnDef& def : stmt.columns) {
    for (const ColumnMeta& existing : node->table_schema) {
      if (EqualsIgnoreCase(existing.name, def.name)) {
        return Status::BindError("duplicate column name: " + def.name);
      }
    }
    ColumnMeta meta;
    meta.name = def.name;
    int64_t width = 0;
    TDP_RETURN_NOT_OK(ApplyDeclaredTypeName(def, meta, width));
    node->table_schema.push_back(std::move(meta));
    node->tensor_widths.push_back(width);
  }
  node->schema = RowsAffectedSchema();
  return LogicalNodePtr(std::move(node));
}

StatusOr<LogicalNodePtr> BinderImpl::BindInsert(const InsertStatement& stmt) {
  TDP_ASSIGN_OR_RETURN(std::shared_ptr<Table> target,
                       catalog_.GetTable(stmt.table_name));
  const int64_t num_columns = target->num_columns();

  auto node = std::make_unique<InsertNode>();
  node->table_name = stmt.table_name;
  if (stmt.columns.empty()) {
    for (int64_t i = 0; i < num_columns; ++i) node->column_map.push_back(i);
  } else {
    // Explicit list: must name every column exactly once (no defaults),
    // but may reorder — column_map[i] is value position i's target.
    if (static_cast<int64_t>(stmt.columns.size()) != num_columns) {
      return Status::BindError(
          "INSERT must supply every column of " + target->name() + " (" +
          std::to_string(num_columns) + " columns, got " +
          std::to_string(stmt.columns.size()) +
          "; the engine has no default values)");
    }
    std::vector<bool> seen(static_cast<size_t>(num_columns), false);
    for (const std::string& name : stmt.columns) {
      const StatusOr<int64_t> found = target->ColumnIndex(name);
      if (!found.ok()) {
        return Status::BindError("INSERT column " + name +
                                 " does not exist in " + target->name());
      }
      const int64_t index = found.value();
      if (seen[static_cast<size_t>(index)]) {
        return Status::BindError("duplicate INSERT column: " + name);
      }
      seen[static_cast<size_t>(index)] = true;
      node->column_map.push_back(index);
    }
  }

  if (stmt.select != nullptr) {
    TDP_ASSIGN_OR_RETURN(LogicalNodePtr source, BindSelect(*stmt.select));
    if (static_cast<int64_t>(source->schema.size()) != num_columns) {
      return Status::BindError(
          "INSERT ... SELECT arity mismatch: SELECT produces " +
          std::to_string(source->schema.size()) + " columns, " +
          target->name() + " has " + std::to_string(num_columns));
    }
    node->children.push_back(std::move(source));
  } else {
    // VALUES rows bind against an empty scope: literals, parameters and
    // scalar expressions over them — never column references.
    const Scope empty;
    for (const std::vector<ExprPtr>& row : stmt.values) {
      if (static_cast<int64_t>(row.size()) != num_columns) {
        return Status::BindError(
            "INSERT VALUES arity mismatch: row has " +
            std::to_string(row.size()) + " values, " + target->name() +
            " has " + std::to_string(num_columns) + " columns");
      }
      std::vector<BoundExprPtr> bound_row;
      for (const ExprPtr& value : row) {
        TDP_ASSIGN_OR_RETURN(BoundExprPtr bound, BindExpr(*value, empty));
        bound_row.push_back(std::move(bound));
      }
      node->rows.push_back(std::move(bound_row));
    }
  }
  node->schema = RowsAffectedSchema();
  return LogicalNodePtr(std::move(node));
}

StatusOr<LogicalNodePtr> BinderImpl::BindUpdate(const UpdateStatement& stmt) {
  TDP_ASSIGN_OR_RETURN(std::shared_ptr<Table> target,
                       catalog_.GetTable(stmt.table_name));
  TDP_ASSIGN_OR_RETURN(auto scan, BindWriteTargetScan(stmt.table_name));

  auto node = std::make_unique<UpdateNode>();
  node->table_name = stmt.table_name;
  for (const auto& [name, expr] : stmt.assignments) {
    const StatusOr<int64_t> found = target->ColumnIndex(name);
    if (!found.ok()) {
      return Status::BindError("UPDATE assigns unknown column " + name +
                               " of " + target->name());
    }
    const int64_t index = found.value();
    for (const auto& prev : node->assignments) {
      if (prev.first == index) {
        return Status::BindError("column assigned twice in UPDATE: " + name);
      }
    }
    if (ContainsAggregate(*expr)) {
      return Status::BindError("aggregates are not allowed in SET: " +
                               expr->ToString());
    }
    TDP_ASSIGN_OR_RETURN(BoundExprPtr bound, BindExpr(*expr, scan.second));
    node->assignments.emplace_back(index, std::move(bound));
  }
  if (stmt.where != nullptr) {
    if (ContainsAggregate(*stmt.where)) {
      return Status::BindError("aggregates are not allowed in WHERE");
    }
    TDP_ASSIGN_OR_RETURN(node->predicate,
                         BindExpr(*stmt.where, scan.second));
  }
  node->children.push_back(std::move(scan.first));
  node->schema = RowsAffectedSchema();
  return LogicalNodePtr(std::move(node));
}

StatusOr<LogicalNodePtr> BinderImpl::BindDelete(const DeleteStatement& stmt) {
  TDP_ASSIGN_OR_RETURN(auto scan, BindWriteTargetScan(stmt.table_name));
  auto node = std::make_unique<DeleteNode>();
  node->table_name = stmt.table_name;
  if (stmt.where != nullptr) {
    if (ContainsAggregate(*stmt.where)) {
      return Status::BindError("aggregates are not allowed in WHERE");
    }
    TDP_ASSIGN_OR_RETURN(node->predicate,
                         BindExpr(*stmt.where, scan.second));
  }
  node->children.push_back(std::move(scan.first));
  node->schema = RowsAffectedSchema();
  return LogicalNodePtr(std::move(node));
}

StatusOr<LogicalNodePtr> BinderImpl::BindStatement(const Statement& stmt) {
  switch (stmt.kind) {
    case StatementKind::kSelect:
      return BindSelect(static_cast<const SelectStatement&>(stmt));
    case StatementKind::kCreateTable:
      return BindCreateTable(static_cast<const CreateTableStatement&>(stmt));
    case StatementKind::kInsert:
      return BindInsert(static_cast<const InsertStatement&>(stmt));
    case StatementKind::kUpdate:
      return BindUpdate(static_cast<const UpdateStatement&>(stmt));
    case StatementKind::kDelete:
      return BindDelete(static_cast<const DeleteStatement&>(stmt));
  }
  return Status::Internal("unknown statement kind");
}

}  // namespace

StatusOr<plan::LogicalNodePtr> Binder::Bind(const SelectStatement& stmt) {
  BinderImpl impl(catalog_, registry_);
  return impl.BindSelect(stmt);
}

StatusOr<plan::LogicalNodePtr> Binder::Bind(const Statement& stmt) {
  BinderImpl impl(catalog_, registry_);
  return impl.BindStatement(stmt);
}

}  // namespace sql
}  // namespace tdp

#include "src/sql/ast.h"

#include <sstream>

namespace tdp {
namespace sql {

std::string LiteralExpr::ToString() const {
  switch (literal_kind) {
    case LiteralKind::kInteger:
      return std::to_string(int_value);
    case LiteralKind::kFloat: {
      std::ostringstream os;
      os << number_value;
      return os.str();
    }
    case LiteralKind::kString:
      return "'" + string_value + "'";
    case LiteralKind::kBoolean:
      return bool_value ? "TRUE" : "FALSE";
    case LiteralKind::kNull:
      return "NULL";
  }
  return "?";
}

std::string_view BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kMod:
      return "%";
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "<>";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
  }
  return "?";
}

std::string BinaryExpr::ToString() const {
  std::ostringstream os;
  os << "(" << left->ToString() << " " << BinaryOpName(op) << " "
     << right->ToString() << ")";
  return os.str();
}

std::string UnaryExpr::ToString() const {
  return op == UnaryOp::kNeg ? "(-" + operand->ToString() + ")"
                             : "(NOT " + operand->ToString() + ")";
}

std::string FunctionCallExpr::ToString() const {
  std::ostringstream os;
  os << function_name << "(";
  if (distinct) os << "DISTINCT ";
  if (is_star_arg) {
    os << "*";
  } else {
    for (size_t i = 0; i < args.size(); ++i) {
      if (i > 0) os << ", ";
      os << args[i]->ToString();
    }
  }
  os << ")";
  return os.str();
}

std::string CaseExpr::ToString() const {
  std::ostringstream os;
  os << "CASE";
  for (const auto& [when, then] : branches) {
    os << " WHEN " << when->ToString() << " THEN " << then->ToString();
  }
  if (else_expr) os << " ELSE " << else_expr->ToString();
  os << " END";
  return os.str();
}

ExprPtr CloneExpr(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kColumnRef: {
      const auto& c = static_cast<const ColumnRefExpr&>(e);
      return std::make_unique<ColumnRefExpr>(c.table_name, c.column_name);
    }
    case ExprKind::kLiteral: {
      const auto& l = static_cast<const LiteralExpr&>(e);
      auto out = std::make_unique<LiteralExpr>();
      *out = l;
      return out;
    }
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(e);
      return std::make_unique<BinaryExpr>(b.op, CloneExpr(*b.left),
                                          CloneExpr(*b.right));
    }
    case ExprKind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(e);
      return std::make_unique<UnaryExpr>(u.op, CloneExpr(*u.operand));
    }
    case ExprKind::kFunctionCall: {
      const auto& f = static_cast<const FunctionCallExpr&>(e);
      auto out = std::make_unique<FunctionCallExpr>();
      out->function_name = f.function_name;
      out->is_star_arg = f.is_star_arg;
      out->distinct = f.distinct;
      for (const auto& a : f.args) out->args.push_back(CloneExpr(*a));
      return out;
    }
    case ExprKind::kStar:
      return std::make_unique<StarExpr>();
    case ExprKind::kCase: {
      const auto& c = static_cast<const CaseExpr&>(e);
      auto out = std::make_unique<CaseExpr>();
      for (const auto& [when, then] : c.branches) {
        out->branches.emplace_back(CloneExpr(*when), CloneExpr(*then));
      }
      if (c.else_expr) out->else_expr = CloneExpr(*c.else_expr);
      return out;
    }
    case ExprKind::kParameter:
      return std::make_unique<ParameterExpr>(
          static_cast<const ParameterExpr&>(e).ordinal);
  }
  return nullptr;
}

}  // namespace sql
}  // namespace tdp

#include "src/sql/parser.h"

#include <limits>
#include <utility>

#include "src/common/string_util.h"
#include "src/sql/lexer.h"

namespace tdp {
namespace sql {
namespace {

/// Lexer numbers are doubles; casting a double >= 2^63 to int64 is UB, so
/// pathological `LIMIT 9223372036854775807` must saturate, not wrap to a
/// negative offset (which then indexed out of bounds).
int64_t SaturatingRowCount(double value) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  if (value >= static_cast<double>(kMax)) return kMax;
  if (value <= 0) return 0;
  return static_cast<int64_t>(value);
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  StatusOr<std::unique_ptr<SelectStatement>> ParseStatement() {
    TDP_ASSIGN_OR_RETURN(auto stmt, ParseSelect());
    // Optional trailing semicolon would have been rejected by the lexer;
    // just require end of input.
    if (Peek().type != TokenType::kEnd) {
      return Unexpected("end of statement");
    }
    return stmt;
  }

  /// Top-level dispatch over every statement kind the dialect supports.
  StatusOr<StatementPtr> ParseAnyStatement() {
    StatementPtr stmt;
    if (PeekKeyword("SELECT")) {
      TDP_ASSIGN_OR_RETURN(auto select, ParseSelect());
      stmt = std::move(select);
    } else if (PeekKeyword("CREATE")) {
      TDP_ASSIGN_OR_RETURN(stmt, ParseCreateTable());
    } else if (PeekKeyword("INSERT")) {
      TDP_ASSIGN_OR_RETURN(stmt, ParseInsert());
    } else if (PeekKeyword("UPDATE")) {
      TDP_ASSIGN_OR_RETURN(stmt, ParseUpdate());
    } else if (PeekKeyword("DELETE")) {
      TDP_ASSIGN_OR_RETURN(stmt, ParseDelete());
    } else {
      return Unexpected("SELECT, CREATE TABLE, INSERT, UPDATE or DELETE");
    }
    if (Peek().type != TokenType::kEnd) {
      return Unexpected("end of statement");
    }
    return stmt;
  }

 private:
  // ---- Token helpers -------------------------------------------------------

  const Token& Peek(size_t ahead = 0) const {
    const size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }
  const Token& Advance() { return tokens_[pos_++]; }

  bool MatchKeyword(const std::string& keyword) {
    if (Peek().type == TokenType::kKeyword && Peek().text == keyword) {
      Advance();
      return true;
    }
    return false;
  }

  bool PeekKeyword(const std::string& keyword, size_t ahead = 0) const {
    return Peek(ahead).type == TokenType::kKeyword &&
           Peek(ahead).text == keyword;
  }

  bool MatchOperator(const std::string& op) {
    if (Peek().type == TokenType::kOperator && Peek().text == op) {
      Advance();
      return true;
    }
    return false;
  }

  bool Match(TokenType type) {
    if (Peek().type == type) {
      Advance();
      return true;
    }
    return false;
  }

  Status ExpectKeyword(const std::string& keyword) {
    if (!MatchKeyword(keyword)) return Unexpected(keyword);
    return Status::OK();
  }

  Status Expect(TokenType type, const std::string& what) {
    if (!Match(type)) return Unexpected(what);
    return Status::OK();
  }

  Status Unexpected(const std::string& expected) const {
    return Status::ParseError("expected " + expected + " but found '" +
                              (Peek().type == TokenType::kEnd ? "<end>"
                                                              : Peek().text) +
                              "' at position " +
                              std::to_string(Peek().position));
  }

  // ---- Grammar -------------------------------------------------------------

  StatusOr<std::unique_ptr<SelectStatement>> ParseSelect() {
    TDP_RETURN_NOT_OK(ExpectKeyword("SELECT"));
    auto stmt = std::make_unique<SelectStatement>();
    if (MatchKeyword("DISTINCT")) stmt->distinct = true;

    // Select list.
    do {
      SelectItem item;
      if (Peek().type == TokenType::kStar) {
        Advance();
        item.expr = std::make_unique<StarExpr>();
      } else {
        TDP_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (MatchKeyword("AS")) {
          if (Peek().type != TokenType::kIdentifier) {
            return Unexpected("alias identifier");
          }
          item.alias = Advance().text;
        } else if (Peek().type == TokenType::kIdentifier) {
          item.alias = Advance().text;  // bare alias
        }
      }
      stmt->select_list.push_back(std::move(item));
    } while (Match(TokenType::kComma));

    if (MatchKeyword("FROM")) {
      TDP_ASSIGN_OR_RETURN(stmt->from, ParseTableRef());
    }
    if (MatchKeyword("WHERE")) {
      TDP_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    if (MatchKeyword("GROUP")) {
      TDP_RETURN_NOT_OK(ExpectKeyword("BY"));
      do {
        TDP_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        stmt->group_by.push_back(std::move(e));
      } while (Match(TokenType::kComma));
    }
    if (MatchKeyword("HAVING")) {
      TDP_ASSIGN_OR_RETURN(stmt->having, ParseExpr());
    }
    if (MatchKeyword("ORDER")) {
      TDP_RETURN_NOT_OK(ExpectKeyword("BY"));
      do {
        OrderByItem item;
        TDP_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (MatchKeyword("DESC")) {
          item.descending = true;
        } else {
          MatchKeyword("ASC");
        }
        stmt->order_by.push_back(std::move(item));
      } while (Match(TokenType::kComma));
    }
    if (MatchKeyword("LIMIT")) {
      if (Peek().type != TokenType::kNumber || !Peek().is_integer) {
        return Unexpected("integer LIMIT");
      }
      stmt->limit = SaturatingRowCount(Advance().number_value);
    }
    if (MatchKeyword("OFFSET")) {
      if (Peek().type != TokenType::kNumber || !Peek().is_integer) {
        return Unexpected("integer OFFSET");
      }
      stmt->offset = SaturatingRowCount(Advance().number_value);
    }
    return stmt;
  }

  // ---- DDL / DML -----------------------------------------------------------

  /// Reads an identifier token (table, column or type name).
  StatusOr<std::string> ParseIdentifier(const std::string& what) {
    if (Peek().type != TokenType::kIdentifier) return Unexpected(what);
    return Advance().text;
  }

  /// CREATE TABLE name (col type [, col type ...]). Type names are lexed
  /// as identifiers (see lexer kKeywords comment); TENSOR takes a
  /// parenthesized positive row width.
  StatusOr<StatementPtr> ParseCreateTable() {
    TDP_RETURN_NOT_OK(ExpectKeyword("CREATE"));
    TDP_RETURN_NOT_OK(ExpectKeyword("TABLE"));
    auto stmt = std::make_unique<CreateTableStatement>();
    TDP_ASSIGN_OR_RETURN(stmt->table_name, ParseIdentifier("table name"));
    TDP_RETURN_NOT_OK(Expect(TokenType::kLeftParen, "'('"));
    do {
      ColumnDef def;
      TDP_ASSIGN_OR_RETURN(def.name, ParseIdentifier("column name"));
      TDP_ASSIGN_OR_RETURN(std::string type_name,
                           ParseIdentifier("column type"));
      def.type_name = ToUpper(type_name);
      if (def.type_name == "TENSOR") {
        TDP_RETURN_NOT_OK(Expect(TokenType::kLeftParen, "'(' after TENSOR"));
        if (Peek().type != TokenType::kNumber || !Peek().is_integer ||
            Peek().number_value < 1) {
          return Unexpected("positive integer TENSOR width");
        }
        def.tensor_width = SaturatingRowCount(Advance().number_value);
        TDP_RETURN_NOT_OK(Expect(TokenType::kRightParen, "')'"));
      }
      stmt->columns.push_back(std::move(def));
    } while (Match(TokenType::kComma));
    TDP_RETURN_NOT_OK(Expect(TokenType::kRightParen, "')'"));
    return StatementPtr(std::move(stmt));
  }

  /// INSERT INTO name [(cols)] VALUES (expr, ...), ... | SELECT ... .
  StatusOr<StatementPtr> ParseInsert() {
    TDP_RETURN_NOT_OK(ExpectKeyword("INSERT"));
    TDP_RETURN_NOT_OK(ExpectKeyword("INTO"));
    auto stmt = std::make_unique<InsertStatement>();
    TDP_ASSIGN_OR_RETURN(stmt->table_name, ParseIdentifier("table name"));
    if (Match(TokenType::kLeftParen)) {
      do {
        TDP_ASSIGN_OR_RETURN(std::string col,
                             ParseIdentifier("column name"));
        stmt->columns.push_back(std::move(col));
      } while (Match(TokenType::kComma));
      TDP_RETURN_NOT_OK(Expect(TokenType::kRightParen, "')'"));
    }
    if (MatchKeyword("VALUES")) {
      do {
        TDP_RETURN_NOT_OK(Expect(TokenType::kLeftParen, "'('"));
        std::vector<ExprPtr> row;
        do {
          TDP_ASSIGN_OR_RETURN(ExprPtr value, ParseExpr());
          row.push_back(std::move(value));
        } while (Match(TokenType::kComma));
        TDP_RETURN_NOT_OK(Expect(TokenType::kRightParen, "')'"));
        if (!stmt->values.empty() &&
            row.size() != stmt->values.front().size()) {
          return Status::ParseError(
              "VALUES rows have inconsistent arity: row " +
              std::to_string(stmt->values.size() + 1) + " has " +
              std::to_string(row.size()) + " values, row 1 has " +
              std::to_string(stmt->values.front().size()));
        }
        stmt->values.push_back(std::move(row));
      } while (Match(TokenType::kComma));
    } else if (PeekKeyword("SELECT")) {
      TDP_ASSIGN_OR_RETURN(stmt->select, ParseSelect());
    } else {
      return Unexpected("VALUES or SELECT");
    }
    return StatementPtr(std::move(stmt));
  }

  /// UPDATE name SET col = expr [, col = expr ...] [WHERE pred].
  StatusOr<StatementPtr> ParseUpdate() {
    TDP_RETURN_NOT_OK(ExpectKeyword("UPDATE"));
    auto stmt = std::make_unique<UpdateStatement>();
    TDP_ASSIGN_OR_RETURN(stmt->table_name, ParseIdentifier("table name"));
    TDP_RETURN_NOT_OK(ExpectKeyword("SET"));
    do {
      TDP_ASSIGN_OR_RETURN(std::string col, ParseIdentifier("column name"));
      if (!MatchOperator("=")) return Unexpected("'='");
      TDP_ASSIGN_OR_RETURN(ExprPtr value, ParseExpr());
      stmt->assignments.emplace_back(std::move(col), std::move(value));
    } while (Match(TokenType::kComma));
    if (MatchKeyword("WHERE")) {
      TDP_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    return StatementPtr(std::move(stmt));
  }

  /// DELETE FROM name [WHERE pred].
  StatusOr<StatementPtr> ParseDelete() {
    TDP_RETURN_NOT_OK(ExpectKeyword("DELETE"));
    TDP_RETURN_NOT_OK(ExpectKeyword("FROM"));
    auto stmt = std::make_unique<DeleteStatement>();
    TDP_ASSIGN_OR_RETURN(stmt->table_name, ParseIdentifier("table name"));
    if (MatchKeyword("WHERE")) {
      TDP_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    return StatementPtr(std::move(stmt));
  }

  StatusOr<TableRefPtr> ParseTableRef() {
    TDP_ASSIGN_OR_RETURN(TableRefPtr left, ParseSingleTableRef());
    // JOIN chains, left-associative.
    for (;;) {
      JoinType join_type = JoinType::kInner;
      if (MatchKeyword("JOIN")) {
        join_type = JoinType::kInner;
      } else if (PeekKeyword("INNER") && PeekKeyword("JOIN", 1)) {
        Advance();
        Advance();
        join_type = JoinType::kInner;
      } else if (PeekKeyword("LEFT") && PeekKeyword("JOIN", 1)) {
        Advance();
        Advance();
        join_type = JoinType::kLeft;
      } else {
        break;
      }
      auto join = std::make_unique<JoinRef>();
      join->join_type = join_type;
      join->left = std::move(left);
      TDP_ASSIGN_OR_RETURN(join->right, ParseSingleTableRef());
      TDP_RETURN_NOT_OK(ExpectKeyword("ON"));
      TDP_ASSIGN_OR_RETURN(join->condition, ParseExpr());
      left = std::move(join);
    }
    return left;
  }

  StatusOr<TableRefPtr> ParseSingleTableRef() {
    TableRefPtr ref;
    if (Match(TokenType::kLeftParen)) {
      auto sub = std::make_unique<SubqueryRef>();
      TDP_ASSIGN_OR_RETURN(sub->subquery, ParseSelect());
      TDP_RETURN_NOT_OK(Expect(TokenType::kRightParen, "')'"));
      ref = std::move(sub);
    } else if (Peek().type == TokenType::kIdentifier &&
               Peek(1).type == TokenType::kLeftParen) {
      // Table-valued function: tvf(input_table_or_subquery [, literal...]).
      auto tvf = std::make_unique<TableFunctionRef>();
      tvf->function_name = ToLower(Advance().text);
      Advance();  // '('
      if (PeekKeyword("SELECT")) {
        auto sub = std::make_unique<SubqueryRef>();
        TDP_ASSIGN_OR_RETURN(sub->subquery, ParseSelect());
        tvf->input = std::move(sub);
      } else if (Peek().type == TokenType::kIdentifier) {
        tvf->input = std::make_unique<BaseTableRef>(Advance().text);
      } else {
        return Unexpected("input table or subquery in table function");
      }
      while (Match(TokenType::kComma)) {
        TDP_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
        tvf->extra_args.push_back(std::move(arg));
      }
      TDP_RETURN_NOT_OK(Expect(TokenType::kRightParen, "')'"));
      ref = std::move(tvf);
    } else if (Peek().type == TokenType::kIdentifier) {
      ref = std::make_unique<BaseTableRef>(Advance().text);
    } else {
      return Unexpected("table reference");
    }

    if (MatchKeyword("AS")) {
      if (Peek().type != TokenType::kIdentifier) {
        return Unexpected("table alias");
      }
      ref->alias = Advance().text;
    } else if (Peek().type == TokenType::kIdentifier) {
      ref->alias = Advance().text;
    }
    return ref;
  }

  // ---- Expressions (precedence climbing) -----------------------------------

  StatusOr<ExprPtr> ParseExpr() { return ParseOr(); }

  StatusOr<ExprPtr> ParseOr() {
    TDP_ASSIGN_OR_RETURN(ExprPtr left, ParseAnd());
    while (MatchKeyword("OR")) {
      TDP_ASSIGN_OR_RETURN(ExprPtr right, ParseAnd());
      left = std::make_unique<BinaryExpr>(BinaryOp::kOr, std::move(left),
                                          std::move(right));
    }
    return left;
  }

  StatusOr<ExprPtr> ParseAnd() {
    TDP_ASSIGN_OR_RETURN(ExprPtr left, ParseNot());
    while (MatchKeyword("AND")) {
      TDP_ASSIGN_OR_RETURN(ExprPtr right, ParseNot());
      left = std::make_unique<BinaryExpr>(BinaryOp::kAnd, std::move(left),
                                          std::move(right));
    }
    return left;
  }

  StatusOr<ExprPtr> ParseNot() {
    if (MatchKeyword("NOT")) {
      TDP_ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
      return ExprPtr(
          std::make_unique<UnaryExpr>(UnaryOp::kNot, std::move(operand)));
    }
    return ParseComparison();
  }

  StatusOr<ExprPtr> ParseComparison() {
    TDP_ASSIGN_OR_RETURN(ExprPtr left, ParseAddSub());
    // BETWEEN lo AND hi  ->  (left >= lo AND left <= hi)
    if (MatchKeyword("BETWEEN")) {
      TDP_ASSIGN_OR_RETURN(ExprPtr lo, ParseAddSub());
      TDP_RETURN_NOT_OK(ExpectKeyword("AND"));
      TDP_ASSIGN_OR_RETURN(ExprPtr hi, ParseAddSub());
      auto left_copy = CloneForBetween(left);
      auto ge = std::make_unique<BinaryExpr>(BinaryOp::kGe, std::move(left),
                                             std::move(lo));
      auto le = std::make_unique<BinaryExpr>(
          BinaryOp::kLe, std::move(left_copy), std::move(hi));
      return ExprPtr(std::make_unique<BinaryExpr>(
          BinaryOp::kAnd, std::move(ge), std::move(le)));
    }
    // IN (v1, v2, ...) -> (left = v1 OR left = v2 ...)
    if (MatchKeyword("IN")) {
      TDP_RETURN_NOT_OK(Expect(TokenType::kLeftParen, "'('"));
      ExprPtr disjunction;
      do {
        TDP_ASSIGN_OR_RETURN(ExprPtr value, ParseAddSub());
        auto eq = std::make_unique<BinaryExpr>(
            BinaryOp::kEq, CloneForBetween(left), std::move(value));
        if (disjunction) {
          disjunction = std::make_unique<BinaryExpr>(
              BinaryOp::kOr, std::move(disjunction), std::move(eq));
        } else {
          disjunction = std::move(eq);
        }
      } while (Match(TokenType::kComma));
      TDP_RETURN_NOT_OK(Expect(TokenType::kRightParen, "')'"));
      return disjunction;
    }
    static constexpr std::pair<const char*, BinaryOp> kCompareOps[] = {
        {"=", BinaryOp::kEq},  {"<>", BinaryOp::kNe}, {"!=", BinaryOp::kNe},
        {"<=", BinaryOp::kLe}, {">=", BinaryOp::kGe}, {"<", BinaryOp::kLt},
        {">", BinaryOp::kGt},
    };
    for (const auto& [text, op] : kCompareOps) {
      if (Peek().type == TokenType::kOperator && Peek().text == text) {
        Advance();
        TDP_ASSIGN_OR_RETURN(ExprPtr right, ParseAddSub());
        return ExprPtr(std::make_unique<BinaryExpr>(op, std::move(left),
                                                    std::move(right)));
      }
    }
    return left;
  }

  StatusOr<ExprPtr> ParseAddSub() {
    TDP_ASSIGN_OR_RETURN(ExprPtr left, ParseMulDiv());
    for (;;) {
      BinaryOp op;
      if (MatchOperator("+")) {
        op = BinaryOp::kAdd;
      } else if (MatchOperator("-")) {
        op = BinaryOp::kSub;
      } else {
        return left;
      }
      TDP_ASSIGN_OR_RETURN(ExprPtr right, ParseMulDiv());
      left = std::make_unique<BinaryExpr>(op, std::move(left),
                                          std::move(right));
    }
  }

  StatusOr<ExprPtr> ParseMulDiv() {
    TDP_ASSIGN_OR_RETURN(ExprPtr left, ParseUnary());
    for (;;) {
      BinaryOp op;
      if (Peek().type == TokenType::kStar) {
        Advance();
        op = BinaryOp::kMul;
      } else if (MatchOperator("/")) {
        op = BinaryOp::kDiv;
      } else if (MatchOperator("%")) {
        op = BinaryOp::kMod;
      } else {
        return left;
      }
      TDP_ASSIGN_OR_RETURN(ExprPtr right, ParseUnary());
      left = std::make_unique<BinaryExpr>(op, std::move(left),
                                          std::move(right));
    }
  }

  StatusOr<ExprPtr> ParseUnary() {
    if (MatchOperator("-")) {
      TDP_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      return ExprPtr(
          std::make_unique<UnaryExpr>(UnaryOp::kNeg, std::move(operand)));
    }
    if (MatchOperator("+")) {
      return ParseUnary();
    }
    return ParsePrimary();
  }

  StatusOr<ExprPtr> ParsePrimary() {
    const Token& token = Peek();
    switch (token.type) {
      case TokenType::kNumber: {
        Advance();
        auto lit = std::make_unique<LiteralExpr>();
        lit->literal_kind =
            token.is_integer ? LiteralKind::kInteger : LiteralKind::kFloat;
        lit->number_value = token.number_value;
        lit->int_value = token.int_value;
        return ExprPtr(std::move(lit));
      }
      case TokenType::kString: {
        Advance();
        auto lit = std::make_unique<LiteralExpr>();
        lit->literal_kind = LiteralKind::kString;
        lit->string_value = token.text;
        return ExprPtr(std::move(lit));
      }
      case TokenType::kParameter: {
        Advance();
        return ExprPtr(std::make_unique<ParameterExpr>(num_parameters_++));
      }
      case TokenType::kLeftParen: {
        Advance();
        TDP_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
        TDP_RETURN_NOT_OK(Expect(TokenType::kRightParen, "')'"));
        return inner;
      }
      case TokenType::kKeyword: {
        if (token.text == "TRUE" || token.text == "FALSE") {
          Advance();
          auto lit = std::make_unique<LiteralExpr>();
          lit->literal_kind = LiteralKind::kBoolean;
          lit->bool_value = token.text == "TRUE";
          return ExprPtr(std::move(lit));
        }
        if (token.text == "NULL") {
          Advance();
          auto lit = std::make_unique<LiteralExpr>();
          lit->literal_kind = LiteralKind::kNull;
          return ExprPtr(std::move(lit));
        }
        if (token.text == "CASE") return ParseCase();
        // Aggregate keywords used as function names.
        if (token.text == "COUNT" || token.text == "SUM" ||
            token.text == "AVG" || token.text == "MIN" ||
            token.text == "MAX") {
          return ParseFunctionCall(ToLower(Advance().text));
        }
        return Unexpected("expression");
      }
      case TokenType::kIdentifier: {
        // function call, qualified column, or bare column
        if (Peek(1).type == TokenType::kLeftParen) {
          return ParseFunctionCall(ToLower(Advance().text));
        }
        std::string first = Advance().text;
        if (Match(TokenType::kDot)) {
          if (Peek().type != TokenType::kIdentifier) {
            return Unexpected("column name after '.'");
          }
          std::string column = Advance().text;
          return ExprPtr(std::make_unique<ColumnRefExpr>(std::move(first),
                                                         std::move(column)));
        }
        return ExprPtr(std::make_unique<ColumnRefExpr>("", std::move(first)));
      }
      default:
        return Unexpected("expression");
    }
  }

  StatusOr<ExprPtr> ParseFunctionCall(std::string name) {
    TDP_RETURN_NOT_OK(Expect(TokenType::kLeftParen, "'('"));
    auto call = std::make_unique<FunctionCallExpr>();
    call->function_name = std::move(name);
    if (MatchKeyword("DISTINCT")) call->distinct = true;
    if (Peek().type == TokenType::kStar) {
      Advance();
      call->is_star_arg = true;
    } else if (Peek().type != TokenType::kRightParen) {
      do {
        TDP_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
        call->args.push_back(std::move(arg));
      } while (Match(TokenType::kComma));
    }
    TDP_RETURN_NOT_OK(Expect(TokenType::kRightParen, "')'"));
    return ExprPtr(std::move(call));
  }

  StatusOr<ExprPtr> ParseCase() {
    TDP_RETURN_NOT_OK(ExpectKeyword("CASE"));
    auto kase = std::make_unique<CaseExpr>();
    while (MatchKeyword("WHEN")) {
      TDP_ASSIGN_OR_RETURN(ExprPtr when, ParseExpr());
      TDP_RETURN_NOT_OK(ExpectKeyword("THEN"));
      TDP_ASSIGN_OR_RETURN(ExprPtr then, ParseExpr());
      kase->branches.emplace_back(std::move(when), std::move(then));
    }
    if (kase->branches.empty()) return Unexpected("WHEN");
    if (MatchKeyword("ELSE")) {
      TDP_ASSIGN_OR_RETURN(kase->else_expr, ParseExpr());
    }
    TDP_RETURN_NOT_OK(ExpectKeyword("END"));
    return ExprPtr(std::move(kase));
  }

  // BETWEEN/IN need the left operand twice; deep-clone via re-parse is
  // overkill, so clone structurally.
  static ExprPtr CloneForBetween(const ExprPtr& e);

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  // '?' placeholders are numbered left-to-right across the whole statement
  // (including subqueries), matching the order of values passed to Run().
  int64_t num_parameters_ = 0;
};

ExprPtr Parser::CloneForBetween(const ExprPtr& e) { return CloneExpr(*e); }

}  // namespace

StatusOr<std::unique_ptr<SelectStatement>> Parse(const std::string& sql) {
  TDP_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

StatusOr<StatementPtr> ParseStatement(const std::string& sql) {
  TDP_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseAnyStatement();
}

}  // namespace sql
}  // namespace tdp

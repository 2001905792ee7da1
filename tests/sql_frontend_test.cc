#include <gtest/gtest.h>

#include "src/sql/lexer.h"
#include "src/sql/parser.h"

namespace tdp {
namespace sql {
namespace {

TEST(LexerTest, BasicTokens) {
  auto tokens = Tokenize("SELECT a, b FROM t WHERE x >= 1.5");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 11u);  // incl. kEnd
  EXPECT_EQ((*tokens)[0].type, TokenType::kKeyword);
  EXPECT_EQ((*tokens)[0].text, "SELECT");
  EXPECT_EQ((*tokens)[1].type, TokenType::kIdentifier);
  EXPECT_EQ((*tokens)[8].type, TokenType::kOperator);
  EXPECT_EQ((*tokens)[8].text, ">=");
  EXPECT_EQ((*tokens)[9].type, TokenType::kNumber);
  EXPECT_FALSE((*tokens)[9].is_integer);
  EXPECT_DOUBLE_EQ((*tokens)[9].number_value, 1.5);
}

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  auto tokens = Tokenize("select From wHeRe");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "SELECT");
  EXPECT_EQ((*tokens)[1].text, "FROM");
  EXPECT_EQ((*tokens)[2].text, "WHERE");
}

TEST(LexerTest, StringsBothQuoteStyles) {
  auto tokens = Tokenize("'single' \"double\"");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kString);
  EXPECT_EQ((*tokens)[0].text, "single");
  EXPECT_EQ((*tokens)[1].text, "double");
}

TEST(LexerTest, CommentsAndNumbers) {
  auto tokens = Tokenize("1 -- a comment\n2.5e3 .5");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].number_value, 1.0);
  EXPECT_TRUE((*tokens)[0].is_integer);
  EXPECT_DOUBLE_EQ((*tokens)[1].number_value, 2500.0);
  EXPECT_DOUBLE_EQ((*tokens)[2].number_value, 0.5);
}

TEST(LexerTest, IntegerLiteralsAreExact) {
  // 2^53+1 has no double; the literal keeps its exact int64 value, and an
  // integer beyond int64 saturates instead of overflowing.
  auto tokens =
      Tokenize("9007199254740993 9223372036854775807 99999999999999999999");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].int_value, 9007199254740993LL);
  EXPECT_EQ((*tokens)[1].int_value, 9223372036854775807LL);
  EXPECT_TRUE((*tokens)[2].is_integer);
  EXPECT_EQ((*tokens)[2].int_value, 9223372036854775807LL);
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Tokenize("SELECT 'unterminated").ok());
  EXPECT_FALSE(Tokenize("SELECT a ! b").ok());
  EXPECT_FALSE(Tokenize("SELECT a # b").ok());
}

TEST(ParserTest, SimpleSelect) {
  auto stmt = Parse("SELECT a, b + 1 AS c FROM t");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ((*stmt)->select_list.size(), 2u);
  EXPECT_EQ((*stmt)->select_list[1].alias, "c");
  ASSERT_NE((*stmt)->from, nullptr);
  EXPECT_EQ((*stmt)->from->kind, TableRefKind::kBaseTable);
}

TEST(ParserTest, OperatorPrecedence) {
  auto stmt = Parse("SELECT 1 + 2 * 3");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ((*stmt)->select_list[0].expr->ToString(), "(1 + (2 * 3))");

  auto cmp = Parse("SELECT a FROM t WHERE x + 1 > 2 AND y < 3 OR z = 4");
  ASSERT_TRUE(cmp.ok());
  EXPECT_EQ((*cmp)->where->ToString(),
            "((((x + 1) > 2) AND (y < 3)) OR (z = 4))");
}

TEST(ParserTest, BetweenAndInDesugar) {
  auto stmt = Parse("SELECT a FROM t WHERE x BETWEEN 1 AND 3");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ((*stmt)->where->ToString(), "((x >= 1) AND (x <= 3))");

  auto in = Parse("SELECT a FROM t WHERE x IN (1, 2)");
  ASSERT_TRUE(in.ok());
  EXPECT_EQ((*in)->where->ToString(), "((x = 1) OR (x = 2))");
}

TEST(ParserTest, FullClauseSet) {
  auto stmt = Parse(
      "SELECT region, COUNT(*) AS n FROM sales WHERE amount > 10 GROUP BY "
      "region HAVING COUNT(*) > 1 ORDER BY n DESC, region ASC LIMIT 5 "
      "OFFSET 2");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ((*stmt)->group_by.size(), 1u);
  ASSERT_NE((*stmt)->having, nullptr);
  EXPECT_EQ((*stmt)->order_by.size(), 2u);
  EXPECT_TRUE((*stmt)->order_by[0].descending);
  EXPECT_FALSE((*stmt)->order_by[1].descending);
  EXPECT_EQ((*stmt)->limit.value(), 5);
  EXPECT_EQ((*stmt)->offset.value(), 2);
}

TEST(ParserTest, JoinChain) {
  auto stmt = Parse(
      "SELECT * FROM a JOIN b ON a.x = b.x INNER JOIN c ON b.y = c.y");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ((*stmt)->from->kind, TableRefKind::kJoin);
  const auto& outer = static_cast<const JoinRef&>(*(*stmt)->from);
  EXPECT_EQ(outer.left->kind, TableRefKind::kJoin);
  EXPECT_EQ(outer.right->kind, TableRefKind::kBaseTable);
}

TEST(ParserTest, TvfWithTableAndSubqueryInput) {
  auto simple = Parse("SELECT d FROM parse_mnist_grid(MNIST_Grid)");
  ASSERT_TRUE(simple.ok());
  const auto& tvf =
      static_cast<const TableFunctionRef&>(*(*simple)->from);
  EXPECT_EQ(tvf.function_name, "parse_mnist_grid");
  EXPECT_EQ(tvf.input->kind, TableRefKind::kBaseTable);

  // The paper's OCR query shape (Listing 8, TDP dialect).
  auto nested = Parse(
      "SELECT AVG(SepalLength) FROM extract_table(SELECT images FROM "
      "Document WHERE timestamp = '2022:08:10')");
  ASSERT_TRUE(nested.ok()) << nested.status().ToString();
  const auto& tvf2 =
      static_cast<const TableFunctionRef&>(*(*nested)->from);
  EXPECT_EQ(tvf2.input->kind, TableRefKind::kSubquery);
}

TEST(ParserTest, CaseExpression) {
  auto stmt = Parse(
      "SELECT CASE WHEN x > 0 THEN 'pos' WHEN x < 0 THEN 'neg' ELSE 'zero' "
      "END FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ((*stmt)->select_list[0].expr->kind, ExprKind::kCase);
}

TEST(ParserTest, CountDistinctAndStar) {
  auto stmt = Parse("SELECT COUNT(*), COUNT(DISTINCT x) FROM t");
  ASSERT_TRUE(stmt.ok());
  const auto& star =
      static_cast<const FunctionCallExpr&>(*(*stmt)->select_list[0].expr);
  EXPECT_TRUE(star.is_star_arg);
  const auto& distinct =
      static_cast<const FunctionCallExpr&>(*(*stmt)->select_list[1].expr);
  EXPECT_TRUE(distinct.distinct);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(Parse("").ok());
  EXPECT_FALSE(Parse("SELECT").ok());
  EXPECT_FALSE(Parse("SELECT a FROM").ok());
  EXPECT_FALSE(Parse("SELECT a FROM t WHERE").ok());
  EXPECT_FALSE(Parse("SELECT a FROM t GROUP").ok());
  EXPECT_FALSE(Parse("SELECT a FROM t LIMIT x").ok());
  EXPECT_FALSE(Parse("SELECT a FROM t extra garbage +").ok());
  EXPECT_FALSE(Parse("SELECT a FROM t JOIN u").ok());  // missing ON
  EXPECT_FALSE(Parse("SELECT (a FROM t").ok());
}

TEST(ParserTest, CloneExprDeepCopies) {
  auto stmt = Parse("SELECT a + b * 2 FROM t");
  ASSERT_TRUE(stmt.ok());
  const Expr& original = *(*stmt)->select_list[0].expr;
  ExprPtr copy = CloneExpr(original);
  EXPECT_EQ(copy->ToString(), original.ToString());
  EXPECT_NE(copy.get(), &original);
}

TEST(LexerTest, QuestionMarkIsAParameterToken) {
  auto tokens = Tokenize("WHERE x = ?");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[3].type, TokenType::kParameter);
  EXPECT_EQ((*tokens)[3].text, "?");
}

TEST(ParserTest, ParametersNumberedLeftToRight) {
  auto stmt = Parse("SELECT ? + a FROM t WHERE a > ? AND b < ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto& select = static_cast<const BinaryExpr&>(
      *(*stmt)->select_list[0].expr);
  ASSERT_EQ(select.left->kind, ExprKind::kParameter);
  EXPECT_EQ(static_cast<const ParameterExpr&>(*select.left).ordinal, 0);
  // WHERE is (a > ?#1) AND (b < ?#2).
  const auto& where = static_cast<const BinaryExpr&>(*(*stmt)->where);
  const auto& gt = static_cast<const BinaryExpr&>(*where.left);
  const auto& lt = static_cast<const BinaryExpr&>(*where.right);
  ASSERT_EQ(gt.right->kind, ExprKind::kParameter);
  ASSERT_EQ(lt.right->kind, ExprKind::kParameter);
  EXPECT_EQ(static_cast<const ParameterExpr&>(*gt.right).ordinal, 1);
  EXPECT_EQ(static_cast<const ParameterExpr&>(*lt.right).ordinal, 2);
  EXPECT_EQ((*stmt)->where->ToString(), "((a > ?) AND (b < ?))");
}

TEST(ParserTest, BetweenWithParameterReusesOrdinalInDesugaredClone) {
  // `x BETWEEN ? AND 5` desugars to (x >= ?) AND (x <= 5); the clone of
  // the left side must not mint a fresh ordinal.
  auto stmt = Parse("SELECT a FROM t WHERE ? BETWEEN a AND b");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto& conj = static_cast<const BinaryExpr&>(*(*stmt)->where);
  const auto& ge = static_cast<const BinaryExpr&>(*conj.left);
  const auto& le = static_cast<const BinaryExpr&>(*conj.right);
  ASSERT_EQ(ge.left->kind, ExprKind::kParameter);
  ASSERT_EQ(le.left->kind, ExprKind::kParameter);
  EXPECT_EQ(static_cast<const ParameterExpr&>(*ge.left).ordinal, 0);
  EXPECT_EQ(static_cast<const ParameterExpr&>(*le.left).ordinal, 0);
}

}  // namespace
}  // namespace sql
}  // namespace tdp

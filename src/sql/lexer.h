#ifndef TDP_SQL_LEXER_H_
#define TDP_SQL_LEXER_H_

#include <string>
#include <vector>

#include "src/common/statusor.h"

namespace tdp {
namespace sql {

enum class TokenType {
  kIdentifier,   // table / column / function names (case-insensitive)
  kKeyword,      // SELECT, FROM, ... (normalized uppercase in `text`)
  kNumber,       // integer or decimal literal
  kString,       // 'quoted' or "quoted" literal (quotes stripped)
  kOperator,     // + - * / % = <> != < <= > >= ||
  kComma,
  kDot,
  kLeftParen,
  kRightParen,
  kStar,         // '*' when used as SELECT *; otherwise kOperator
  kParameter,    // '?' prepared-statement placeholder
  kEnd,
};

struct Token {
  TokenType type;
  std::string text;
  double number_value = 0.0;    // kNumber only
  bool is_integer = false;      // kNumber only
  /// Exact value of an integer literal (saturated at INT64_MAX).
  int64_t int_value = 0;
  size_t position = 0;          // byte offset for error messages
};

/// True if `word` (any case) is a reserved SQL keyword.
bool IsKeyword(const std::string& word);

/// Tokenizes `sql`; returns ParseError with position info on bad input.
/// The final token is always kEnd.
StatusOr<std::vector<Token>> Tokenize(const std::string& sql);

}  // namespace sql
}  // namespace tdp

#endif  // TDP_SQL_LEXER_H_

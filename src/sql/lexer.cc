#include "src/sql/lexer.h"

#include <array>
#include <cctype>
#include <charconv>
#include <limits>

#include "src/common/string_util.h"

namespace tdp {
namespace sql {
namespace {

constexpr std::array kKeywords = {
    "SELECT", "FROM",  "WHERE",  "GROUP",  "BY",     "HAVING", "ORDER",
    "LIMIT",  "AS",    "AND",    "OR",     "NOT",    "ASC",    "DESC",
    "JOIN",   "INNER", "LEFT",   "ON",     "COUNT",  "SUM",    "AVG",
    "MIN",    "MAX",   "DISTINCT", "BETWEEN", "IN",  "IS",     "NULL",
    "TRUE",   "FALSE", "CAST",   "CASE",   "WHEN",   "THEN",   "ELSE",
    "END",    "LIKE",  "OFFSET", "UNION",  "ALL",
    // DML / DDL. Type names (INT, TEXT, TENSOR, ...) are deliberately NOT
    // keywords: they only appear in CREATE TABLE column positions, where
    // the parser reads them as identifiers — so columns named `text` or
    // `double` keep working everywhere else.
    "CREATE", "TABLE", "INSERT", "INTO",   "VALUES", "UPDATE", "SET",
    "DELETE",
};

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

bool IsKeyword(const std::string& word) {
  const std::string upper = ToUpper(word);
  for (const char* k : kKeywords) {
    if (upper == k) return true;
  }
  return false;
}

StatusOr<std::vector<Token>> Tokenize(const std::string& sql) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = sql.size();
  while (i < n) {
    const char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // -- line comments
    if (c == '-' && i + 1 < n && sql[i + 1] == '-') {
      while (i < n && sql[i] != '\n') ++i;
      continue;
    }
    Token token;
    token.position = i;
    if (IsIdentStart(c)) {
      size_t j = i;
      while (j < n && IsIdentChar(sql[j])) ++j;
      const std::string word = sql.substr(i, j - i);
      if (IsKeyword(word)) {
        token.type = TokenType::kKeyword;
        token.text = ToUpper(word);
      } else {
        token.type = TokenType::kIdentifier;
        token.text = word;
      }
      i = j;
    } else if (std::isdigit(static_cast<unsigned char>(c)) ||
               (c == '.' && i + 1 < n &&
                std::isdigit(static_cast<unsigned char>(sql[i + 1])))) {
      size_t j = i;
      bool has_dot = false;
      bool has_exp = false;
      while (j < n) {
        const char d = sql[j];
        if (std::isdigit(static_cast<unsigned char>(d))) {
          ++j;
        } else if (d == '.' && !has_dot && !has_exp) {
          has_dot = true;
          ++j;
        } else if ((d == 'e' || d == 'E') && !has_exp && j > i) {
          has_exp = true;
          ++j;
          if (j < n && (sql[j] == '+' || sql[j] == '-')) ++j;
        } else {
          break;
        }
      }
      token.type = TokenType::kNumber;
      token.text = sql.substr(i, j - i);
      token.number_value = std::stod(token.text);
      token.is_integer = !has_dot && !has_exp;
      if (token.is_integer &&
          std::from_chars(token.text.data(),
                          token.text.data() + token.text.size(),
                          token.int_value)
                  .ec != std::errc()) {
        token.int_value = std::numeric_limits<int64_t>::max();
      }
      i = j;
    } else if (c == '\'' || c == '"') {
      const char quote = c;
      size_t j = i + 1;
      std::string value;
      while (j < n && sql[j] != quote) {
        value += sql[j];
        ++j;
      }
      if (j >= n) {
        return Status::ParseError("unterminated string literal at position " +
                                  std::to_string(i));
      }
      token.type = TokenType::kString;
      token.text = value;
      i = j + 1;
    } else {
      switch (c) {
        case ',':
          token.type = TokenType::kComma;
          token.text = ",";
          ++i;
          break;
        case '.':
          token.type = TokenType::kDot;
          token.text = ".";
          ++i;
          break;
        case '(':
          token.type = TokenType::kLeftParen;
          token.text = "(";
          ++i;
          break;
        case ')':
          token.type = TokenType::kRightParen;
          token.text = ")";
          ++i;
          break;
        case '*':
          token.type = TokenType::kStar;
          token.text = "*";
          ++i;
          break;
        case '?':
          token.type = TokenType::kParameter;
          token.text = "?";
          ++i;
          break;
        case '+':
        case '-':
        case '/':
        case '%':
        case '=':
          token.type = TokenType::kOperator;
          token.text = std::string(1, c);
          ++i;
          break;
        case '<':
          token.type = TokenType::kOperator;
          if (i + 1 < n && sql[i + 1] == '=') {
            token.text = "<=";
            i += 2;
          } else if (i + 1 < n && sql[i + 1] == '>') {
            token.text = "<>";
            i += 2;
          } else {
            token.text = "<";
            ++i;
          }
          break;
        case '>':
          token.type = TokenType::kOperator;
          if (i + 1 < n && sql[i + 1] == '=') {
            token.text = ">=";
            i += 2;
          } else {
            token.text = ">";
            ++i;
          }
          break;
        case '!':
          if (i + 1 < n && sql[i + 1] == '=') {
            token.type = TokenType::kOperator;
            token.text = "!=";
            i += 2;
          } else {
            return Status::ParseError("unexpected '!' at position " +
                                      std::to_string(i));
          }
          break;
        default:
          return Status::ParseError(std::string("unexpected character '") +
                                    c + "' at position " + std::to_string(i));
      }
    }
    tokens.push_back(std::move(token));
  }
  Token end;
  end.type = TokenType::kEnd;
  end.position = n;
  tokens.push_back(end);
  return tokens;
}

}  // namespace sql
}  // namespace tdp

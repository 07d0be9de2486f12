#include "behavior/lexer.h"

#include <string_view>
#include <utility>

namespace eblocks::behavior {

const char* toString(TokenKind k) {
  switch (k) {
    case TokenKind::kEnd: return "<end>";
    case TokenKind::kIdent: return "identifier";
    case TokenKind::kIntLit: return "integer";
    case TokenKind::kKwVar: return "'var'";
    case TokenKind::kKwIf: return "'if'";
    case TokenKind::kKwElse: return "'else'";
    case TokenKind::kKwTrue: return "'true'";
    case TokenKind::kKwFalse: return "'false'";
    case TokenKind::kLParen: return "'('";
    case TokenKind::kRParen: return "')'";
    case TokenKind::kLBrace: return "'{'";
    case TokenKind::kRBrace: return "'}'";
    case TokenKind::kSemicolon: return "';'";
    case TokenKind::kAssign: return "'='";
    case TokenKind::kEq: return "'=='";
    case TokenKind::kNe: return "'!='";
    case TokenKind::kLt: return "'<'";
    case TokenKind::kLe: return "'<='";
    case TokenKind::kGt: return "'>'";
    case TokenKind::kGe: return "'>='";
    case TokenKind::kPlus: return "'+'";
    case TokenKind::kMinus: return "'-'";
    case TokenKind::kStar: return "'*'";
    case TokenKind::kSlash: return "'/'";
    case TokenKind::kPercent: return "'%'";
    case TokenKind::kAndAnd: return "'&&'";
    case TokenKind::kOrOr: return "'||'";
    case TokenKind::kBang: return "'!'";
  }
  return "?";
}

LexError::LexError(const std::string& what, int line, int column)
    : std::runtime_error("lex error at " + std::to_string(line) + ":" +
                         std::to_string(column) + ": " + what),
      line_(line),
      column_(column) {}

namespace {

bool isDigit(char c) { return c >= '0' && c <= '9'; }

bool isIdentStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}

bool isIdentChar(char c) { return isIdentStart(c) || isDigit(c); }

TokenKind wordKind(std::string_view word) {
  if (word == "var") return TokenKind::kKwVar;
  if (word == "if") return TokenKind::kKwIf;
  if (word == "else") return TokenKind::kKwElse;
  if (word == "true") return TokenKind::kKwTrue;
  if (word == "false") return TokenKind::kKwFalse;
  return TokenKind::kIdent;
}

}  // namespace

Token Lexer::next() {
  // Whitespace and comments.
  while (i_ < src_.size()) {
    const char c = src_[i_];
    const bool comment =
        c == '#' || (c == '/' && i_ + 1 < src_.size() && src_[i_ + 1] == '/');
    if (comment) {
      while (i_ < src_.size() && src_[i_] != '\n') {
        ++i_;
        ++col_;
      }
    } else if (c == '\n') {
      ++i_;
      ++line_;
      col_ = 1;
    } else if (c == ' ' || c == '\t' || c == '\r') {
      ++i_;
      ++col_;
    } else {
      break;
    }
  }

  Token t;
  t.line = line_;
  t.column = col_;
  // Tokens never span a newline, so taking one only moves the column.
  const auto take = [&](TokenKind kind, std::size_t len) {
    t.kind = kind;
    if (kind == TokenKind::kIdent) t.text.assign(src_.data() + i_, len);
    i_ += len;
    col_ += static_cast<int>(len);
    return std::move(t);
  };
  if (i_ == src_.size()) return take(TokenKind::kEnd, 0);

  const char c = src_[i_];
  if (isDigit(c)) {
    std::size_t len = 0;
    std::int64_t v = 0;
    while (i_ + len < src_.size() && isDigit(src_[i_ + len])) {
      v = v * 10 + (src_[i_ + len] - '0');
      if (v > 0x7fffffff)
        throw LexError("integer literal too large", line_, col_);
      ++len;
    }
    t.intValue = v;
    return take(TokenKind::kIntLit, len);
  }
  if (isIdentStart(c)) {
    std::size_t len = 1;
    while (i_ + len < src_.size() && isIdentChar(src_[i_ + len])) ++len;
    return take(wordKind(src_.substr(i_, len)), len);
  }
  const auto two = [&](char a, char b) {
    return c == a && i_ + 1 < src_.size() && src_[i_ + 1] == b;
  };
  if (two('=', '=')) return take(TokenKind::kEq, 2);
  if (two('!', '=')) return take(TokenKind::kNe, 2);
  if (two('<', '=')) return take(TokenKind::kLe, 2);
  if (two('>', '=')) return take(TokenKind::kGe, 2);
  if (two('&', '&')) return take(TokenKind::kAndAnd, 2);
  if (two('|', '|')) return take(TokenKind::kOrOr, 2);
  switch (c) {
    case '(': return take(TokenKind::kLParen, 1);
    case ')': return take(TokenKind::kRParen, 1);
    case '{': return take(TokenKind::kLBrace, 1);
    case '}': return take(TokenKind::kRBrace, 1);
    case ';': return take(TokenKind::kSemicolon, 1);
    case '=': return take(TokenKind::kAssign, 1);
    case '<': return take(TokenKind::kLt, 1);
    case '>': return take(TokenKind::kGt, 1);
    case '+': return take(TokenKind::kPlus, 1);
    case '-': return take(TokenKind::kMinus, 1);
    case '*': return take(TokenKind::kStar, 1);
    case '/': return take(TokenKind::kSlash, 1);
    case '%': return take(TokenKind::kPercent, 1);
    case '!': return take(TokenKind::kBang, 1);
    default:
      throw LexError(std::string("unexpected character '") + c + "'", line_,
                     col_);
  }
}

std::vector<Token> lex(std::string_view src) {
  std::vector<Token> out;
  Lexer lexer(src);
  do {
    out.push_back(lexer.next());
  } while (out.back().kind != TokenKind::kEnd);
  return out;
}

}  // namespace eblocks::behavior

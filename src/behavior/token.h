// Tokens of the block-behavior DSL.
//
// The paper describes block behaviors "defined in a Java-like language that
// is automatically transformed to a syntax tree" (Section 3.3).  Our DSL is
// a small imperative language: persistent variable declarations, integer
// expressions, assignments, and if/else — enough to express every catalog
// block and every merged programmable-block program.
#ifndef EBLOCKS_BEHAVIOR_TOKEN_H_
#define EBLOCKS_BEHAVIOR_TOKEN_H_

#include <cstdint>
#include <string>

namespace eblocks::behavior {

enum class TokenKind : std::uint8_t {
  kEnd,        // end of input
  kIdent,      // names: inputs, outputs, state variables
  kIntLit,     // decimal integer literal
  kKwVar,      // 'var'
  kKwIf,       // 'if'
  kKwElse,     // 'else'
  kKwTrue,     // 'true'
  kKwFalse,    // 'false'
  kLParen, kRParen, kLBrace, kRBrace, kSemicolon,
  kAssign,     // =
  kEq, kNe, kLt, kLe, kGt, kGe,
  kPlus, kMinus, kStar, kSlash, kPercent,
  kAndAnd, kOrOr, kBang,
};

const char* toString(TokenKind k);

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;          // identifier spelling (kIdent only)
  std::int64_t intValue = 0; // for kIntLit
  int line = 1;              // 1-based source position, for diagnostics
  int column = 1;
};

}  // namespace eblocks::behavior

#endif  // EBLOCKS_BEHAVIOR_TOKEN_H_

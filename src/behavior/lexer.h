// Hand-written lexer for the behavior DSL.
#ifndef EBLOCKS_BEHAVIOR_LEXER_H_
#define EBLOCKS_BEHAVIOR_LEXER_H_

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "behavior/token.h"

namespace eblocks::behavior {

/// Thrown on malformed source (unknown character, bad literal).
class LexError : public std::runtime_error {
 public:
  LexError(const std::string& what, int line, int column);
  int line() const { return line_; }
  int column() const { return column_; }

 private:
  int line_, column_;
};

/// Produces the tokens of a program one at a time, so a parser holds one
/// token at a time rather than the whole program's.  `#` and `//` start
/// comments to end of line.  At the end of input next() returns kEnd
/// tokens; malformed source throws LexError when next() reaches it.
class Lexer {
 public:
  explicit Lexer(std::string_view source) : src_(source) {}

  Token next();

 private:
  std::string_view src_;
  std::size_t i_ = 0;  ///< next unread character
  int line_ = 1;
  int col_ = 1;
};

/// Tokenizes a full program; the last token is kEnd.
std::vector<Token> lex(std::string_view source);

}  // namespace eblocks::behavior

#endif  // EBLOCKS_BEHAVIOR_LEXER_H_

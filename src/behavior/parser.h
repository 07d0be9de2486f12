// Recursive-descent parser for the behavior DSL.
//
// Grammar (C-like precedence):
//   program   := stmt*
//   stmt      := 'var' IDENT '=' expr ';'
//              | IDENT '=' expr ';'
//              | 'if' '(' expr ')' block ('else' (block | if-stmt))?
//   block     := '{' stmt* '}'
//   expr      := or
//   or        := and ('||' and)*
//   and       := equality ('&&' equality)*
//   equality  := rel (('=='|'!=') rel)*
//   rel       := add (('<'|'<='|'>'|'>=') add)*
//   add       := mul (('+'|'-') mul)*
//   mul       := unary (('*'|'/'|'%') unary)*
//   unary     := ('!'|'-') unary | primary
//   primary   := INT | 'true' | 'false' | IDENT | '(' expr ')'
//
// Nesting is bounded so that no input, however hostile, can exhaust the
// stack of the parser or of the recursive walkers that run over its
// trees (printer, rename, interpreter, code generator, destructor).  Two
// limits of kMaxNesting levels each apply:
//   - tree depth: every `if` body (an `else if` is nested in the else
//     body) and every operator (unary or binary) puts what it contains
//     one level deeper; a left-associative chain `a + b + c` is two
//     levels, as the tree it builds is;
//   - parentheses: every '(' opens one level.
// Parentheses are counted apart because they build no tree node; the
// printer parenthesizes only compound operands, so any program that
// parses prints to text that parses back to the same tree.
#ifndef EBLOCKS_BEHAVIOR_PARSER_H_
#define EBLOCKS_BEHAVIOR_PARSER_H_

#include <stdexcept>
#include <string>
#include <string_view>

#include "behavior/ast.h"

namespace eblocks::behavior {

/// Thrown on syntactically invalid programs.
class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& what, int line, int column);
  int line() const { return line_; }
  int column() const { return column_; }

 private:
  int line_, column_;
};

/// Deepest nesting a program may have, per limit (see above).
inline constexpr int kMaxNesting = 256;

/// Parses a full behavior program.  Throws LexError / ParseError, also
/// when the program nests deeper than kMaxNesting.
Program parse(std::string_view source);

/// Parses a single expression (useful in tests).
ExprPtr parseExpression(std::string_view source);

}  // namespace eblocks::behavior

#endif  // EBLOCKS_BEHAVIOR_PARSER_H_

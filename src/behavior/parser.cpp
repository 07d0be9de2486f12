#include "behavior/parser.h"

#include <algorithm>
#include <utility>

#include "behavior/lexer.h"

namespace eblocks::behavior {

ParseError::ParseError(const std::string& what, int line, int column)
    : std::runtime_error("parse error at " + std::to_string(line) + ":" +
                         std::to_string(column) + ": " + what),
      line_(line),
      column_(column) {}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view source)
      : lexer_(source), cur_(lexer_.next()) {}

  Program parseProgram() {
    Program p;
    while (!at(TokenKind::kEnd)) p.statements.push_back(parseStmt(true));
    return p;
  }

  ExprPtr parseSingleExpression() {
    ExprPtr e = parseExpr();
    expect(TokenKind::kEnd, "end of expression");
    return e;
  }

 private:
  const Token& cur() const { return cur_; }
  bool at(TokenKind k) const { return cur().kind == k; }

  /// Consumes the current token and lexes the next one.
  Token take() { return std::exchange(cur_, lexer_.next()); }

  Token expect(TokenKind k, const char* what) {
    if (!at(k))
      throw ParseError(std::string("expected ") + what + ", found " +
                           toString(cur().kind),
                       cur().line, cur().column);
    return take();
  }

  bool accept(TokenKind k) {
    if (!at(k)) return false;
    take();
    return true;
  }

  ParseError tooDeep(const char* what) const {
    return ParseError(std::string(what) + " nested deeper than " +
                          std::to_string(kMaxNesting) + " levels",
                      cur().line, cur().column);
  }

  /// Opens one tree level (an `if` body or a unary operand).
  void descend() {
    if (++depth_ > kMaxNesting) throw tooDeep("statements and operators");
  }

  StmtPtr parseStmt(bool allowDecl) {
    if (at(TokenKind::kKwVar)) {
      if (!allowDecl)
        throw ParseError(
            "'var' declarations are only allowed at the top level "
            "(state initialization has reset semantics)",
            cur().line, cur().column);
      take();
      Token name = expect(TokenKind::kIdent, "variable name");
      expect(TokenKind::kAssign, "'=' after variable name");
      ExprPtr init = parseExpr();
      expect(TokenKind::kSemicolon, "';' after declaration");
      return makeVarDecl(name.text, std::move(init));
    }
    if (at(TokenKind::kKwIf)) return parseIf();
    if (at(TokenKind::kIdent)) {
      Token name = take();
      expect(TokenKind::kAssign, "'=' in assignment");
      ExprPtr rhs = parseExpr();
      expect(TokenKind::kSemicolon, "';' after assignment");
      return makeAssign(name.text, std::move(rhs));
    }
    throw ParseError("expected statement, found " +
                         std::string(toString(cur().kind)),
                     cur().line, cur().column);
  }

  StmtPtr parseIf() {
    expect(TokenKind::kKwIf, "'if'");
    expect(TokenKind::kLParen, "'(' after 'if'");
    ExprPtr cond = parseExpr();
    expect(TokenKind::kRParen, "')' after condition");
    std::vector<StmtPtr> thenBody = parseBlock();
    std::vector<StmtPtr> elseBody;
    if (accept(TokenKind::kKwElse)) {
      if (at(TokenKind::kKwIf)) {
        descend();
        elseBody.push_back(parseIf());  // else-if chain
        --depth_;
      } else {
        elseBody = parseBlock();
      }
    }
    return makeIf(std::move(cond), std::move(thenBody), std::move(elseBody));
  }

  std::vector<StmtPtr> parseBlock() {
    expect(TokenKind::kLBrace, "'{'");
    descend();
    std::vector<StmtPtr> body;
    while (!at(TokenKind::kRBrace)) {
      if (at(TokenKind::kEnd))
        throw ParseError("unterminated block", cur().line, cur().column);
      body.push_back(parseStmt(false));
    }
    take();  // consume '}'
    --depth_;
    return body;
  }

  ExprPtr parseExpr() { return parseOr(); }

  /// Parses the right operand with `next` and joins it to `lhs` under
  /// `op`, keeping height_ and the tree-depth limit up to date.
  ExprPtr join(BinaryOp op, ExprPtr lhs, ExprPtr (Parser::*next)()) {
    const int lhsHeight = height_;
    ExprPtr rhs = (this->*next)();
    height_ = std::max(lhsHeight, height_) + 1;
    if (depth_ + height_ > kMaxNesting)
      throw tooDeep("statements and operators");
    return makeBinary(op, std::move(lhs), std::move(rhs));
  }

  ExprPtr parseOr() {
    ExprPtr lhs = parseAnd();
    while (accept(TokenKind::kOrOr))
      lhs = join(BinaryOp::kOr, std::move(lhs), &Parser::parseAnd);
    return lhs;
  }

  ExprPtr parseAnd() {
    ExprPtr lhs = parseEquality();
    while (accept(TokenKind::kAndAnd))
      lhs = join(BinaryOp::kAnd, std::move(lhs), &Parser::parseEquality);
    return lhs;
  }

  ExprPtr parseEquality() {
    ExprPtr lhs = parseRel();
    for (;;) {
      if (accept(TokenKind::kEq))
        lhs = join(BinaryOp::kEq, std::move(lhs), &Parser::parseRel);
      else if (accept(TokenKind::kNe))
        lhs = join(BinaryOp::kNe, std::move(lhs), &Parser::parseRel);
      else
        return lhs;
    }
  }

  ExprPtr parseRel() {
    ExprPtr lhs = parseAdd();
    for (;;) {
      if (accept(TokenKind::kLt))
        lhs = join(BinaryOp::kLt, std::move(lhs), &Parser::parseAdd);
      else if (accept(TokenKind::kLe))
        lhs = join(BinaryOp::kLe, std::move(lhs), &Parser::parseAdd);
      else if (accept(TokenKind::kGt))
        lhs = join(BinaryOp::kGt, std::move(lhs), &Parser::parseAdd);
      else if (accept(TokenKind::kGe))
        lhs = join(BinaryOp::kGe, std::move(lhs), &Parser::parseAdd);
      else
        return lhs;
    }
  }

  ExprPtr parseAdd() {
    ExprPtr lhs = parseMul();
    for (;;) {
      if (accept(TokenKind::kPlus))
        lhs = join(BinaryOp::kAdd, std::move(lhs), &Parser::parseMul);
      else if (accept(TokenKind::kMinus))
        lhs = join(BinaryOp::kSub, std::move(lhs), &Parser::parseMul);
      else
        return lhs;
    }
  }

  ExprPtr parseMul() {
    ExprPtr lhs = parseUnary();
    for (;;) {
      if (accept(TokenKind::kStar))
        lhs = join(BinaryOp::kMul, std::move(lhs), &Parser::parseUnary);
      else if (accept(TokenKind::kSlash))
        lhs = join(BinaryOp::kDiv, std::move(lhs), &Parser::parseUnary);
      else if (accept(TokenKind::kPercent))
        lhs = join(BinaryOp::kMod, std::move(lhs), &Parser::parseUnary);
      else
        return lhs;
    }
  }

  ExprPtr parseUnary() {
    UnaryOp op;
    if (accept(TokenKind::kBang))
      op = UnaryOp::kNot;
    else if (accept(TokenKind::kMinus))
      op = UnaryOp::kNeg;
    else
      return parsePrimary();
    descend();
    ExprPtr operand = parseUnary();
    --depth_;
    ++height_;
    return makeUnary(op, std::move(operand));
  }

  ExprPtr parsePrimary() {
    height_ = 0;
    if (at(TokenKind::kIntLit))  // the lexer caps literals at 2^31-1
      return makeIntLit(static_cast<std::int32_t>(take().intValue));
    if (accept(TokenKind::kKwTrue)) return makeIntLit(1);
    if (accept(TokenKind::kKwFalse)) return makeIntLit(0);
    if (at(TokenKind::kIdent)) return makeVarRef(take().text);
    if (accept(TokenKind::kLParen)) {
      if (++parens_ > kMaxNesting) throw tooDeep("parentheses");
      ExprPtr e = parseExpr();
      expect(TokenKind::kRParen, "')'");
      --parens_;
      return e;
    }
    throw ParseError("expected expression, found " +
                         std::string(toString(cur().kind)),
                     cur().line, cur().column);
  }

  Lexer lexer_;
  Token cur_;  ///< the one token of lookahead
  int depth_ = 0;   ///< enclosing `if` bodies and unary operators
  int parens_ = 0;  ///< enclosing parentheses
  int height_ = 0;  ///< operator height of the expression just parsed
};

}  // namespace

Program parse(std::string_view source) {
  return Parser(source).parseProgram();
}

ExprPtr parseExpression(std::string_view source) {
  return Parser(source).parseSingleExpression();
}

}  // namespace eblocks::behavior

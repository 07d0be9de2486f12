#include "behavior/parser.h"

#include <gtest/gtest.h>

#include "behavior/printer.h"

namespace eblocks::behavior {
namespace {

TEST(Parser, EmptyProgram) {
  EXPECT_TRUE(parse("").statements.empty());
}

TEST(Parser, VarDecl) {
  const Program p = parse("var q = 3;");
  ASSERT_EQ(p.statements.size(), 1u);
  EXPECT_EQ(p.statements[0]->kind, StmtKind::kVarDecl);
  EXPECT_EQ(p.statements[0]->name, "q");
  EXPECT_EQ(p.statements[0]->expr->intValue, 3);
}

TEST(Parser, Assignment) {
  const Program p = parse("out = a;");
  ASSERT_EQ(p.statements.size(), 1u);
  EXPECT_EQ(p.statements[0]->kind, StmtKind::kAssign);
  EXPECT_EQ(p.statements[0]->name, "out");
  EXPECT_EQ(p.statements[0]->expr->kind, ExprKind::kVarRef);
}

TEST(Parser, IfElse) {
  const Program p = parse("if (a) { x = 1; } else { x = 0; }");
  ASSERT_EQ(p.statements.size(), 1u);
  const Stmt& s = *p.statements[0];
  EXPECT_EQ(s.kind, StmtKind::kIf);
  EXPECT_EQ(s.thenBody.size(), 1u);
  EXPECT_EQ(s.elseBody.size(), 1u);
}

TEST(Parser, ElseIfChain) {
  const Program p =
      parse("if (a) { x = 1; } else if (b) { x = 2; } else { x = 3; }");
  const Stmt& s = *p.statements[0];
  ASSERT_EQ(s.elseBody.size(), 1u);
  EXPECT_EQ(s.elseBody[0]->kind, StmtKind::kIf);
  EXPECT_EQ(s.elseBody[0]->elseBody.size(), 1u);
}

TEST(Parser, PrecedenceMulOverAdd) {
  const ExprPtr e = parseExpression("1 + 2 * 3");
  EXPECT_EQ(e->bop, BinaryOp::kAdd);
  EXPECT_EQ(e->rhs->bop, BinaryOp::kMul);
}

TEST(Parser, PrecedenceComparisonOverLogic) {
  const ExprPtr e = parseExpression("a < 2 && b >= 3");
  EXPECT_EQ(e->bop, BinaryOp::kAnd);
  EXPECT_EQ(e->lhs->bop, BinaryOp::kLt);
  EXPECT_EQ(e->rhs->bop, BinaryOp::kGe);
}

TEST(Parser, PrecedenceAndOverOr) {
  const ExprPtr e = parseExpression("a || b && c");
  EXPECT_EQ(e->bop, BinaryOp::kOr);
  EXPECT_EQ(e->rhs->bop, BinaryOp::kAnd);
}

TEST(Parser, ParenthesesOverride) {
  const ExprPtr e = parseExpression("(1 + 2) * 3");
  EXPECT_EQ(e->bop, BinaryOp::kMul);
  EXPECT_EQ(e->lhs->bop, BinaryOp::kAdd);
}

TEST(Parser, UnaryChains) {
  const ExprPtr e = parseExpression("!!a");
  EXPECT_EQ(e->kind, ExprKind::kUnary);
  EXPECT_EQ(e->lhs->kind, ExprKind::kUnary);
  EXPECT_EQ(e->lhs->lhs->name, "a");
}

TEST(Parser, NegativeLiteralIsUnaryMinus) {
  const ExprPtr e = parseExpression("-5");
  EXPECT_EQ(e->kind, ExprKind::kUnary);
  EXPECT_EQ(e->uop, UnaryOp::kNeg);
}

TEST(Parser, TrueFalseAreLiterals) {
  EXPECT_EQ(parseExpression("true")->intValue, 1);
  EXPECT_EQ(parseExpression("false")->intValue, 0);
}

TEST(Parser, LeftAssociativity) {
  const ExprPtr e = parseExpression("1 - 2 - 3");  // (1-2)-3
  EXPECT_EQ(e->bop, BinaryOp::kSub);
  EXPECT_EQ(e->lhs->bop, BinaryOp::kSub);
  EXPECT_EQ(e->rhs->intValue, 3);
}

TEST(Parser, MissingSemicolonFails) {
  EXPECT_THROW(parse("a = 1"), ParseError);
}

TEST(Parser, UnterminatedBlockFails) {
  EXPECT_THROW(parse("if (a) { x = 1;"), ParseError);
}

TEST(Parser, NestedVarDeclRejected) {
  EXPECT_THROW(parse("if (a) { var q = 1; }"), ParseError);
}

TEST(Parser, GarbageExpressionFails) {
  EXPECT_THROW(parse("x = * 2;"), ParseError);
  EXPECT_THROW(parse("x = ;"), ParseError);
}

TEST(Parser, ErrorCarriesPosition) {
  try {
    parse("x = 1;\ny = ;\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
  }
}

TEST(Parser, RoundTripThroughPrinter) {
  const char* src =
      "var q = 0;\n"
      "var prev = 0;\n"
      "if (a == 1 && prev == 0) { q = !q; }\n"
      "prev = a;\n"
      "out = q;\n";
  const Program p1 = parse(src);
  const std::string printed = toSource(p1);
  const Program p2 = parse(printed);
  EXPECT_EQ(printed, toSource(p2));  // printer is a fixed point
}

// --- nesting limit ----------------------------------------------------------

std::string nestedParens(int depth) {
  return "x = " + std::string(static_cast<std::size_t>(depth), '(') + "a" +
         std::string(static_cast<std::size_t>(depth), ')') + ";";
}

std::string unaryChain(int depth) {
  return "x = " + std::string(static_cast<std::size_t>(depth), '!') + "a;";
}

std::string nestedIfs(int depth) {
  std::string src;
  for (int i = 0; i < depth; ++i) src += "if (a) { ";
  src += "x = 1;";
  for (int i = 0; i < depth; ++i) src += " }";
  return src;
}

std::string elseIfChain(int ifs) {
  std::string src = "if (a) { x = 0; }";
  for (int i = 1; i < ifs; ++i) src += " else if (a) { x = 1; }";
  return src;
}

std::string binaryChain(int operators) {
  std::string src = "x = a";
  for (int i = 0; i < operators; ++i) src += " + a";
  return src + ";";
}

TEST(ParserNesting, ParenthesesAtTheLimitParseAndOneMoreThrows) {
  EXPECT_NO_THROW(parse(nestedParens(kMaxNesting)));
  EXPECT_THROW(parse(nestedParens(kMaxNesting + 1)), ParseError);
}

TEST(ParserNesting, UnaryChainAtTheLimitParsesAndOneMoreThrows) {
  EXPECT_NO_THROW(parse(unaryChain(kMaxNesting)));
  EXPECT_THROW(parse(unaryChain(kMaxNesting + 1)), ParseError);
}

TEST(ParserNesting, NestedIfsAtTheLimitParseAndOneMoreThrows) {
  EXPECT_NO_THROW(parse(nestedIfs(kMaxNesting)));
  EXPECT_THROW(parse(nestedIfs(kMaxNesting + 1)), ParseError);
}

TEST(ParserNesting, ElseIfChainAtTheLimitParsesAndOneMoreThrows) {
  EXPECT_NO_THROW(parse(elseIfChain(kMaxNesting)));
  EXPECT_THROW(parse(elseIfChain(kMaxNesting + 1)), ParseError);
}

TEST(ParserNesting, OperatorChainCountsTheTreeItBuilds) {
  // `a + a + ...` parses without recursion but builds a left-deep tree,
  // which every walker then recurses through.
  EXPECT_NO_THROW(parse(binaryChain(kMaxNesting)));
  EXPECT_THROW(parse(binaryChain(kMaxNesting + 1)), ParseError);
}

TEST(ParserNesting, LevelsAddUpAcrossKinds) {
  // 128 if bodies + 128 unary operators is the limit; one more of
  // either kind is past it.
  const auto wrapped = [](int ifs, int unaries) {
    std::string src;
    for (int i = 0; i < ifs; ++i) src += "if (a) { ";
    src += "x = " + std::string(static_cast<std::size_t>(unaries), '-') +
           "a;";
    for (int i = 0; i < ifs; ++i) src += " }";
    return src;
  };
  EXPECT_NO_THROW(parse(wrapped(128, 128)));
  EXPECT_THROW(parse(wrapped(129, 128)), ParseError);
  EXPECT_THROW(parse(wrapped(128, 129)), ParseError);
}

TEST(ParserNesting, HostileDepthIsACleanError) {
  // Half a million open parentheses once overflowed the stack.
  try {
    parse(nestedParens(500000));
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("nested deeper than 256"),
              std::string::npos);
  }
  EXPECT_THROW(parse(unaryChain(500000)), ParseError);
  EXPECT_THROW(parse(binaryChain(500000)), ParseError);
}

TEST(ParserNesting, EveryProgramAtTheLimitPrintsToTextThatParses) {
  // The printer parenthesizes every compound operand, so printed text
  // has more parentheses than its source; it must still parse.
  for (const std::string& src :
       {unaryChain(kMaxNesting), binaryChain(kMaxNesting),
        nestedIfs(kMaxNesting), elseIfChain(kMaxNesting)}) {
    const std::string printed = toSource(parse(src));
    EXPECT_EQ(toSource(parse(printed)), printed);
  }
}

}  // namespace
}  // namespace eblocks::behavior

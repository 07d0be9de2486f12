#include "behavior/printer.h"

#include <charconv>
#include <string>

namespace eblocks::behavior {

namespace {

// Every printer appends to one output buffer; no node builds a string of
// its own.

void indent(std::string& out, int n) {
  out.append(static_cast<std::size_t>(n) * 2, ' ');
}

bool isAtom(const Expr& e) {
  return e.kind == ExprKind::kIntLit || e.kind == ExprKind::kVarRef;
}

void print(const Expr& e, std::string& out);

/// An operand: atoms bare, compound subexpressions parenthesized.
void printOperand(const Expr& e, std::string& out) {
  if (isAtom(e)) return print(e, out);
  out += '(';
  print(e, out);
  out += ')';
}

void print(const Expr& e, std::string& out) {
  switch (e.kind) {
    case ExprKind::kIntLit: {
      char buf[24];
      const auto end = std::to_chars(buf, buf + sizeof buf, e.intValue).ptr;
      out.append(buf, end);
      return;
    }
    case ExprKind::kVarRef:
      out += e.name;
      return;
    case ExprKind::kUnary:
      out += toString(e.uop);
      printOperand(*e.lhs, out);
      return;
    case ExprKind::kBinary:
      printOperand(*e.lhs, out);
      out += ' ';
      out += toString(e.bop);
      out += ' ';
      printOperand(*e.rhs, out);
      return;
  }
  out += '?';
}

void print(const Stmt& s, int depth, std::string& out) {
  indent(out, depth);
  switch (s.kind) {
    case StmtKind::kVarDecl:
      out += "var ";
      [[fallthrough]];
    case StmtKind::kAssign:
      out += s.name;
      out += " = ";
      print(*s.expr, out);
      out += ';';
      return;
    case StmtKind::kIf:
      out += "if (";
      print(*s.expr, out);
      out += ") {\n";
      for (const StmtPtr& t : s.thenBody) {
        print(*t, depth + 1, out);
        out += '\n';
      }
      indent(out, depth);
      out += '}';
      if (!s.elseBody.empty()) {
        out += " else {\n";
        for (const StmtPtr& t : s.elseBody) {
          print(*t, depth + 1, out);
          out += '\n';
        }
        indent(out, depth);
        out += '}';
      }
      return;
  }
  out += '?';
}

}  // namespace

std::string toSource(const Expr& e) {
  std::string out;
  print(e, out);
  return out;
}

std::string toSource(const Stmt& s, int indent) {
  std::string out;
  print(s, indent, out);
  return out;
}

std::string toSource(const Program& p) {
  std::string out;
  for (const StmtPtr& s : p.statements) {
    print(*s, 0, out);
    out += '\n';
  }
  return out;
}

}  // namespace eblocks::behavior

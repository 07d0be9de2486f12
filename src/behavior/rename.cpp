#include "behavior/rename.h"

namespace eblocks::behavior {

namespace {

ExprPtr renamedExpr(const Expr& e, const RenameFn& rename) {
  auto out = std::make_unique<Expr>();
  out->kind = e.kind;
  out->uop = e.uop;
  out->bop = e.bop;
  out->intValue = e.intValue;
  if (e.kind == ExprKind::kVarRef) out->name = rename(e.name);
  if (e.lhs) out->lhs = renamedExpr(*e.lhs, rename);
  if (e.rhs) out->rhs = renamedExpr(*e.rhs, rename);
  return out;
}

StmtPtr renamedStmt(const Stmt& s, const RenameFn& rename) {
  auto out = std::make_unique<Stmt>();
  out->kind = s.kind;
  if (s.kind == StmtKind::kVarDecl || s.kind == StmtKind::kAssign)
    out->name = rename(s.name);
  if (s.expr) out->expr = renamedExpr(*s.expr, rename);
  out->thenBody.reserve(s.thenBody.size());
  for (const StmtPtr& t : s.thenBody)
    out->thenBody.push_back(renamedStmt(*t, rename));
  out->elseBody.reserve(s.elseBody.size());
  for (const StmtPtr& t : s.elseBody)
    out->elseBody.push_back(renamedStmt(*t, rename));
  return out;
}

}  // namespace

Program renamed(const Program& p, const RenameFn& rename) {
  Program out;
  out.statements.reserve(p.statements.size());
  for (const StmtPtr& s : p.statements)
    out.statements.push_back(renamedStmt(*s, rename));
  return out;
}

Program renamed(const Program& p, const RenameMap& renames) {
  return renamed(p, [&](const std::string& n) {
    const auto it = renames.find(n);
    return it != renames.end() ? it->second : n;
  });
}

}  // namespace eblocks::behavior

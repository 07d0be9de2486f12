#include "behavior/merge.h"

#include <stdexcept>
#include <string_view>
#include <unordered_set>
#include <utility>

namespace eblocks::behavior {

Program mergePrograms(std::vector<Program> parts) {
  Program merged;
  std::vector<StmtPtr> decls, body;
  // Views of the declarations' own names: moving a StmtPtr leaves the
  // statement, and so its name, where it is.
  std::unordered_set<std::string_view> declared;
  for (Program& part : parts) {
    for (StmtPtr& s : part.statements) {
      if (s->kind == StmtKind::kVarDecl) {
        if (!declared.insert(s->name).second)
          throw std::invalid_argument(
              "mergePrograms: duplicate state variable '" + s->name +
              "' (rename before merging)");
        decls.push_back(std::move(s));
      } else {
        body.push_back(std::move(s));
      }
    }
  }
  merged.statements.reserve(decls.size() + body.size());
  for (StmtPtr& s : decls) merged.statements.push_back(std::move(s));
  for (StmtPtr& s : body) merged.statements.push_back(std::move(s));
  return merged;
}

}  // namespace eblocks::behavior

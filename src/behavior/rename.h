// Variable renaming over behavior ASTs.
//
// Code generation merges many block programs into one; "in the event that
// two or more blocks share variable names in their internal behavior code,
// the conflict is resolved through variable renaming" (Section 3.3).  The
// same machinery rewires a block's port names to the merged program's
// internal wire variables.
//
// Renaming copies: a block type's tree is shared and immutable (see
// core/block.h), so the renamed program is a new tree, built in the same
// single walk a plain clone would take.
#ifndef EBLOCKS_BEHAVIOR_RENAME_H_
#define EBLOCKS_BEHAVIOR_RENAME_H_

#include <functional>
#include <string>
#include <unordered_map>

#include "behavior/ast.h"

namespace eblocks::behavior {

using RenameMap = std::unordered_map<std::string, std::string>;

/// The new name of a variable, given its old one.
using RenameFn = std::function<std::string(const std::string&)>;

/// A copy of `p` in which every variable reference, assignment target,
/// and declaration named n is named rename(n) instead.
Program renamed(const Program& p, const RenameFn& rename);

/// A copy of `p` with the names in `renames` replaced and every other
/// name kept.  All renames apply at once: {a->b, b->c} turns `a + b`
/// into `b + c`, never `c + c`.
Program renamed(const Program& p, const RenameMap& renames);

}  // namespace eblocks::behavior

#endif  // EBLOCKS_BEHAVIOR_RENAME_H_

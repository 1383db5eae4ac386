//===- SlotNames.h - The variable names of one memory layout ----*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one place a compiled layout keeps its variable names. Slots are
/// numbered in declaration order; lowering resolves names to slots through
/// the index, and memory images, their copies, the IR listing and every
/// run's trace share one table read-only.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_LANG_SLOTNAMES_H
#define ZAM_LANG_SLOTNAMES_H

#include "lang/Ast.h"

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace zam {

/// The variables of one memory layout: names in declaration order (the slot
/// numbering of Memory, the lowering pass and AssignEvent::Slot) and the
/// inverse map.
struct SlotNames {
  std::vector<std::string> Names;
  std::unordered_map<std::string, size_t> Index;

  /// The table of \p P's declarations.
  static std::shared_ptr<const SlotNames> of(const Program &P) {
    auto Out = std::make_shared<SlotNames>();
    Out->Names.reserve(P.vars().size());
    for (const VarDecl &D : P.vars()) {
      Out->Index.emplace(D.Name, Out->Names.size());
      Out->Names.push_back(D.Name);
    }
    return Out;
  }
};

} // namespace zam

#endif // ZAM_LANG_SLOTNAMES_H

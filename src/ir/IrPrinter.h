//===- IrPrinter.h - Textual dump of the timing-IR --------------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic, human-readable dump of a lowered program: the slot
/// layout, then one line per instruction with its successors, timing
/// labels, code address and expression(s) in postfix, each followed by
/// the instruction's micro-ops with their registers and operand addresses.
/// `zamc ir` prints this, `zamc hot` annotates the instruction lines, and
/// CI diffs both against committed golden files — the format is part of
/// the repository's regression surface, so change it deliberately.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_IR_IRPRINTER_H
#define ZAM_IR_IRPRINTER_H

#include "ir/Ir.h"

#include <string>

namespace zam {

class SecurityLattice;

/// The stable lower-case mnemonic for an opcode ("skip", "assign", "store",
/// "branch", "sleep", "mitenter", "mitend", "halt") — the spelling used by
/// the instruction dump, the exec.* metrics namespace and the folded-stack
/// export, so profiles and IR listings name opcodes identically.
const char *irOpName(IrInstr::Op K);

/// Renders instruction \p I exactly as one `printIr` listing line, without
/// the leading "  %3u: " pc prefix — so annotated dumps (`zamc hot`) reuse
/// the byte-identical instruction text.
std::string printIrInstr(const IrProgram &IR, uint32_t I,
                         const SecurityLattice &Lat);

/// Renders the whole program (slots, then each instruction line followed
/// by its micro-op lines).
std::string printIr(const IrProgram &IR, const SecurityLattice &Lat);

} // namespace zam

#endif // ZAM_IR_IRPRINTER_H

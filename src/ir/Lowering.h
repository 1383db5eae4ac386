//===- Lowering.h - AST → timing-IR lowering --------------------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles a type-checked, label-complete program (or a detached labeled
/// command) into the flat timing-IR of Ir.h, in one pass. Lowering
/// resolves everything static once: variable names become dense slot
/// indices with the exact Memory::fromProgram address layout, each
/// command's code address and [er, ew] labels are baked into its
/// instruction, mitigate sites carry their static pc label, and every
/// expression becomes a span of register micro-ops, in evaluation order,
/// with per-operation attribution locations. Registers come from the
/// static value-stack depth: an expression's result lands in r0, and an
/// array store's value in r1, above the live index.
///
/// Lowering fails fatally on a program without a body or on a command
/// missing timing labels — the same eager contract the engines enforced.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_IR_LOWERING_H
#define ZAM_IR_LOWERING_H

#include "ir/Ir.h"
#include "sem/CostModel.h"
#include "sem/Mitigation.h"

namespace zam {

/// Lowers \p P's body. Instruction origins point into \p P, which must
/// outlive the IrProgram. Every mitigate instruction resolves its
/// prediction schedule from \p Policies once, here — per-site overrides
/// are a lowering-time concern, not a per-transition lookup. The policy
/// objects the selection points at must outlive the IrProgram.
IrProgram lowerProgram(const Program &P, const CostModel &Costs = CostModel(),
                       const PolicySelection &Policies = PolicySelection());

/// Lowers the detached command \p C against \p P's declarations (the
/// property checkers drive arbitrary labeled commands). \p C and \p P must
/// outlive the IrProgram.
IrProgram lowerCommand(const Program &P, const Cmd &C,
                       const CostModel &Costs = CostModel(),
                       const PolicySelection &Policies = PolicySelection());

} // namespace zam

#endif // ZAM_IR_LOWERING_H

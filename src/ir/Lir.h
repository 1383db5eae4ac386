//===- Lir.h - Former name of the lowered program form ----------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The register micro-ops this header used to define as a second program
/// tier now live in IrProgram itself (ir/Ir.h). The aliases below are kept
/// only for the per-layer timing in bench/perf/Layers.cpp, which still
/// times `lowerProgram` + `lowerToLir`; nothing else may use them.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_IR_LIR_H
#define ZAM_IR_LIR_H

#include "ir/Ir.h"

namespace zam {

using LirProgram = IrProgram;

/// Returns a copy of \p IR, which is already in executable form.
inline LirProgram lowerToLir(const IrProgram &IR) { return IR; }

} // namespace zam

#endif // ZAM_IR_LIR_H

//===- CostModel.h - The language-implementation timing contract *- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fixed per-step costs of the simulated language implementation. Together
/// with the machine environment these define the full semantics' timing: a
/// single evaluation step costs
///
///   BaseStep + fetch(codeAddr(c)) + Σ data accesses + Σ ALU ops
///              (+ Branch for if/while)
///
/// except sleep, which is a calibrated timer rather than a fetched
/// instruction: it costs only its argument's evaluation plus max(n, 0)
/// cycles, so a literal-argument sleep takes exactly max(n, 0) — the
/// accurate-sleep requirement (Property 4).
///
/// All components are deterministic functions of (c, m, E), which is what
/// makes Property 2 (deterministic execution) hold by construction; the
/// only memory influence on a step's duration is through the variables in
/// vars1(c) (Property 6) and the only machine-environment influence is
/// through state at levels ⊑ er, which the hardware models guarantee.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_SEM_COSTMODEL_H
#define ZAM_SEM_COSTMODEL_H

#include "hw/CacheConfig.h"

#include <cstdint>

namespace zam {

struct CostModel {
  uint64_t BaseStep = 1; ///< Issue overhead of every evaluation step.
  uint64_t AluOp = 1;    ///< Cost per arithmetic/logic operator node.
  uint64_t Branch = 2;   ///< Extra cost of a conditional/loop step.

  Addr CodeBase = 0x40000000;  ///< Start of the simulated code region.
  uint64_t CodeBytesPerNode = 16; ///< Spacing of per-command code addresses.
  Addr DataBase = 0x10000000;  ///< Start of the simulated data region.

  /// The instruction address fetched when command node \p NodeId steps.
  Addr codeAddr(unsigned NodeId) const {
    return CodeBase + static_cast<Addr>(NodeId) * CodeBytesPerNode;
  }

  bool operator==(const CostModel &Other) const = default;
};

} // namespace zam

#endif // ZAM_SEM_COSTMODEL_H

//===- Lir.h - The low-level register-transfer tier (LIR) -------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The third (lowest) tier of the execution pipeline, below the flat
/// timing-IR of Ir.h: an RTL-like register-transfer form built for the
/// dispatch loop in sem/ExecCore. Where the IR evaluates
/// postfix expressions on a value stack, the LIR flattens every expression
/// into micro-ops over a statically-allocated register file: each postfix
/// operation's stack position is known at lowering time, so it becomes a
/// fixed register index, and every load's operand address is precomputed.
///
/// Layout invariants:
///
///   - LirInst is 1:1 with IrInstr — Insts[pc] lowers Instrs[pc], so the
///     program counter, exec.* per-pc metrics and branch targets carry over
///     unchanged between tiers.
///   - All micro-ops live in one shared pool; each LirInst names its
///     expression work as [U0, U0+N0) (and [U1, U1+N1) for the stored
///     value of an array assignment, lowered with registers offset by one
///     so the index in r0 survives).
///   - The LIR is purely static data, shareable by any number of cores;
///     per-run state (the register file, the slot-data pointer table)
///     lives in the execution core.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_IR_LIR_H
#define ZAM_IR_LIR_H

#include "ir/Ir.h"

#include <cstdint>
#include <string>
#include <vector>

namespace zam {

/// One register-transfer micro-op of an expression. Register indices are
/// assigned from static postfix stack depths, so a binary operator's
/// operands are always (Dst, Dst+1) and every op writes its result to Dst.
struct LirUop {
  enum class K : uint8_t {
    Const, ///< r[Dst] = Imm (immediate operand: free).
    Var,   ///< Data access at Base; r[Dst] = scalar slot value.
    Elem,  ///< Wrap r[Dst] mod Mod, access Base + 8w, r[Dst] = element w.
    Bin,   ///< r[Dst] = applyBinOp(Op2, r[Dst], r[Dst+1]).
    Un,    ///< r[Dst] = applyUnOp(Op2, r[Dst]).
  };

  K Kind = K::Const;
  uint8_t Op2 = 0;   ///< Raw BinOpKind (Bin) / UnOpKind (Un).
  uint16_t Dst = 0;  ///< Destination (and first-operand) register.
  uint32_t Slot = 0; ///< Var/Elem: memory slot index.
  Addr Base = 0;     ///< Var/Elem: precomputed operand base address.
  union {
    int64_t Imm = 0; ///< Const: the literal value.
    uint64_t Mod;    ///< Elem: wrap modulus (array size).
  };
  /// Var/Elem: attribution location for the load's own hardware access
  /// (the cursor-narrowing discipline of Provenance.h).
  SourceLoc Loc;
};

/// One logical instruction in register-transfer form: the static data of
/// its IrInstr with the expression vectors replaced by micro-op spans.
/// Everything the dispatch loop touches is flat — no nested vectors.
struct LirInst {
  IrInstr::Op K = IrInstr::Op::Skip;

  // Successors (same pc space as the IR tier).
  uint32_t Next = 0;
  uint32_t Target = 0;

  // Micro-op spans into LirProgram::Uops.
  uint32_t U0 = 0, N0 = 0; ///< E0: value / index / guard / duration.
  uint32_t U1 = 0, N1 = 0; ///< E1: ArrayAssign stored value (regs + 1).

  // Precomputed static data (see IrInstr for field semantics).
  Label Read;
  Label Write;
  Addr CodeAddr = 0;
  uint32_t Slot = 0;
  Addr SlotBase = 0;
  uint64_t ElemCount = 1;
  SourceLoc Loc;
  unsigned Eta = 0;
  Label MitLevel;
  Label PcLabel;
  const MitigationPolicy *Policy = nullptr;
  const Cmd *Origin = nullptr;
};

/// A lowered LIR program: the logical instruction array and the shared
/// micro-op pool.
struct LirProgram {
  /// Logical instructions, 1:1 with (and indexed like) IR.Instrs.
  std::vector<LirInst> Insts;
  /// The shared micro-op pool all instruction spans point into.
  std::vector<LirUop> Uops;
  /// Register-file size the micro-ops require (≥ 1).
  uint32_t NumRegs = 1;
  /// The tier above (borrowed; must outlive this program). Carries the
  /// slot table and is what probes receive in onProgram.
  const IrProgram *IR = nullptr;

  uint32_t haltIndex() const {
    return static_cast<uint32_t>(Insts.size()) - 1;
  }
};

/// Flattens \p IR into register-transfer form. The result borrows \p IR
/// (which must outlive it).
LirProgram lowerToLir(const IrProgram &IR);

class SecurityLattice;

/// Renders the LIR tier: each logical instruction line byte-identical to
/// the `printIr` listing, followed by its micro-ops. `zamc ir --tier=lir`
/// prints this; CI pins it as a golden file.
std::string printLir(const LirProgram &L, const SecurityLattice &Lat);

/// Checks every structural invariant of a lowered program: 1:1
/// correspondence with the IR tier, and span and register bounds. Returns
/// false and fills \p Err on the first violation.
bool verifyLir(const LirProgram &L, std::string &Err);

} // namespace zam

#endif // ZAM_IR_LIR_H

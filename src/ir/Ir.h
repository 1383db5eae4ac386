//===- Ir.h - The flat timing-IR ---------------------------------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A flat, linearized form of the type-checked Fig. 1 AST (plus arrays and
/// `mitigate`). One IrInstr corresponds to exactly one evaluation step of
/// the paper's small-step semantics (Fig. 2 + Fig. 6): `skip`, assignments,
/// `sleep`, one guard evaluation of an `if`/`while`, one `mitigate` entry,
/// and one window settlement (the MitigateEnd continuation of S-MTGPRED).
/// Sequential composition disappears entirely — it takes no evaluation step
/// and has no timing labels — so the step count of an IR execution equals
/// the number of primitive transitions of the source program.
///
/// Everything an engine would otherwise recompute per transition is
/// resolved once at lowering time:
///
///   - variables become dense memory-slot indices with precomputed
///     simulated base addresses (identical to Memory::fromProgram layout);
///   - the per-command code address for the instruction fetch;
///   - the [er, ew] timing labels and the static pc label at mitigate
///     sites (from lang/StaticLabels);
///   - the SourceLoc attribution cursor for every instruction and for
///     every expression operation that can touch the data hierarchy;
///   - expressions in evaluation-order postfix, executed on a flat value
///     stack whose maximum depth is known statically.
///
/// The IR is purely static data: executing it never mutates it, so any
/// number of engines (and any number of resumable cursors) can share one
/// lowered program.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_IR_IR_H
#define ZAM_IR_IR_H

#include "hw/CacheConfig.h"
#include "lang/Ast.h"
#include "lang/SlotNames.h"
#include "lattice/SecurityLattice.h"
#include "support/SourceLoc.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace zam {

class MitigationPolicy;

/// One postfix expression operation. Operations execute left-to-right on a
/// value stack, reproducing the AST evaluation order exactly: an array
/// read's index is computed before the element access, a binary operator's
/// left operand before its right.
struct ExprOp {
  enum class Kind : uint8_t {
    PushConst, ///< Push Const.
    LoadVar,   ///< Data access at Base, push the scalar's value.
    LoadElem,  ///< Pop index, wrap mod ElemCount, access, push element.
    Bin,       ///< Pop rhs then lhs, push applyBinOp(BinOp, lhs, rhs).
    Un,        ///< Pop operand, push applyUnOp(UnOp, v).
  };

  Kind K = Kind::PushConst;
  BinOpKind BinOp = BinOpKind::Add; ///< Valid when K == Bin.
  UnOpKind UnOp = UnOpKind::Neg;    ///< Valid when K == Un.
  uint32_t Slot = 0;                ///< LoadVar/LoadElem: memory slot index.
  Addr Base = 0;                    ///< LoadVar/LoadElem: slot base address.
  uint64_t ElemCount = 1;           ///< LoadElem: wrap modulus (array size).
  int64_t Const = 0;                ///< PushConst: the literal value.

  /// The effective attribution location: the nearest enclosing AST node
  /// with a valid location (the operation's own node if it has one, else
  /// the innermost valid ancestor, falling back to the command). Hardware
  /// accesses made by LoadVar/LoadElem are charged at this location —
  /// byte-for-byte the cursor-narrowing discipline of the tree engines.
  SourceLoc Loc;
};

/// A lowered expression: postfix operations plus the value-stack depth the
/// sequence needs. Never empty.
struct IrExpr {
  std::vector<ExprOp> Ops;
  uint32_t MaxDepth = 0;
};

/// One instruction — one small-step transition. Control flow is explicit:
/// every instruction names its successor(s) by index, so engines advance a
/// plain program counter instead of rewriting command trees.
struct IrInstr {
  enum class Op : uint8_t {
    Skip,        ///< Fetch + base cost only.
    Assign,      ///< x := E0.
    ArrayAssign, ///< a[E0] := E1.
    Branch,      ///< if/while guard: eval E0, go to Target (≠0) or Next (=0).
    Sleep,       ///< sleep(E0): no fetch; costs eval + max(n, 0) cycles.
    MitEnter,    ///< mitigate entry: eval estimate E0, open a window.
    MitEnd,      ///< window settlement: no fetch; settle, pad, close.
    Halt,        ///< Terminal. Never executed; reaching it ends the run.
  };

  Op K = Op::Skip;

  // Successors.
  uint32_t Next = 0;   ///< Fall-through successor.
  uint32_t Target = 0; ///< Branch: successor when the guard is non-zero.
  bool IsLoop = false; ///< Branch lowered from a `while` (printer only).

  // Precomputed static data.
  Label Read;          ///< er — upper bound on state read by this step.
  Label Write;         ///< ew — lower bound on state written by this step.
  Addr CodeAddr = 0;   ///< I-fetch address (CostModel::codeAddr of node id).
  SourceLoc Loc;       ///< The command's own source location.
  const Cmd *Origin = nullptr; ///< The source command this step came from.

  // Assign / ArrayAssign.
  uint32_t Slot = 0;      ///< Target memory slot.
  Addr SlotBase = 0;      ///< Its base address.
  uint64_t ElemCount = 1; ///< ArrayAssign: wrap modulus.

  // MitEnter / MitEnd.
  unsigned Eta = 0; ///< Mitigate site id η.
  Label MitLevel;   ///< The window's mitigation level ℓ.
  Label PcLabel;    ///< pc(M_η): static pc at the mitigate (Sec. 6.3).
  /// The site's prediction schedule, resolved once at lowering from the
  /// run's PolicySelection (per-site overrides land here). Borrowed — the
  /// policy objects outlive the IR. Null only in hand-built IR; engines
  /// fall back to the run default.
  const MitigationPolicy *Policy = nullptr;

  IrExpr E0; ///< Value / index / guard / duration / estimate.
  IrExpr E1; ///< ArrayAssign: the stored value.
};

/// Slot metadata mirrored from the declarations: the layout lowering
/// bakes into operands, plus the label and shape the listing shows. The
/// name is in IrProgram::Names.
struct IrSlotInfo {
  Label SecLabel;
  bool IsArray = false;
  uint64_t Size = 1;
  Addr Base = 0;
};

/// A lowered program: static instruction array plus layout metadata.
/// Instruction 0 is the entry point; the last instruction is always Halt.
struct IrProgram {
  std::vector<IrInstr> Instrs;
  std::vector<IrSlotInfo> Slots;
  /// The slot names, shared with the memory image of a compiled form.
  std::shared_ptr<const SlotNames> Names;
  uint32_t MaxEvalDepth = 0; ///< Max value-stack depth over all exprs.
  uint32_t MaxMitDepth = 0;  ///< Max static nesting of mitigate windows.

  uint32_t haltIndex() const {
    return static_cast<uint32_t>(Instrs.size()) - 1;
  }
};

} // namespace zam

#endif // ZAM_IR_IR_H

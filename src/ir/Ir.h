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
///   - expressions as register micro-ops in one pool: each operation's
///     position on the evaluation-order value stack is static, so it
///     becomes a fixed register index, and every load's operand address
///     is precomputed. No value stack exists at run time.
///
/// This is the only program form: the engines (sem/ExecCore) execute it,
/// probes receive it, and `zamc ir`/`zamc hot` print it. It is purely
/// static data: executing it never mutates it, so any number of engines
/// (and any number of resumable cursors) can share one lowered program;
/// per-run state (the register file, the slot-data pointer table) lives in
/// the execution core.
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

/// The binary operators, in BinOpKind order, with the micro-op mnemonic
/// the register listing prints. Each one is two micro-op opcodes: a
/// register form and an immediate form (IrUop).
#define ZAM_IR_BINOPS(X)                                                      \
  X(Add, "add") X(Sub, "sub") X(Mul, "mul") X(Div, "div") X(Mod, "mod")       \
  X(Eq, "eq") X(Ne, "ne") X(Lt, "lt") X(Le, "le") X(Gt, "gt") X(Ge, "ge")     \
  X(LogicalAnd, "land") X(LogicalOr, "lor") X(BitAnd, "and") X(BitOr, "or")   \
  X(BitXor, "xor") X(Shl, "shl") X(Shr, "shr")
/// The unary operators, in UnOpKind order: one micro-op opcode each.
#define ZAM_IR_UNOPS(X) X(Neg, "neg") X(LogicalNot, "lnot") X(BitNot, "not")

/// One register micro-op of an expression. Registers are assigned from the
/// static depth of the evaluation-order value stack, so the operations run
/// left to right exactly as the AST evaluates (an array read's index before
/// the element access, a binary operator's left operand before its right),
/// a binary operator's left operand is always r[Dst], and every op writes
/// its result to Dst.
///
/// Every operator has its own opcode, so an engine dispatches an operation
/// through one switch and applies the operator as a constant. A binary
/// operator comes in two forms: the register form takes its right operand
/// from r[Dst+1]; the immediate form (`AddImm`, …) is lowering's fold of a
/// literal right operand, which would otherwise be a Const micro-op just
/// before it, so `e >> 1` is `load e; shr #1`. The fold changes neither
/// the value nor the cost: Const is free and the operator costs the same
/// ALU op either way. A literal left operand is not folded.
struct IrUop {
  enum class K : uint8_t {
    Const, ///< r[Dst] = Imm (immediate operand: free).
    Var,   ///< Data access at Base; r[Dst] = scalar slot value.
    Elem,  ///< Wrap r[Dst] mod Mod, access Base + 8w, r[Dst] = element w.
#define ZAM_IR_X(Name, Mnemonic) Name,
    /// Register form: r[Dst] = applyBinOp(op, r[Dst], r[Dst+1]).
    ZAM_IR_BINOPS(ZAM_IR_X)
#undef ZAM_IR_X
#define ZAM_IR_X(Name, Mnemonic) Name##Imm,
    /// Immediate form: r[Dst] = applyBinOp(op, r[Dst], Imm).
    ZAM_IR_BINOPS(ZAM_IR_X)
#undef ZAM_IR_X
#define ZAM_IR_X(Name, Mnemonic) Name,
    /// r[Dst] = applyUnOp(op, r[Dst]).
    ZAM_IR_UNOPS(ZAM_IR_X)
#undef ZAM_IR_X
  };
  static constexpr unsigned kFirstBin = static_cast<unsigned>(K::Add);
  static constexpr unsigned kFirstBinImm = static_cast<unsigned>(K::AddImm);
  static constexpr unsigned kFirstUn = static_cast<unsigned>(K::Neg);
  /// One past the last opcode.
  static constexpr unsigned kNumKinds = static_cast<unsigned>(K::BitNot) + 1;

  /// The opcode of binary operator \p Op in register or immediate form.
  static constexpr K binKind(BinOpKind Op, bool Imm) {
    return static_cast<K>((Imm ? kFirstBinImm : kFirstBin) +
                          static_cast<unsigned>(Op));
  }
  /// The opcode of unary operator \p Op.
  static constexpr K unKind(UnOpKind Op) {
    return static_cast<K>(kFirstUn + static_cast<unsigned>(Op));
  }
  /// Whether \p Kind is a binary operator in register / immediate form,
  /// or a unary operator.
  static constexpr bool isBinReg(K Kind) {
    return static_cast<unsigned>(Kind) - kFirstBin < kFirstBinImm - kFirstBin;
  }
  static constexpr bool isBinImm(K Kind) {
    return static_cast<unsigned>(Kind) - kFirstBinImm < kFirstUn - kFirstBinImm;
  }
  static constexpr bool isUnary(K Kind) {
    return static_cast<unsigned>(Kind) - kFirstUn < kNumKinds - kFirstUn;
  }
  /// The operator of a binary (either form) / unary opcode.
  static constexpr BinOpKind binOpOf(K Kind) {
    return static_cast<BinOpKind>(static_cast<unsigned>(Kind) -
                                  (isBinImm(Kind) ? kFirstBinImm : kFirstBin));
  }
  static constexpr UnOpKind unOpOf(K Kind) {
    return static_cast<UnOpKind>(static_cast<unsigned>(Kind) - kFirstUn);
  }

  K Kind = K::Const;
  uint16_t Dst = 0;  ///< Destination (and first-operand) register.
  uint32_t Slot = 0; ///< Var/Elem: memory slot index.
  Addr Base = 0;     ///< Var/Elem: precomputed operand base address.
  union {
    int64_t Imm = 0; ///< Const / immediate form: the literal value.
    uint64_t Mod;    ///< Elem: wrap modulus (array size).
  };
  /// The effective attribution location: the nearest enclosing AST node
  /// with a valid location (the operation's own node if it has one, else
  /// the innermost valid ancestor, falling back to the command). Hardware
  /// accesses made by Var/Elem are charged at this location, byte for byte
  /// the cursor-narrowing discipline of Provenance.h.
  SourceLoc Loc;
};

// The opcode arithmetic above relies on the operator lists matching the
// AST's enumerations.
static_assert(IrUop::K::Shr == IrUop::binKind(BinOpKind::Shr, false) &&
              IrUop::K::ShrImm == IrUop::binKind(BinOpKind::Shr, true) &&
              IrUop::K::BitNot == IrUop::unKind(UnOpKind::BitNot) &&
              IrUop::binOpOf(IrUop::K::ModImm) == BinOpKind::Mod);

/// One instruction — one small-step transition. Control flow is explicit:
/// every instruction names its successor(s) by index, so engines advance a
/// plain program counter instead of rewriting command trees. Its
/// expression work is a span of micro-ops in IrProgram::Uops.
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
  bool IsLoop = false; ///< Branch lowered from a `while` (printer only).

  // Successors.
  uint32_t Next = 0;   ///< Fall-through successor.
  uint32_t Target = 0; ///< Branch: successor when the guard is non-zero.

  // Micro-op spans into IrProgram::Uops.
  uint32_t U0 = 0, N0 = 0; ///< E0: value / index / guard / duration /
                           ///< estimate, result in r0.
  uint32_t U1 = 0, N1 = 0; ///< E1: ArrayAssign's stored value, registers
                           ///< based at r1 so the index in r0 survives.

  // Precomputed static data.
  Label Read;          ///< er — upper bound on state read by this step.
  Label Write;         ///< ew — lower bound on state written by this step.
  Addr CodeAddr = 0;   ///< I-fetch address (CostModel::codeAddr of node id).

  // Assign / ArrayAssign.
  uint32_t Slot = 0;      ///< Target memory slot.
  Addr SlotBase = 0;      ///< Its base address.
  uint64_t ElemCount = 1; ///< ArrayAssign: wrap modulus.

  SourceLoc Loc; ///< The command's own source location.

  // MitEnter / MitEnd.
  unsigned Eta = 0; ///< Mitigate site id η.
  Label MitLevel;   ///< The window's mitigation level ℓ.
  Label PcLabel;    ///< pc(M_η): static pc at the mitigate (Sec. 6.3).
  /// The site's prediction schedule, resolved once at lowering from the
  /// run's PolicySelection (per-site overrides land here). Borrowed — the
  /// policy objects outlive the IR. Null only in hand-built IR; engines
  /// fall back to the run default.
  const MitigationPolicy *Policy = nullptr;

  const Cmd *Origin = nullptr; ///< The source command this step came from.
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

/// A lowered program: static instruction array, micro-op pool and layout
/// metadata. Instruction 0 is the entry point; the last instruction is
/// always Halt.
struct IrProgram {
  std::vector<IrInstr> Instrs;
  std::vector<IrSlotInfo> Slots;
  /// The slot names, shared with the memory image of a compiled form.
  std::shared_ptr<const SlotNames> Names;
  /// The micro-op pool every instruction's spans point into.
  std::vector<IrUop> Uops;
  uint32_t NumRegs = 1;     ///< Register-file size the micro-ops need.
  uint32_t MaxMitDepth = 0; ///< Max static nesting of mitigate windows.

  uint32_t haltIndex() const {
    return static_cast<uint32_t>(Instrs.size()) - 1;
  }
};

/// Checks everything the execution core trusts without checking it again
/// at run time: successors in range, micro-op spans inside the pool, known
/// micro-op opcodes, every register a micro-op reads or writes (a
/// register-form binary operator's r[Dst+1] too) inside the register file,
/// every slot index (of a load, an element read or a store) inside the
/// slot table, the wrap modulus of an element read or an array store equal
/// to its slot's size, and a second span only on array stores. Returns
/// false and fills \p Err on the first violation.
bool verifyIr(const IrProgram &IR, std::string &Err);

} // namespace zam

#endif // ZAM_IR_IR_H

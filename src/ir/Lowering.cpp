//===- Lowering.cpp - AST → timing-IR lowering ----------------------------===//

#include "ir/Lowering.h"

#include "lang/StaticLabels.h"
#include "support/Casting.h"
#include "support/Diagnostics.h"

#include <algorithm>
#include <unordered_map>

using namespace zam;

namespace {

/// A forward reference: instruction \p Instr's fall-through (or taken)
/// successor is the first instruction of whatever block gets emitted next.
struct PatchRef {
  uint32_t Instr;
  bool Taken = false;
};

class Lowerer {
public:
  Lowerer(const Program &P, const CostModel &Costs,
          const PolicySelection &Policies)
      : P(P), Costs(Costs), Policies(Policies) {
    // Identical layout to Memory::fromProgram: declaration order,
    // contiguous 8-byte words from DataBase.
    Out.Names = SlotNames::of(P);
    Addr Next = Costs.DataBase;
    for (const VarDecl &D : P.vars()) {
      Out.Slots.push_back({D.SecLabel, D.IsArray, D.Size, Next});
      Next += D.Size * 8;
    }
  }

  IrProgram take(const Cmd &Root,
                 const std::unordered_map<unsigned, Label> &PcLabels) {
    Pc = &PcLabels;
    std::vector<PatchRef> Exits;
    lowerCmd(Root, 0, Exits);
    IrInstr Halt;
    Halt.K = IrInstr::Op::Halt;
    Halt.Read = P.lattice().bottom();
    Halt.Write = P.lattice().bottom();
    uint32_t HaltIdx = emit(std::move(Halt));
    Out.Instrs[HaltIdx].Next = HaltIdx;
    patch(Exits, HaltIdx);
    return std::move(Out);
  }

private:
  const Program &P;
  const CostModel &Costs;
  const PolicySelection &Policies;
  const std::unordered_map<unsigned, Label> *Pc = nullptr;
  IrProgram Out;
  unsigned MitDepth = 0;

  uint32_t emit(IrInstr I) {
    Out.Instrs.push_back(std::move(I));
    return static_cast<uint32_t>(Out.Instrs.size()) - 1;
  }

  void patch(std::vector<PatchRef> &Refs, uint32_t To) {
    for (PatchRef R : Refs) {
      IrInstr &I = Out.Instrs[R.Instr];
      (R.Taken ? I.Target : I.Next) = To;
    }
    Refs.clear();
  }

  const IrSlotInfo &resolve(const std::string &Name, uint32_t &SlotIdx) {
    auto It = Out.Names->Index.find(Name);
    if (It == Out.Names->Index.end())
      reportFatalError("access to undeclared variable");
    SlotIdx = static_cast<uint32_t>(It->second);
    return Out.Slots[It->second];
  }

  /// Appends \p E's micro-ops to the pool. \p Depth is the static
  /// value-stack depth before the operation; the operation's register is
  /// \p BaseReg plus its stack position.
  void lowerExprInto(const Expr &E, SourceLoc Inherited, uint32_t BaseReg,
                     uint32_t &Depth) {
    // The effective attribution location: the innermost valid source
    // location on the path from the command — exactly the tree engines'
    // LocScope narrowing.
    SourceLoc L = E.loc().isValid() ? E.loc() : Inherited;
    IrUop U;
    U.Loc = L;
    switch (E.kind()) {
    case Expr::Kind::IntLit:
      U.Kind = IrUop::K::Const;
      U.Imm = cast<IntLitExpr>(E).value();
      ++Depth;
      break;
    case Expr::Kind::Var:
      U.Kind = IrUop::K::Var;
      U.Base = resolve(cast<VarExpr>(E).name(), U.Slot).Base;
      ++Depth;
      break;
    case Expr::Kind::ArrayRead: {
      const auto &AR = cast<ArrayReadExpr>(E);
      lowerExprInto(AR.index(), L, BaseReg, Depth);
      U.Kind = IrUop::K::Elem; // Replaces the index with the element.
      const IrSlotInfo &S = resolve(AR.array(), U.Slot);
      U.Base = S.Base;
      U.Mod = S.Size;
      break;
    }
    case Expr::Kind::BinOp: {
      const auto &BO = cast<BinOpExpr>(E);
      lowerExprInto(BO.lhs(), L, BaseReg, Depth);
      // A literal right operand folds into the operator's immediate form
      // instead of taking a Const micro-op and a register of its own.
      if (const auto *Lit = dyn_cast<IntLitExpr>(&BO.rhs())) {
        U.Kind = IrUop::binKind(BO.op(), /*Imm=*/true);
        U.Imm = Lit->value();
        break;
      }
      lowerExprInto(BO.rhs(), L, BaseReg, Depth);
      U.Kind = IrUop::binKind(BO.op(), /*Imm=*/false);
      --Depth; // Two operands in, one result out.
      break;
    }
    case Expr::Kind::UnOp: {
      const auto &UO = cast<UnOpExpr>(E);
      lowerExprInto(UO.sub(), L, BaseReg, Depth);
      U.Kind = IrUop::unKind(UO.op());
      break;
    }
    }
    // Every kind leaves its result on top of the stack.
    U.Dst = static_cast<uint16_t>(BaseReg + Depth - 1);
    Out.NumRegs = std::max(Out.NumRegs, BaseReg + Depth);
    Out.Uops.push_back(U);
  }

  /// Lowers \p E, evaluated by \p C, into the span [\p U, \p U + \p N)
  /// with registers based at \p BaseReg; the result lands in r[BaseReg].
  void lowerExprFor(const Expr &E, const Cmd &C, uint32_t BaseReg,
                    uint32_t &U, uint32_t &N) {
    U = static_cast<uint32_t>(Out.Uops.size());
    uint32_t Depth = 0;
    lowerExprInto(E, C.loc(), BaseReg, Depth);
    N = static_cast<uint32_t>(Out.Uops.size()) - U;
  }

  /// The static skeleton shared by every instruction lowered from \p C.
  IrInstr base(const Cmd &C) {
    IrInstr I;
    I.Read = *C.labels().Read;
    I.Write = *C.labels().Write;
    I.CodeAddr = Costs.codeAddr(C.nodeId());
    I.Loc = C.loc();
    I.Origin = &C;
    return I;
  }

  void lowerCmd(const Cmd &C, unsigned Depth, std::vector<PatchRef> &Exits) {
    // Sequential composition takes no evaluation step: it vanishes here,
    // leaving only its components' instructions.
    if (C.kind() == Cmd::Kind::Seq) {
      const auto &S = cast<SeqCmd>(C);
      std::vector<PatchRef> FirstExits;
      lowerCmd(S.first(), Depth, FirstExits);
      patch(FirstExits, static_cast<uint32_t>(Out.Instrs.size()));
      lowerCmd(S.second(), Depth, Exits);
      return;
    }

    if (!C.labels().complete())
      reportFatalError("command lacks timing labels; run label inference");

    switch (C.kind()) {
    case Cmd::Kind::Skip: {
      IrInstr I = base(C);
      I.K = IrInstr::Op::Skip;
      Exits.push_back({emit(std::move(I))});
      return;
    }

    case Cmd::Kind::Assign: {
      const auto &A = cast<AssignCmd>(C);
      IrInstr I = base(C);
      I.K = IrInstr::Op::Assign;
      const IrSlotInfo &S = resolve(A.var(), I.Slot);
      I.SlotBase = S.Base;
      lowerExprFor(A.value(), C, 0, I.U0, I.N0);
      Exits.push_back({emit(std::move(I))});
      return;
    }

    case Cmd::Kind::ArrayAssign: {
      const auto &A = cast<ArrayAssignCmd>(C);
      IrInstr I = base(C);
      I.K = IrInstr::Op::ArrayAssign;
      const IrSlotInfo &S = resolve(A.array(), I.Slot);
      I.SlotBase = S.Base;
      I.ElemCount = S.Size;
      lowerExprFor(A.index(), C, 0, I.U0, I.N0);
      // The stored value evaluates with the index still live in r0.
      lowerExprFor(A.value(), C, 1, I.U1, I.N1);
      Exits.push_back({emit(std::move(I))});
      return;
    }

    case Cmd::Kind::If: {
      const auto &If = cast<IfCmd>(C);
      IrInstr I = base(C);
      I.K = IrInstr::Op::Branch;
      lowerExprFor(If.cond(), C, 0, I.U0, I.N0);
      uint32_t B = emit(std::move(I));
      Out.Instrs[B].Target = B + 1; // Then-block follows immediately.
      lowerCmd(If.thenCmd(), Depth, Exits);
      std::vector<PatchRef> FalseRef{{B, /*Taken=*/false}};
      patch(FalseRef, static_cast<uint32_t>(Out.Instrs.size()));
      lowerCmd(If.elseCmd(), Depth, Exits);
      return;
    }

    case Cmd::Kind::While: {
      const auto &W = cast<WhileCmd>(C);
      IrInstr I = base(C);
      I.K = IrInstr::Op::Branch;
      I.IsLoop = true;
      lowerExprFor(W.cond(), C, 0, I.U0, I.N0);
      uint32_t B = emit(std::move(I));
      Out.Instrs[B].Target = B + 1; // Body follows immediately.
      std::vector<PatchRef> BodyExits;
      lowerCmd(W.body(), Depth, BodyExits);
      patch(BodyExits, B); // Back edge: re-evaluate the guard.
      Exits.push_back({B, /*Taken=*/false});
      return;
    }

    case Cmd::Kind::Sleep: {
      const auto &S = cast<SleepCmd>(C);
      IrInstr I = base(C);
      I.K = IrInstr::Op::Sleep;
      lowerExprFor(S.duration(), C, 0, I.U0, I.N0);
      Exits.push_back({emit(std::move(I))});
      return;
    }

    case Cmd::Kind::Mitigate: {
      const auto &M = cast<MitigateCmd>(C);
      Out.MaxMitDepth = std::max(Out.MaxMitDepth, Depth + 1);

      IrInstr Enter = base(C);
      Enter.K = IrInstr::Op::MitEnter;
      Enter.Eta = M.mitigateId();
      Enter.MitLevel = M.mitLevel();
      Enter.Policy = &Policies.forSite(M.mitigateId());
      auto PcIt = Pc->find(C.nodeId());
      Enter.PcLabel = PcIt != Pc->end() ? PcIt->second : P.lattice().bottom();
      lowerExprFor(M.initialEstimate(), C, 0, Enter.U0, Enter.N0);
      uint32_t E = emit(std::move(Enter));
      Out.Instrs[E].Next = E + 1; // Body follows immediately.

      std::vector<PatchRef> BodyExits;
      lowerCmd(M.body(), Depth + 1, BodyExits);

      // The window settlement (the paper's MitigateEnd continuation): no
      // instruction fetch, [⊥,⊥] — the update/pad tail leaks no
      // machine-environment information. It inherits the mitigate's
      // source location so padding attributes to the mitigate line.
      IrInstr End;
      End.K = IrInstr::Op::MitEnd;
      End.Read = P.lattice().bottom();
      End.Write = P.lattice().bottom();
      End.Loc = C.loc();
      End.Origin = &C;
      End.Eta = M.mitigateId();
      End.MitLevel = M.mitLevel();
      End.Policy = &Policies.forSite(M.mitigateId());
      uint32_t EndIdx = emit(std::move(End));
      patch(BodyExits, EndIdx);
      Exits.push_back({EndIdx});
      return;
    }

    case Cmd::Kind::Seq:
      break; // Handled above.
    }
    reportFatalError("unexpected command kind in IR lowering");
  }
};

} // namespace

IrProgram zam::lowerProgram(const Program &P, const CostModel &Costs,
                            const PolicySelection &Policies) {
  if (!P.hasBody())
    reportFatalError("program has no body");
  return Lowerer(P, Costs, Policies).take(P.body(), computePcLabels(P));
}

IrProgram zam::lowerCommand(const Program &P, const Cmd &C,
                            const CostModel &Costs,
                            const PolicySelection &Policies) {
  return Lowerer(P, Costs, Policies).take(C, computePcLabels(C, P));
}

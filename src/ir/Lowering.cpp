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

  void lowerExprInto(const Expr &E, SourceLoc Inherited, IrExpr &Ex,
                     uint32_t &Depth) {
    // The effective attribution location: the innermost valid source
    // location on the path from the command — exactly the tree engines'
    // LocScope narrowing.
    SourceLoc L = E.loc().isValid() ? E.loc() : Inherited;
    ExprOp Op;
    Op.Loc = L;
    switch (E.kind()) {
    case Expr::Kind::IntLit:
      Op.K = ExprOp::Kind::PushConst;
      Op.Const = cast<IntLitExpr>(E).value();
      push(Ex, Op, Depth);
      return;
    case Expr::Kind::Var: {
      Op.K = ExprOp::Kind::LoadVar;
      const IrSlotInfo &S = resolve(cast<VarExpr>(E).name(), Op.Slot);
      Op.Base = S.Base;
      push(Ex, Op, Depth);
      return;
    }
    case Expr::Kind::ArrayRead: {
      const auto &AR = cast<ArrayReadExpr>(E);
      lowerExprInto(AR.index(), L, Ex, Depth);
      Op.K = ExprOp::Kind::LoadElem;
      const IrSlotInfo &S = resolve(AR.array(), Op.Slot);
      Op.Base = S.Base;
      Op.ElemCount = S.Size;
      Ex.Ops.push_back(Op); // Pops the index, pushes the element.
      return;
    }
    case Expr::Kind::BinOp: {
      const auto &BO = cast<BinOpExpr>(E);
      lowerExprInto(BO.lhs(), L, Ex, Depth);
      lowerExprInto(BO.rhs(), L, Ex, Depth);
      Op.K = ExprOp::Kind::Bin;
      Op.BinOp = BO.op();
      Ex.Ops.push_back(Op);
      --Depth; // Pops two, pushes one.
      return;
    }
    case Expr::Kind::UnOp: {
      const auto &UO = cast<UnOpExpr>(E);
      lowerExprInto(UO.sub(), L, Ex, Depth);
      Op.K = ExprOp::Kind::Un;
      Op.UnOp = UO.op();
      Ex.Ops.push_back(Op);
      return;
    }
    }
  }

  void push(IrExpr &Ex, const ExprOp &Op, uint32_t &Depth) {
    Ex.Ops.push_back(Op);
    ++Depth;
    Ex.MaxDepth = std::max(Ex.MaxDepth, Depth);
    Out.MaxEvalDepth = std::max(Out.MaxEvalDepth, Ex.MaxDepth);
  }

  IrExpr lowerExprFor(const Expr &E, const Cmd &C) {
    IrExpr Ex;
    uint32_t Depth = 0;
    lowerExprInto(E, C.loc(), Ex, Depth);
    return Ex;
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
      I.E0 = lowerExprFor(A.value(), C);
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
      I.E0 = lowerExprFor(A.index(), C);
      I.E1 = lowerExprFor(A.value(), C);
      Exits.push_back({emit(std::move(I))});
      return;
    }

    case Cmd::Kind::If: {
      const auto &If = cast<IfCmd>(C);
      IrInstr I = base(C);
      I.K = IrInstr::Op::Branch;
      I.E0 = lowerExprFor(If.cond(), C);
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
      I.E0 = lowerExprFor(W.cond(), C);
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
      I.E0 = lowerExprFor(S.duration(), C);
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
      Enter.E0 = lowerExprFor(M.initialEstimate(), C);
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

//===- LirLowering.cpp - Flattening the timing-IR into the LIR ------------===//
//
// The second lowering stage: postfix value-stack expressions become
// register-transfer micro-ops. The register allocator is the postfix
// evaluator run at compile time over stack *positions* instead of values —
// the depth of the stack before each operation is static, so each
// operation's operand/result slots become fixed register indices and the
// run-time stack disappears entirely.
//
//===----------------------------------------------------------------------===//

#include "ir/Lir.h"

#include <algorithm>
#include <cassert>

using namespace zam;

LirProgram zam::lowerToLir(const IrProgram &IR) {
  LirProgram L;
  L.IR = &IR;
  L.Insts.reserve(IR.Instrs.size());
  size_t TotalUops = 0;
  for (const IrInstr &I : IR.Instrs)
    TotalUops += I.E0.Ops.size() + I.E1.Ops.size();
  L.Uops.reserve(TotalUops);

  uint32_t MaxRegs = 1;
  // Emits \p E's micro-ops with registers based at \p BaseReg, recording
  // the span in (U, N). The result lands in r[BaseReg].
  auto emitExpr = [&](const IrExpr &E, uint32_t BaseReg, uint32_t &U,
                      uint32_t &N) {
    U = static_cast<uint32_t>(L.Uops.size());
    N = static_cast<uint32_t>(E.Ops.size());
    uint32_t Depth = 0; // Static stack depth before the current op.
    for (const ExprOp &Op : E.Ops) {
      LirUop M;
      switch (Op.K) {
      case ExprOp::Kind::PushConst:
        M.Kind = LirUop::K::Const;
        M.Dst = static_cast<uint16_t>(BaseReg + Depth);
        M.Imm = Op.Const;
        ++Depth;
        break;
      case ExprOp::Kind::LoadVar:
        M.Kind = LirUop::K::Var;
        M.Dst = static_cast<uint16_t>(BaseReg + Depth);
        M.Slot = Op.Slot;
        M.Base = Op.Base;
        M.Loc = Op.Loc;
        ++Depth;
        break;
      case ExprOp::Kind::LoadElem:
        assert(Depth >= 1 && "elem needs its index on the stack");
        M.Kind = LirUop::K::Elem;
        M.Dst = static_cast<uint16_t>(BaseReg + Depth - 1);
        M.Slot = Op.Slot;
        M.Base = Op.Base;
        M.Mod = Op.ElemCount;
        M.Loc = Op.Loc;
        break;
      case ExprOp::Kind::Bin:
        assert(Depth >= 2 && "binary op needs two operands");
        M.Kind = LirUop::K::Bin;
        M.Dst = static_cast<uint16_t>(BaseReg + Depth - 2);
        M.Op2 = static_cast<uint8_t>(Op.BinOp);
        --Depth;
        break;
      case ExprOp::Kind::Un:
        assert(Depth >= 1 && "unary op needs its operand");
        M.Kind = LirUop::K::Un;
        M.Dst = static_cast<uint16_t>(BaseReg + Depth - 1);
        M.Op2 = static_cast<uint8_t>(Op.UnOp);
        break;
      }
      MaxRegs = std::max(MaxRegs, BaseReg + Depth);
      L.Uops.push_back(M);
    }
    assert((E.Ops.empty() || Depth == 1) &&
           "postfix expression must net exactly one value");
  };

  for (const IrInstr &I : IR.Instrs) {
    LirInst Out;
    Out.K = I.K;
    Out.Next = I.Next;
    Out.Target = I.Target;
    Out.Read = I.Read;
    Out.Write = I.Write;
    Out.CodeAddr = I.CodeAddr;
    Out.Slot = I.Slot;
    Out.SlotBase = I.SlotBase;
    Out.ElemCount = I.ElemCount;
    Out.Loc = I.Loc;
    Out.Eta = I.Eta;
    Out.MitLevel = I.MitLevel;
    Out.PcLabel = I.PcLabel;
    Out.Policy = I.Policy;
    Out.Origin = I.Origin;
    emitExpr(I.E0, /*BaseReg=*/0, Out.U0, Out.N0);
    // The stored value of a[E0] := E1 evaluates with the index still live
    // in r0, so its registers are based one higher; its result is r1.
    emitExpr(I.E1, /*BaseReg=*/1, Out.U1, Out.N1);
    L.Insts.push_back(Out);
  }

  L.NumRegs = MaxRegs;
  return L;
}

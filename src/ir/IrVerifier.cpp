//===- IrVerifier.cpp - Structural checks of the lowered program ----------===//

#include "ir/Ir.h"

using namespace zam;

bool zam::verifyIr(const IrProgram &IR, std::string &Err) {
  auto Fail = [&](std::string Msg) {
    Err = std::move(Msg);
    return false;
  };
  if (IR.Instrs.empty() || IR.Instrs.back().K != IrInstr::Op::Halt)
    return Fail("program must end in halt");
  if (IR.NumRegs < 1)
    return Fail("register file must hold at least one register");
  const uint32_t N = static_cast<uint32_t>(IR.Instrs.size());
  // The engine indexes registers, slot storage and array elements with
  // what the micro-ops say, unchecked.
  auto UopError = [&](const IrUop &U) -> const char * {
    if (static_cast<unsigned>(U.Kind) >= IrUop::kNumKinds)
      return "micro-op opcode out of range";
    if (U.Dst >= IR.NumRegs ||
        (IrUop::isBinReg(U.Kind) && U.Dst + 1u >= IR.NumRegs))
      return "micro-op register out of range";
    if (U.Kind == IrUop::K::Var || U.Kind == IrUop::K::Elem) {
      if (U.Slot >= IR.Slots.size())
        return "micro-op slot out of range";
      if (U.Kind == IrUop::K::Elem && U.Mod != IR.Slots[U.Slot].Size)
        return "element modulus differs from the slot's size";
    }
    return nullptr;
  };
  auto SpanError = [&](uint32_t U, uint32_t Len) -> const char * {
    if (static_cast<size_t>(U) + Len > IR.Uops.size())
      return "micro-op span out of range";
    for (uint32_t I = U; I != U + Len; ++I)
      if (const char *E = UopError(IR.Uops[I]))
        return E;
    return nullptr;
  };
  for (uint32_t I = 0; I != N; ++I) {
    const IrInstr &In = IR.Instrs[I];
    const std::string At = "inst " + std::to_string(I) + ": ";
    if (In.K != IrInstr::Op::Halt && In.Next >= N)
      return Fail(At + "fall-through successor out of range");
    if (In.K == IrInstr::Op::Branch && In.Target >= N)
      return Fail(At + "branch target out of range");
    if (In.N1 && In.K != IrInstr::Op::ArrayAssign)
      return Fail(At + "only array stores carry a second expression");
    if (In.K == IrInstr::Op::Assign || In.K == IrInstr::Op::ArrayAssign) {
      if (In.Slot >= IR.Slots.size())
        return Fail(At + "store slot out of range");
      if (In.K == IrInstr::Op::ArrayAssign &&
          In.ElemCount != IR.Slots[In.Slot].Size)
        return Fail(At + "element count differs from the slot's size");
    }
    if (const char *E = SpanError(In.U0, In.N0))
      return Fail(At + E);
    if (const char *E = SpanError(In.U1, In.N1))
      return Fail(At + E);
  }
  return true;
}

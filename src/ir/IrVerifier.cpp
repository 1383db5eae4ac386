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
  auto SpanOk = [&](uint32_t U, uint32_t Len) {
    if (static_cast<size_t>(U) + Len > IR.Uops.size())
      return false;
    for (uint32_t I = U; I != U + Len; ++I)
      if (IR.Uops[I].Dst >= IR.NumRegs)
        return false;
    return true;
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
    if (!SpanOk(In.U0, In.N0) || !SpanOk(In.U1, In.N1))
      return Fail(At + "micro-op span or register out of range");
  }
  return true;
}

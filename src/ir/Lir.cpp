//===- Lir.cpp - LIR printing and structural verification -----------------===//

#include "ir/Lir.h"

#include "ir/IrPrinter.h"
#include "lattice/SecurityLattice.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

using namespace zam;

namespace {

std::string fmt(const char *Format, ...) {
  char Buf[256];
  va_list Args;
  va_start(Args, Format);
  std::vsnprintf(Buf, sizeof(Buf), Format, Args);
  va_end(Args);
  return Buf;
}

std::string slotRef(const LirProgram &L, uint32_t Slot) {
  std::string S = "%" + std::to_string(Slot);
  if (L.IR && Slot < L.IR->Slots.size())
    S += ":" + L.IR->Names->Names[Slot];
  return S;
}

std::string uopText(const LirProgram &L, const LirUop &U) {
  std::string S;
  switch (U.Kind) {
  case LirUop::K::Const:
    S = fmt("const %" PRId64, U.Imm);
    break;
  case LirUop::K::Var:
    S = "load " + slotRef(L, U.Slot) +
        fmt(" @0x%" PRIx64, static_cast<uint64_t>(U.Base));
    break;
  case LirUop::K::Elem:
    S = "elem " + slotRef(L, U.Slot) +
        fmt("[r%u mod %" PRIu64 "] @0x%" PRIx64, U.Dst, U.Mod,
            static_cast<uint64_t>(U.Base));
    break;
  case LirUop::K::Bin:
    S = fmt("bin '%s' r%u r%u",
            binOpSpelling(static_cast<BinOpKind>(U.Op2)), U.Dst, U.Dst + 1);
    break;
  case LirUop::K::Un:
    S = fmt("un '%s' r%u", unOpSpelling(static_cast<UnOpKind>(U.Op2)), U.Dst);
    break;
  }
  S += fmt(" -> r%u", U.Dst);
  if ((U.Kind == LirUop::K::Var || U.Kind == LirUop::K::Elem) &&
      U.Loc.isValid())
    S += fmt(" line=%u", U.Loc.Line);
  return S;
}

} // namespace

std::string zam::printLir(const LirProgram &L, const SecurityLattice &Lat) {
  std::string Out =
      fmt("lir: %zu instructions, %zu uops, %u regs\n", L.Insts.size(),
          L.Uops.size(), L.NumRegs);
  if (L.IR)
    for (size_t I = 0; I != L.IR->Slots.size(); ++I) {
      const IrSlotInfo &S = L.IR->Slots[I];
      Out += fmt("  slot %%%zu: %s : %s %s[%" PRIu64 "] @0x%" PRIx64 "\n",
                 I, L.IR->Names->Names[I].c_str(),
                 Lat.name(S.SecLabel).c_str(),
                 S.IsArray ? "array" : "scalar", S.Size,
                 static_cast<uint64_t>(S.Base));
    }
  for (uint32_t I = 0; I != L.Insts.size(); ++I) {
    Out += fmt("  %3u: ", I);
    if (L.IR)
      Out += printIrInstr(*L.IR, I, Lat);
    else
      Out += irOpName(L.Insts[I].K);
    Out += "\n";
    const LirInst &In = L.Insts[I];
    for (uint32_t U = In.U0; U != In.U0 + In.N0; ++U)
      Out += fmt("       u%-3u ", U) + uopText(L, L.Uops[U]) + "\n";
    for (uint32_t U = In.U1; U != In.U1 + In.N1; ++U)
      Out += fmt("       u%-3u ", U) + uopText(L, L.Uops[U]) + "\n";
  }
  return Out;
}

bool zam::verifyLir(const LirProgram &L, std::string &Err) {
  auto Fail = [&](std::string Msg) {
    Err = std::move(Msg);
    return false;
  };
  if (!L.IR)
    return Fail("LIR has no IR tier attached");
  const IrProgram &IR = *L.IR;
  if (L.Insts.size() != IR.Instrs.size())
    return Fail("LIR/IR instruction counts differ");
  if (L.NumRegs < 1)
    return Fail("register file must hold at least one register");
  const uint32_t N = static_cast<uint32_t>(L.Insts.size());
  for (uint32_t I = 0; I != N; ++I) {
    const LirInst &In = L.Insts[I];
    const IrInstr &Ir = IR.Instrs[I];
    const std::string At = "inst " + std::to_string(I) + ": ";
    if (In.K != Ir.K)
      return Fail(At + "opcode differs from IR tier");
    if (In.Next != Ir.Next || In.Target != Ir.Target)
      return Fail(At + "successors differ from IR tier");
    if (In.K != IrInstr::Op::Halt && In.Next >= N)
      return Fail(At + "fall-through successor out of range");
    if (In.K == IrInstr::Op::Branch && In.Target >= N)
      return Fail(At + "branch target out of range");
    if (In.N0 != Ir.E0.Ops.size() || In.N1 != Ir.E1.Ops.size())
      return Fail(At + "micro-op span length differs from postfix length");
    if (static_cast<size_t>(In.U0) + In.N0 > L.Uops.size() ||
        static_cast<size_t>(In.U1) + In.N1 > L.Uops.size())
      return Fail(At + "micro-op span out of range");
    if (In.N1 && In.K != IrInstr::Op::ArrayAssign)
      return Fail(At + "only array stores carry a second expression");
    for (uint32_t U = In.U0; U != In.U0 + In.N0; ++U)
      if (L.Uops[U].Dst >= L.NumRegs)
        return Fail(At + "micro-op register out of range");
    for (uint32_t U = In.U1; U != In.U1 + In.N1; ++U)
      if (L.Uops[U].Dst >= L.NumRegs)
        return Fail(At + "micro-op register out of range");
  }
  return true;
}

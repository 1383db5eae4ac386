//===- IrPrinter.cpp - Textual dump of the timing-IR ----------------------===//

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

std::string slotRef(const IrProgram &IR, uint32_t Slot) {
  std::string S = "%" + std::to_string(Slot);
  if (Slot < IR.Slots.size())
    S += ":" + IR.Names->Names[Slot];
  return S;
}

/// One micro-op: its postfix mnemonic as the instruction line shows it
/// ("elem %1:a[mod 4]"), or with \p Regs its full register-transfer form
/// ("elem %1:a[r0 mod 4] @0x10000008 -> r0 line=3").
std::string uopText(const IrProgram &IR, const IrUop &U, bool Regs) {
  const bool IsLoad = U.Kind == IrUop::K::Var || U.Kind == IrUop::K::Elem;
  std::string S;
  switch (U.Kind) {
  case IrUop::K::Const:
    S = fmt("const %" PRId64, U.Imm);
    break;
  case IrUop::K::Var:
    S = "load " + slotRef(IR, U.Slot);
    break;
  case IrUop::K::Elem:
    S = "elem " + slotRef(IR, U.Slot) + (Regs ? fmt("[r%u ", U.Dst) : "[") +
        fmt("mod %" PRIu64 "]", U.Mod);
    break;
  case IrUop::K::Bin:
    S = fmt("bin '%s'", binOpSpelling(static_cast<BinOpKind>(U.Op2)));
    if (Regs)
      S += fmt(" r%u r%u", U.Dst, U.Dst + 1);
    break;
  case IrUop::K::Un:
    S = fmt("un '%s'", unOpSpelling(static_cast<UnOpKind>(U.Op2)));
    if (Regs)
      S += fmt(" r%u", U.Dst);
    break;
  }
  if (!Regs)
    return S;
  if (IsLoad)
    S += fmt(" @0x%" PRIx64, static_cast<uint64_t>(U.Base));
  S += fmt(" -> r%u", U.Dst);
  if (IsLoad && U.Loc.isValid())
    S += fmt(" line=%u", U.Loc.Line);
  return S;
}

/// The span [U, U+N) in postfix, e.g. "load %1:x; const 3; bin '+'".
std::string exprText(const IrProgram &IR, uint32_t U, uint32_t N) {
  std::string S;
  for (uint32_t I = U; I != U + N; ++I) {
    if (!S.empty())
      S += "; ";
    S += uopText(IR, IR.Uops[I], /*Regs=*/false);
  }
  return S;
}

} // namespace

const char *zam::irOpName(IrInstr::Op K) {
  switch (K) {
  case IrInstr::Op::Skip:
    return "skip";
  case IrInstr::Op::Assign:
    return "assign";
  case IrInstr::Op::ArrayAssign:
    return "store";
  case IrInstr::Op::Branch:
    return "branch";
  case IrInstr::Op::Sleep:
    return "sleep";
  case IrInstr::Op::MitEnter:
    return "mitenter";
  case IrInstr::Op::MitEnd:
    return "mitend";
  case IrInstr::Op::Halt:
    return "halt";
  }
  return "?";
}

std::string zam::printIrInstr(const IrProgram &IR, uint32_t I,
                              const SecurityLattice &Lat) {
  const IrInstr &In = IR.Instrs[I];
  std::string Line;
  auto Labels = [&] {
    return " [" + Lat.name(In.Read) + "," + Lat.name(In.Write) + "]";
  };
  auto Common = [&] {
    std::string S = Labels() + fmt(" code=0x%" PRIx64,
                                   static_cast<uint64_t>(In.CodeAddr));
    if (In.Loc.isValid())
      S += fmt(" line=%u", In.Loc.Line);
    return S;
  };
  switch (In.K) {
  case IrInstr::Op::Skip:
    Line += "skip" + Common() + fmt(" -> %u", In.Next);
    break;
  case IrInstr::Op::Assign:
    Line += fmt("assign %%%u", In.Slot);
    if (In.Slot < IR.Slots.size())
      Line += ":" + IR.Names->Names[In.Slot];
    Line += " <- {" + exprText(IR, In.U0, In.N0) + "}" + Common() +
            fmt(" -> %u", In.Next);
    break;
  case IrInstr::Op::ArrayAssign:
    Line += fmt("store %%%u", In.Slot);
    if (In.Slot < IR.Slots.size())
      Line += ":" + IR.Names->Names[In.Slot];
    Line += "[{" + exprText(IR, In.U0, In.N0) + "}] <- {" + exprText(IR, In.U1, In.N1) +
            "}" + Common() + fmt(" -> %u", In.Next);
    break;
  case IrInstr::Op::Branch:
    Line += std::string(In.IsLoop ? "loop" : "branch") + " {" +
            exprText(IR, In.U0, In.N0) + "}" + Common() +
            fmt(" true->%u false->%u", In.Target, In.Next);
    break;
  case IrInstr::Op::Sleep:
    Line += "sleep {" + exprText(IR, In.U0, In.N0) + "}" + Labels() +
            (In.Loc.isValid() ? fmt(" line=%u", In.Loc.Line) : "") +
            fmt(" -> %u", In.Next);
    break;
  case IrInstr::Op::MitEnter:
    Line += fmt("mitenter eta=%u level=%s pc=%s est={", In.Eta,
                Lat.name(In.MitLevel).c_str(),
                Lat.name(In.PcLabel).c_str()) +
            exprText(IR, In.U0, In.N0) + "}" + Common() + fmt(" -> %u", In.Next);
    break;
  case IrInstr::Op::MitEnd:
    Line += fmt("mitend eta=%u", In.Eta) + Labels() +
            (In.Loc.isValid() ? fmt(" line=%u", In.Loc.Line) : "") +
            fmt(" -> %u", In.Next);
    break;
  case IrInstr::Op::Halt:
    Line += "halt";
    break;
  }
  return Line;
}

std::string zam::printIr(const IrProgram &IR, const SecurityLattice &Lat) {
  std::string Out = fmt("ir: %zu instructions, %zu slots, %zu uops, %u regs, "
                        "max mitigate depth %u\n",
                        IR.Instrs.size(), IR.Slots.size(), IR.Uops.size(),
                        IR.NumRegs, IR.MaxMitDepth);
  for (size_t I = 0; I != IR.Slots.size(); ++I) {
    const IrSlotInfo &S = IR.Slots[I];
    Out += fmt("  slot %%%zu: %s : %s %s[%" PRIu64 "] @0x%" PRIx64 "\n", I,
               IR.Names->Names[I].c_str(), Lat.name(S.SecLabel).c_str(),
               S.IsArray ? "array" : "scalar", S.Size,
               static_cast<uint64_t>(S.Base));
  }
  auto Span = [&](uint32_t First, uint32_t N) {
    for (uint32_t U = First; U != First + N; ++U)
      Out += fmt("       u%-3u ", U) +
             uopText(IR, IR.Uops[U], /*Regs=*/true) + "\n";
  };
  for (uint32_t I = 0; I != IR.Instrs.size(); ++I) {
    Out += fmt("  %3u: ", I) + printIrInstr(IR, I, Lat) + "\n";
    Span(IR.Instrs[I].U0, IR.Instrs[I].N0);
    Span(IR.Instrs[I].U1, IR.Instrs[I].N1);
  }
  return Out;
}

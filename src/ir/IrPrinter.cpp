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
  // Appended: GCC 12 at -O3 warns (-Wrestrict, a false positive) on
  // "%" + std::to_string(Slot).
  std::string S = "%";
  S += std::to_string(Slot);
  if (Slot < IR.Slots.size())
    S += ":" + IR.Names->Names[Slot];
  return S;
}

const char *binMnemonic(BinOpKind Op) {
  switch (Op) {
#define ZAM_IR_X(Name, Mnemonic)                                              \
  case BinOpKind::Name:                                                        \
    return Mnemonic;
    ZAM_IR_BINOPS(ZAM_IR_X)
#undef ZAM_IR_X
  }
  return "?";
}

const char *unMnemonic(UnOpKind Op) {
  switch (Op) {
#define ZAM_IR_X(Name, Mnemonic)                                              \
  case UnOpKind::Name:                                                         \
    return Mnemonic;
    ZAM_IR_UNOPS(ZAM_IR_X)
#undef ZAM_IR_X
  }
  return "?";
}

/// One micro-op in the postfix the instruction line shows ("elem
/// %1:a[mod 4]"). An immediate-form operator shows as the Const it folded
/// and the operator ("const 1; bin '>>'"), so the line reads the same
/// whether or not lowering folded the literal.
std::string uopPostfix(const IrProgram &IR, const IrUop &U) {
  const IrUop::K K = U.Kind;
  if (IrUop::isBinReg(K))
    return fmt("bin '%s'", binOpSpelling(IrUop::binOpOf(K)));
  if (IrUop::isBinImm(K))
    return fmt("const %" PRId64 "; bin '%s'", U.Imm,
               binOpSpelling(IrUop::binOpOf(K)));
  if (IrUop::isUnary(K))
    return fmt("un '%s'", unOpSpelling(IrUop::unOpOf(K)));
  switch (K) {
  case IrUop::K::Const:
    return fmt("const %" PRId64, U.Imm);
  case IrUop::K::Var:
    return "load " + slotRef(IR, U.Slot);
  case IrUop::K::Elem:
    return "elem " + slotRef(IR, U.Slot) + fmt("[mod %" PRIu64 "]", U.Mod);
  default:
    return "?";
  }
}

/// One micro-op in its full register-transfer form, one opcode per line
/// ("elem %1:a[r0 mod 4] @0x10000008 -> r0 line=3", "shr r0 #1 -> r0").
std::string uopRegs(const IrProgram &IR, const IrUop &U) {
  const IrUop::K K = U.Kind;
  if (IrUop::isBinReg(K))
    return fmt("%s r%u r%u -> r%u", binMnemonic(IrUop::binOpOf(K)), U.Dst,
               U.Dst + 1, U.Dst);
  if (IrUop::isBinImm(K))
    return fmt("%s r%u #%" PRId64 " -> r%u", binMnemonic(IrUop::binOpOf(K)),
               U.Dst, U.Imm, U.Dst);
  if (IrUop::isUnary(K))
    return fmt("%s r%u -> r%u", unMnemonic(IrUop::unOpOf(K)), U.Dst, U.Dst);
  std::string S;
  switch (K) {
  case IrUop::K::Const:
    return fmt("const %" PRId64 " -> r%u", U.Imm, U.Dst);
  case IrUop::K::Var:
    S = "load " + slotRef(IR, U.Slot);
    break;
  case IrUop::K::Elem:
    S = "elem " + slotRef(IR, U.Slot) +
        fmt("[r%u mod %" PRIu64 "]", U.Dst, U.Mod);
    break;
  default:
    return fmt("? -> r%u", U.Dst);
  }
  S += fmt(" @0x%" PRIx64 " -> r%u", static_cast<uint64_t>(U.Base), U.Dst);
  if (U.Loc.isValid())
    S += fmt(" line=%u", U.Loc.Line);
  return S;
}

/// The span [U, U+N) in postfix, e.g. "load %1:x; const 3; bin '+'".
std::string exprText(const IrProgram &IR, uint32_t U, uint32_t N) {
  std::string S;
  for (uint32_t I = U; I != U + N; ++I) {
    if (!S.empty())
      S += "; ";
    S += uopPostfix(IR, IR.Uops[I]);
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
      Out += fmt("       u%-3u ", U) + uopRegs(IR, IR.Uops[U]) + "\n";
  };
  for (uint32_t I = 0; I != IR.Instrs.size(); ++I) {
    Out += fmt("  %3u: ", I) + printIrInstr(IR, I, Lat) + "\n";
    Span(IR.Instrs[I].U0, IR.Instrs[I].N0);
    Span(IR.Instrs[I].U1, IR.Instrs[I].N1);
  }
  return Out;
}

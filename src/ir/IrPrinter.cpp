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

std::string opText(const ExprOp &Op, const IrProgram *IR) {
  auto SlotRef = [&](uint32_t Slot) {
    std::string S = "%" + std::to_string(Slot);
    if (IR && Slot < IR->Slots.size())
      S += ":" + IR->Names->Names[Slot];
    return S;
  };
  switch (Op.K) {
  case ExprOp::Kind::PushConst:
    return fmt("const %" PRId64, Op.Const);
  case ExprOp::Kind::LoadVar:
    return "load " + SlotRef(Op.Slot);
  case ExprOp::Kind::LoadElem:
    return "elem " + SlotRef(Op.Slot) +
           fmt("[mod %" PRIu64 "]", Op.ElemCount);
  case ExprOp::Kind::Bin:
    return fmt("bin '%s'", binOpSpelling(Op.BinOp));
  case ExprOp::Kind::Un:
    return fmt("un '%s'", unOpSpelling(Op.UnOp));
  }
  return "?";
}

std::string exprText(const IrExpr &E, const IrProgram *IR) {
  std::string S;
  for (const ExprOp &Op : E.Ops) {
    if (!S.empty())
      S += "; ";
    S += opText(Op, IR);
  }
  return S;
}

} // namespace

std::string zam::printIrExpr(const IrExpr &E) { return exprText(E, nullptr); }

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
    Line += " <- {" + exprText(In.E0, &IR) + "}" + Common() +
            fmt(" -> %u", In.Next);
    break;
  case IrInstr::Op::ArrayAssign:
    Line += fmt("store %%%u", In.Slot);
    if (In.Slot < IR.Slots.size())
      Line += ":" + IR.Names->Names[In.Slot];
    Line += "[{" + exprText(In.E0, &IR) + "}] <- {" + exprText(In.E1, &IR) +
            "}" + Common() + fmt(" -> %u", In.Next);
    break;
  case IrInstr::Op::Branch:
    Line += std::string(In.IsLoop ? "loop" : "branch") + " {" +
            exprText(In.E0, &IR) + "}" + Common() +
            fmt(" true->%u false->%u", In.Target, In.Next);
    break;
  case IrInstr::Op::Sleep:
    Line += "sleep {" + exprText(In.E0, &IR) + "}" + Labels() +
            (In.Loc.isValid() ? fmt(" line=%u", In.Loc.Line) : "") +
            fmt(" -> %u", In.Next);
    break;
  case IrInstr::Op::MitEnter:
    Line += fmt("mitenter eta=%u level=%s pc=%s est={", In.Eta,
                Lat.name(In.MitLevel).c_str(),
                Lat.name(In.PcLabel).c_str()) +
            exprText(In.E0, &IR) + "}" + Common() + fmt(" -> %u", In.Next);
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
  std::string Out = fmt("ir: %zu instructions, %zu slots, max eval depth %u, "
                        "max mitigate depth %u\n",
                        IR.Instrs.size(), IR.Slots.size(), IR.MaxEvalDepth,
                        IR.MaxMitDepth);
  for (size_t I = 0; I != IR.Slots.size(); ++I) {
    const IrSlotInfo &S = IR.Slots[I];
    Out += fmt("  slot %%%zu: %s : %s %s[%" PRIu64 "] @0x%" PRIx64 "\n", I,
               IR.Names->Names[I].c_str(), Lat.name(S.SecLabel).c_str(),
               S.IsArray ? "array" : "scalar", S.Size,
               static_cast<uint64_t>(S.Base));
  }
  for (uint32_t I = 0; I != IR.Instrs.size(); ++I)
    Out += fmt("  %3u: ", I) + printIrInstr(IR, I, Lat) + "\n";
  return Out;
}

//===- PrettyPrinter.cpp --------------------------------------------------===//

#include "lang/PrettyPrinter.h"

#include "support/Casting.h"

#include <cinttypes>
#include <cstdio>

using namespace zam;

std::string zam::printExpr(const Expr &E) {
  switch (E.kind()) {
  case Expr::Kind::IntLit: {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%" PRId64, cast<IntLitExpr>(E).value());
    return Buf;
  }
  case Expr::Kind::Var:
    return cast<VarExpr>(E).name();
  case Expr::Kind::ArrayRead: {
    const auto &AR = cast<ArrayReadExpr>(E);
    return AR.array() + "[" + printExpr(AR.index()) + "]";
  }
  case Expr::Kind::BinOp: {
    const auto &BO = cast<BinOpExpr>(E);
    // Appended: GCC 12 at -O3 warns (-Wrestrict, a false positive) on
    // "(" + printExpr(...).
    std::string S = "(";
    S += printExpr(BO.lhs());
    S += " ";
    S += binOpSpelling(BO.op());
    S += " ";
    S += printExpr(BO.rhs());
    S += ")";
    return S;
  }
  case Expr::Kind::UnOp: {
    const auto &UO = cast<UnOpExpr>(E);
    return std::string(unOpSpelling(UO.op())) + "(" + printExpr(UO.sub()) + ")";
  }
  }
  return "<?>";
}

static std::string annotation(const Cmd &C, const SecurityLattice &Lat) {
  if (C.isSeq())
    return "";
  const TimingLabels &L = C.labels();
  if (!L.Read && !L.Write)
    return "";
  std::string Out = " @[";
  Out += L.Read ? Lat.name(*L.Read) : "?";
  Out += ",";
  Out += L.Write ? Lat.name(*L.Write) : "?";
  Out += "]";
  return Out;
}

static std::string indentStr(unsigned Indent) {
  return std::string(Indent * 2, ' ');
}

std::string zam::printCmd(const Cmd &C, const SecurityLattice &Lat,
                          unsigned Indent) {
  const std::string Pad = indentStr(Indent);
  switch (C.kind()) {
  case Cmd::Kind::Skip:
    return Pad + "skip" + annotation(C, Lat);
  case Cmd::Kind::Assign: {
    const auto &A = cast<AssignCmd>(C);
    return Pad + A.var() + " := " + printExpr(A.value()) + annotation(C, Lat);
  }
  case Cmd::Kind::ArrayAssign: {
    const auto &A = cast<ArrayAssignCmd>(C);
    return Pad + A.array() + "[" + printExpr(A.index()) +
           "] := " + printExpr(A.value()) + annotation(C, Lat);
  }
  case Cmd::Kind::Seq: {
    const auto &S = cast<SeqCmd>(C);
    return printCmd(S.first(), Lat, Indent) + ";\n" +
           printCmd(S.second(), Lat, Indent);
  }
  case Cmd::Kind::If: {
    const auto &I = cast<IfCmd>(C);
    return Pad + "if " + printExpr(I.cond()) + " then {\n" +
           printCmd(I.thenCmd(), Lat, Indent + 1) + "\n" + Pad + "} else {\n" +
           printCmd(I.elseCmd(), Lat, Indent + 1) + "\n" + Pad + "}" +
           annotation(C, Lat);
  }
  case Cmd::Kind::While: {
    const auto &W = cast<WhileCmd>(C);
    return Pad + "while " + printExpr(W.cond()) + " do {\n" +
           printCmd(W.body(), Lat, Indent + 1) + "\n" + Pad + "}" +
           annotation(C, Lat);
  }
  case Cmd::Kind::Mitigate: {
    const auto &M = cast<MitigateCmd>(C);
    return Pad + "mitigate (" + printExpr(M.initialEstimate()) + ", " +
           Lat.name(M.mitLevel()) + ") {\n" +
           printCmd(M.body(), Lat, Indent + 1) + "\n" + Pad + "}" +
           annotation(C, Lat);
  }
  case Cmd::Kind::Sleep: {
    const auto &S = cast<SleepCmd>(C);
    return Pad + "sleep (" + printExpr(S.duration()) + ")" + annotation(C, Lat);
  }
  }
  return Pad + "<?>";
}

std::string zam::printProgram(const Program &P) {
  std::string Out;
  const SecurityLattice &Lat = P.lattice();
  for (const VarDecl &D : P.vars()) {
    Out += "var " + D.Name + " : " + Lat.name(D.SecLabel);
    if (D.IsArray) {
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "[%" PRIu64 "]", D.Size);
      Out += Buf;
    }
    if (!D.Init.empty()) {
      Out += " = ";
      if (D.IsArray) {
        Out += "{";
        for (size_t I = 0; I != D.Init.size(); ++I) {
          if (I)
            Out += ", ";
          char Buf[32];
          std::snprintf(Buf, sizeof(Buf), "%" PRId64, D.Init[I]);
          Out += Buf;
        }
        Out += "}";
      } else {
        char Buf[32];
        std::snprintf(Buf, sizeof(Buf), "%" PRId64, D.Init[0]);
        Out += Buf;
      }
    }
    Out += ";\n";
  }
  if (P.hasBody()) {
    Out += printCmd(P.body(), Lat);
    Out += "\n";
  }
  return Out;
}

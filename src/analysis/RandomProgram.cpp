//===- RandomProgram.cpp --------------------------------------------------===//

#include "analysis/RandomProgram.h"

#include "sem/Memory.h"
#include "support/Casting.h"
#include "types/LabelInference.h"
#include "types/TypeChecker.h"

#include <string>

using namespace zam;

namespace {
/// Internal generator state.
struct Gen {
  const Program &P;
  Rng &R;
  const RandomProgramOptions &O;
  /// When false, commands are emitted without timing labels (inference
  /// fills them) and flows are steered toward well-typedness.
  bool Arbitrary;
  unsigned LoopDepth = 0;

  const SecurityLattice &lat() const { return P.lattice(); }

  Label randomLabel() {
    return Label::fromIndex(
        static_cast<uint32_t>(R.nextBelow(lat().size())));
  }

  void setLabels(Cmd &C) {
    if (!Arbitrary)
      return; // Leave unset; inference will complete them.
    Label Write = randomLabel();
    Label Read = O.EqualTimingLabels ? Write : randomLabel();
    C.labels().Read = Read;
    C.labels().Write = Write;
  }

  /// Names of scalars whose label flows to \p Bound (steering well-typed
  /// assignments); all scalars when Arbitrary.
  std::vector<std::string> scalarsBelow(Label Bound) {
    std::vector<std::string> Out;
    for (const VarDecl &D : P.vars()) {
      if (D.IsArray || D.Name[0] == 'c')
        continue; // Loop counters are reserved.
      if (Arbitrary || lat().flowsTo(D.SecLabel, Bound))
        Out.push_back(D.Name);
    }
    return Out;
  }

  std::vector<std::string> arraysBelow(Label Bound) {
    std::vector<std::string> Out;
    for (const VarDecl &D : P.vars())
      if (D.IsArray && (Arbitrary || lat().flowsTo(D.SecLabel, Bound)))
        Out.push_back(D.Name);
    return Out;
  }

  ExprPtr smallLit() {
    return std::make_unique<IntLitExpr>(R.nextInRange(0, 16));
  }

  /// A random expression reading only variables with labels ⊑ Bound (any
  /// label when Arbitrary).
  ExprPtr expr(Label Bound, unsigned Depth) {
    std::vector<std::string> Scalars = scalarsBelow(Bound);
    if (Depth == 0 || R.chance(35)) {
      if (!Scalars.empty() && R.chance(70)) {
        const std::string &Name = Scalars[R.nextBelow(Scalars.size())];
        return std::make_unique<VarExpr>(Name);
      }
      return smallLit();
    }
    if (R.chance(15)) {
      std::vector<std::string> Arrays = arraysBelow(Bound);
      if (!Arrays.empty()) {
        const std::string &Name = Arrays[R.nextBelow(Arrays.size())];
        // Keep the index label ⊑ the array label so the address-dependence
        // constraint (index ⊑ ew) is satisfiable.
        Label ArrL = P.findVar(Name)->SecLabel;
        return std::make_unique<ArrayReadExpr>(Name, expr(ArrL, Depth - 1));
      }
    }
    if (R.chance(20))
      return std::make_unique<UnOpExpr>(
          static_cast<UnOpKind>(R.nextBelow(3)), expr(Bound, Depth - 1));
    static const BinOpKind Ops[] = {BinOpKind::Add,    BinOpKind::Sub,
                                    BinOpKind::Mul,    BinOpKind::BitAnd,
                                    BinOpKind::BitXor, BinOpKind::Lt,
                                    BinOpKind::Eq,     BinOpKind::Mod};
    BinOpKind Op = Ops[R.nextBelow(std::size(Ops))];
    return std::make_unique<BinOpExpr>(Op, expr(Bound, Depth - 1),
                                       expr(Bound, Depth - 1));
  }

  /// A bounded expression suitable as a sleep duration (masked to [0,15]).
  ExprPtr boundedExpr(Label Bound) {
    return std::make_unique<BinOpExpr>(BinOpKind::BitAnd, expr(Bound, 1),
                                       std::make_unique<IntLitExpr>(15));
  }

  CmdPtr assign(unsigned Depth) {
    std::vector<std::string> Targets = scalarsBelow(lat().top());
    if (Targets.empty())
      return skip();
    const std::string &Name = Targets[R.nextBelow(Targets.size())];
    Label Bound = Arbitrary ? lat().top() : P.findVar(Name)->SecLabel;
    auto C = std::make_unique<AssignCmd>(Name, expr(Bound, Depth));
    setLabels(*C);
    return C;
  }

  CmdPtr arrayAssign(unsigned Depth) {
    std::vector<std::string> Targets = arraysBelow(lat().top());
    if (Targets.empty())
      return assign(Depth);
    const std::string &Name = Targets[R.nextBelow(Targets.size())];
    Label Bound = Arbitrary ? lat().top() : P.findVar(Name)->SecLabel;
    // Index from ⊥ so the store's address-dependence label stays low.
    auto C = std::make_unique<ArrayAssignCmd>(
        Name, expr(lat().bottom(), 1), expr(Bound, Depth));
    setLabels(*C);
    return C;
  }

  CmdPtr skip() {
    auto C = std::make_unique<SkipCmd>();
    setLabels(*C);
    return C;
  }

  CmdPtr sleep() {
    auto C = std::make_unique<SleepCmd>(boundedExpr(lat().top()));
    setLabels(*C);
    return C;
  }

  CmdPtr mitigate(unsigned Depth) {
    Label Level = Arbitrary ? randomLabel() : lat().top();
    auto C = std::make_unique<MitigateCmd>(
        0, std::make_unique<IntLitExpr>(R.nextInRange(1, 64)), Level,
        block(Depth - 1));
    setLabels(*C);
    return C;
  }

  CmdPtr ifCmd(unsigned Depth) {
    auto C = std::make_unique<IfCmd>(expr(lat().top(), 1), block(Depth - 1),
                                     block(Depth - 1));
    setLabels(*C);
    return C;
  }

  /// A bounded counting loop over a reserved counter variable:
  ///   cK := trips ; while cK > 0 do { body ; cK := cK - 1 }
  CmdPtr boundedLoop(unsigned Depth) {
    std::string Counter = "c" + std::to_string(LoopDepth);
    if (!P.findVar(Counter))
      return ifCmd(Depth);
    ++LoopDepth;
    CmdPtr Body = block(Depth - 1);
    --LoopDepth;

    auto Init = std::make_unique<AssignCmd>(
        Counter,
        std::make_unique<IntLitExpr>(R.nextInRange(0, O.MaxLoopTrips)));
    setLabels(*Init);
    auto Dec = std::make_unique<AssignCmd>(
        Counter,
        std::make_unique<BinOpExpr>(BinOpKind::Sub,
                                    std::make_unique<VarExpr>(Counter),
                                    std::make_unique<IntLitExpr>(1)));
    setLabels(*Dec);
    auto Guard = std::make_unique<BinOpExpr>(
        BinOpKind::Gt, std::make_unique<VarExpr>(Counter),
        std::make_unique<IntLitExpr>(0));
    auto Loop = std::make_unique<WhileCmd>(
        std::move(Guard),
        std::make_unique<SeqCmd>(std::move(Body), std::move(Dec)));
    setLabels(*Loop);
    return std::make_unique<SeqCmd>(std::move(Init), std::move(Loop));
  }

  CmdPtr command(unsigned Depth) {
    unsigned Pick = R.nextBelow(100);
    if (Depth == 0 || Pick < 40)
      return assign(Depth == 0 ? 1 : Depth);
    if (Pick < 50)
      return arrayAssign(Depth);
    if (Pick < 55)
      return skip();
    if (Pick < 65 && O.AllowSleep)
      return sleep();
    if (Pick < 80)
      return ifCmd(Depth);
    if (Pick < 90 && LoopDepth < 3)
      return boundedLoop(Depth);
    if (O.AllowMitigate)
      return mitigate(Depth);
    return ifCmd(Depth);
  }

  CmdPtr block(unsigned Depth) {
    unsigned Len = 1 + R.nextBelow(O.MaxSeqLength);
    CmdPtr Out = command(Depth);
    for (unsigned I = 1; I < Len; ++I)
      Out = std::make_unique<SeqCmd>(std::move(Out), command(Depth));
    return Out;
  }
};
} // namespace

void zam::addRandomDeclarations(Program &P, Rng &R,
                                const RandomProgramOptions &O) {
  const SecurityLattice &Lat = P.lattice();
  auto RandomLabel = [&] {
    return Label::fromIndex(static_cast<uint32_t>(R.nextBelow(Lat.size())));
  };
  for (unsigned I = 0; I != O.NumScalars; ++I) {
    VarDecl D;
    D.Name = "v" + std::to_string(I);
    D.SecLabel = RandomLabel();
    D.Init.push_back(R.nextInRange(0, 32));
    P.addVar(std::move(D));
  }
  for (unsigned I = 0; I != O.NumArrays; ++I) {
    VarDecl D;
    D.Name = "a" + std::to_string(I);
    D.SecLabel = RandomLabel();
    D.IsArray = true;
    D.Size = O.ArraySize;
    for (unsigned J = 0; J != O.ArraySize; ++J)
      D.Init.push_back(R.nextInRange(0, 32));
    P.addVar(std::move(D));
  }
  // Reserved loop counters c0..c2 (assigned only by generated loop
  // scaffolding). Their label is ⊤-avoiding ⊥ keeps guards typeable in any
  // context... use ⊥ so loops in low contexts stay low; high-context loops
  // will simply fail the filter and be regenerated.
  for (unsigned I = 0; I != 3; ++I) {
    VarDecl D;
    D.Name = "c" + std::to_string(I);
    D.SecLabel = Lat.bottom();
    D.Init.push_back(0);
    P.addVar(std::move(D));
  }
}

CmdPtr zam::randomCommand(const Program &P, Rng &R,
                          const RandomProgramOptions &O) {
  Gen G{P, R, O, /*Arbitrary=*/true};
  return G.block(O.MaxDepth);
}

void zam::randomizeMemoryValues(Memory &M, Rng &R, int64_t MaxAbs) {
  for (size_t I = 0; I != M.slotCount(); ++I)
    for (int64_t &V : M.slotAt(I).Data)
      V = R.nextInRange(-MaxAbs, MaxAbs);
}

void zam::perturbMemoryAbove(Memory &M, Label Level,
                             const SecurityLattice &Lat, Rng &R) {
  for (size_t I = 0; I != M.slotCount(); ++I)
    if (!Lat.flowsTo(M.slotAt(I).SecLabel, Level))
      for (int64_t &V : M.slotAt(I).Data)
        V = R.nextInRange(-64, 64);
}

std::optional<Program>
zam::randomWellTypedProgram(const SecurityLattice &Lat, Rng &R,
                            const RandomProgramOptions &O,
                            unsigned MaxAttempts) {
  for (unsigned Attempt = 0; Attempt != MaxAttempts; ++Attempt) {
    Program P(Lat);
    addRandomDeclarations(P, R, O);
    Gen G{P, R, O, /*Arbitrary=*/false};
    P.setBody(G.block(O.MaxDepth));
    P.number();
    inferTimingLabels(P);
    DiagnosticEngine Diags;
    TypeCheckOptions TOpts;
    TOpts.RequireEqualTimingLabels = O.EqualTimingLabels;
    if (typeCheck(P, Diags, TOpts))
      return P;
  }
  return std::nullopt;
}

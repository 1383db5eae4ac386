//===- RandomProgram.cpp --------------------------------------------------===//

#include "analysis/RandomProgram.h"

#include "lang/StaticLabels.h"
#include "sem/Memory.h"
#include "support/Casting.h"
#include "types/LabelInference.h"
#include "types/TypeChecker.h"

#include <string>

using namespace zam;

namespace {
/// \p Prefix followed by \p I's digits ("v3"). Appended rather than
/// written "v" + std::to_string(I), on which GCC 12 at -O3 warns
/// (-Wrestrict, a false positive in std::string's operator+).
std::string indexedName(const char *Prefix, unsigned I) {
  std::string Name = Prefix;
  Name += std::to_string(I);
  return Name;
}

/// Internal generator state.
struct Gen {
  const Program &P;
  Rng &R;
  const RandomProgramOptions &O;
  /// When false, commands are emitted without timing labels (inference
  /// fills them, er = ew = pc) and every command is generated well-typed:
  /// it is chosen and shaped under the pc and timing label (τ) that the
  /// checker's rules give the point it is generated at.
  bool Arbitrary;
  unsigned LoopDepth = 0;
  /// The pc and τ of the next command (well-typed mode only).
  Label Pc = P.lattice().bottom();
  Label Tau = P.lattice().bottom();
  /// The stream of leaf() array reads, derived from R without advancing it.
  Rng Leaves{Rng(R).next()};

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

  /// Inside a loop, always when \p Force and else in three draws of four,
  /// an index that scans: an enclosing loop's counter times a stride of 1
  /// to 5 words, so that successive iterations walk an array across its
  /// lines. Null otherwise. Counters are ⊥, so the index flows to any
  /// array. Draws from Leaves only.
  ExprPtr scanIndex(bool Force = false) {
    if (LoopDepth == 0 || (!Force && !Leaves.chance(75)))
      return nullptr;
    return std::make_unique<BinOpExpr>(
        BinOpKind::Mul,
        std::make_unique<VarExpr>(
            indexedName("c", static_cast<unsigned>(
                                 Leaves.nextBelow(LoopDepth)))),
        std::make_unique<IntLitExpr>(Leaves.nextInRange(1, 5)));
  }

  /// A leaf reading only variables with labels ⊑ Bound: a scalar or a
  /// literal, which in 15% of leaves (40% inside a loop) becomes the index
  /// of an array read, so that expressions of every depth reach array
  /// lines; inside a loop that index may scan instead (scanIndex). The
  /// array reads draw from their own stream (Leaves).
  ExprPtr leaf(Label Bound) {
    std::vector<std::string> Scalars = scalarsBelow(Bound);
    ExprPtr Index;
    if (!Scalars.empty() && R.chance(70))
      Index = std::make_unique<VarExpr>(Scalars[R.nextBelow(Scalars.size())]);
    else
      Index = smallLit();
    if (!Leaves.chance(LoopDepth ? 40 : 15))
      return Index;
    ExprPtr Scan = scanIndex();
    // A well-typed index must flow to the pc (index ⊑ ew, with ew = pc).
    const auto *V = Scan ? nullptr : dyn_cast<VarExpr>(Index.get());
    const Label IndexL = V ? P.findVar(V->name())->SecLabel : lat().bottom();
    std::vector<std::string> Arrays;
    for (const std::string &Name : arraysBelow(Bound))
      if (Arbitrary || lat().flowsTo(IndexL, Pc))
        Arrays.push_back(Name);
    if (Arrays.empty())
      return Index;
    return std::make_unique<ArrayReadExpr>(
        Arrays[Leaves.nextBelow(Arrays.size())],
        Scan ? std::move(Scan) : std::move(Index));
  }

  /// A random expression reading only variables with labels ⊑ Bound (any
  /// label when Arbitrary).
  ExprPtr expr(Label Bound, unsigned Depth) {
    if (Depth == 0 || R.chance(35))
      return leaf(Bound);
    if (R.chance(15)) {
      std::vector<std::string> Arrays = arraysBelow(Bound);
      if (!Arrays.empty()) {
        const std::string &Name = Arrays[R.nextBelow(Arrays.size())];
        // Keep the index label ⊑ the array label, and when well-typed ⊑ the
        // pc as well: the address-dependence constraint (index ⊑ ew).
        Label IndexBound = P.findVar(Name)->SecLabel;
        if (!Arbitrary)
          IndexBound = lat().meet(IndexBound, Pc);
        return std::make_unique<ArrayReadExpr>(Name,
                                               expr(IndexBound, Depth - 1));
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

  /// Whether a well-typed assignment under the current pc and τ may
  /// write a variable labelled \p L (T-ASGN: pc ⊔ τ ⊔ er ⊑ Γ(x)).
  bool writable(Label L) const {
    return Arbitrary || lat().flowsTo(lat().join(Pc, Tau), L);
  }

  CmdPtr assign(unsigned Depth) {
    std::vector<std::string> Targets = scalarsBelow(lat().top());
    std::erase_if(Targets, [&](const std::string &Name) {
      return !writable(P.findVar(Name)->SecLabel);
    });
    if (Targets.empty())
      return skip();
    const std::string &Name = Targets[R.nextBelow(Targets.size())];
    Label Bound = Arbitrary ? lat().top() : P.findVar(Name)->SecLabel;
    auto C = std::make_unique<AssignCmd>(Name, expr(Bound, Depth));
    setLabels(*C);
    Tau = P.findVar(Name)->SecLabel;
    return C;
  }

  /// An array store; with \p Scan inside a loop, one whose index scans.
  CmdPtr arrayAssign(unsigned Depth, bool Scan = false) {
    std::vector<std::string> Targets = arraysBelow(lat().top());
    std::erase_if(Targets, [&](const std::string &Name) {
      return !writable(P.findVar(Name)->SecLabel);
    });
    if (Targets.empty())
      return assign(Depth);
    const std::string &Name = Targets[R.nextBelow(Targets.size())];
    Label Bound = Arbitrary ? lat().top() : P.findVar(Name)->SecLabel;
    // The value, then an index from ⊥ so the store's address-dependence
    // label stays low; in a loop the store may scan (the drawn index is
    // then dropped, so R's stream is the same either way).
    ExprPtr Value = expr(Bound, Depth);
    ExprPtr Index = expr(lat().bottom(), 1);
    if (ExprPtr Scanned = scanIndex(Scan))
      Index = std::move(Scanned);
    auto C = std::make_unique<ArrayAssignCmd>(Name, std::move(Index),
                                              std::move(Value));
    setLabels(*C);
    Tau = P.findVar(Name)->SecLabel;
    return C;
  }

  CmdPtr skip() {
    auto C = std::make_unique<SkipCmd>();
    setLabels(*C);
    Tau = lat().join(Tau, Pc);
    return C;
  }

  CmdPtr sleep() {
    auto C = std::make_unique<SleepCmd>(boundedExpr(lat().top()));
    setLabels(*C);
    Tau = lat().join(lat().join(Tau, Pc), exprLabel(C->duration(), P));
    return C;
  }

  /// mitigate (n, ℓ) { \p Body }: the body starts at τ ⊔ pc, and the
  /// command ends there too (T-MTG with a literal estimate), whatever the
  /// body raised τ to. The well-typed level is ⊤, to which every body's
  /// end label flows.
  CmdPtr mitigateAround(CmdPtr Body, Label Level) {
    auto C = std::make_unique<MitigateCmd>(
        0, std::make_unique<IntLitExpr>(R.nextInRange(1, 64)), Level,
        std::move(Body));
    setLabels(*C);
    return C;
  }

  CmdPtr mitigate(unsigned Depth) {
    const Label Level = Arbitrary ? randomLabel() : lat().top();
    const Label Start = lat().join(Tau, Pc);
    Tau = Start;
    CmdPtr Body = block(Depth - 1);
    Tau = Start;
    return mitigateAround(std::move(Body), Level);
  }

  CmdPtr ifCmd(unsigned Depth) {
    if (Arbitrary) {
      // The order in which arbitrary commands have always drawn their
      // parts, so that a seed keeps its commands.
      CmdPtr Else = block(Depth - 1);
      CmdPtr Then = block(Depth - 1);
      auto C = std::make_unique<IfCmd>(expr(lat().top(), 1), std::move(Then),
                                       std::move(Else));
      setLabels(*C);
      return C;
    }
    ExprPtr Guard = expr(lat().top(), 1);
    // T-IF: both branches run under pc ⊔ ℓe from τ ⊔ ℓe ⊔ er, and the if
    // ends at the join of their end labels.
    const Label Le = exprLabel(*Guard, P);
    const Label OuterPc = Pc;
    const Label Start = lat().join(Le, lat().join(Tau, Pc));
    Pc = lat().join(Pc, Le);
    Tau = Start;
    CmdPtr Then = block(Depth - 1);
    const Label ThenTau = Tau;
    Tau = Start;
    CmdPtr Else = block(Depth - 1);
    Tau = lat().join(ThenTau, Tau);
    Pc = OuterPc;
    auto C = std::make_unique<IfCmd>(std::move(Guard), std::move(Then),
                                     std::move(Else));
    setLabels(*C);
    return C;
  }

  /// A bounded counting loop over a reserved counter variable:
  ///   cK := trips ; while cK > 0 do { body ; cK := cK - 1 }
  /// Counters are ⊥, so a well-typed loop needs pc = τ = ⊥ where it starts
  /// and where its body ends; a body that raised τ runs mitigated, and
  /// without mitigates it is dropped for a skip. A well-typed body begins
  /// with a store that scans an array, at pc ⊥, where every design fills.
  CmdPtr boundedLoop(unsigned Depth) {
    std::string Counter = indexedName("c", LoopDepth);
    if (!P.findVar(Counter) || !writable(lat().bottom()))
      return ifCmd(Depth);
    ++LoopDepth;
    CmdPtr Body;
    if (!Arbitrary)
      Body = arrayAssign(Depth - 1, /*Scan=*/true);
    CmdPtr Rest = block(Depth - 1);
    Body = Body ? std::make_unique<SeqCmd>(std::move(Body), std::move(Rest))
                : std::move(Rest);
    --LoopDepth;
    if (!writable(lat().bottom()))
      Body = O.AllowMitigate ? mitigateAround(std::move(Body), lat().top())
                             : skip();
    Tau = lat().bottom();

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
    // A well-typed loop may start only at pc = τ = ⊥, which most points
    // lack; where one may, loops take the top of the if range as well.
    const bool LoopMayStart =
        !Arbitrary && LoopDepth < 3 && writable(lat().bottom());
    if (Pick < 80 && !(LoopMayStart && Pick >= 70))
      return ifCmd(Depth);
    if (Pick < 90 && LoopDepth < 3)
      return boundedLoop(Depth);
    if (O.AllowMitigate)
      return mitigate(Depth);
    return ifCmd(Depth);
  }

  /// One command of a block. A well-typed command that raised τ above
  /// where it started is mitigated three times in four (when mitigates are
  /// allowed), so that what follows may write low variables again.
  CmdPtr blockCommand(unsigned Depth) {
    const Label Start = lat().join(Tau, Pc);
    CmdPtr C = command(Depth);
    if (Arbitrary || !O.AllowMitigate || lat().flowsTo(Tau, Start) ||
        !Leaves.chance(75))
      return C;
    Tau = Start;
    return mitigateAround(std::move(C), lat().top());
  }

  CmdPtr block(unsigned Depth) {
    unsigned Len = 1 + R.nextBelow(O.MaxSeqLength);
    CmdPtr Out = blockCommand(Depth);
    for (unsigned I = 1; I < Len; ++I)
      Out = std::make_unique<SeqCmd>(std::move(Out), blockCommand(Depth));
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
    D.Name = indexedName("v", I);
    D.SecLabel = RandomLabel();
    D.Init.push_back(R.nextInRange(0, 32));
    P.addVar(std::move(D));
  }
  for (unsigned I = 0; I != O.NumArrays; ++I) {
    VarDecl D;
    D.Name = indexedName("a", I);
    D.SecLabel = RandomLabel();
    D.IsArray = true;
    D.Size = O.ArraySize;
    for (unsigned J = 0; J != O.ArraySize; ++J)
      D.Init.push_back(R.nextInRange(0, 32));
    P.addVar(std::move(D));
  }
  // Reserved loop counters c0..c2 (assigned only by generated loop
  // scaffolding), at ⊥ so that loops and their scans stay low; the
  // well-typed generator starts loops only where pc = τ = ⊥.
  for (unsigned I = 0; I != 3; ++I) {
    VarDecl D;
    D.Name = indexedName("c", I);
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

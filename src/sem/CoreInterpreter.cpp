//===- CoreInterpreter.cpp ------------------------------------------------===//

#include "sem/CoreInterpreter.h"

#include "sem/Eval.h"
#include "support/Casting.h"

using namespace zam;

namespace {
class CoreEngine {
public:
  CoreEngine(const Program &P, Memory M, uint64_t StepLimit)
      : P(P), M(std::move(M)), StepLimit(StepLimit) {}

  CoreResult run() {
    exec(P.body());
    CoreResult R;
    R.FinalMemory = std::move(M);
    R.Events = std::move(Events);
    R.HitStepLimit = Stopped;
    return R;
  }

private:
  bool budget() {
    if (Steps++ < StepLimit)
      return !Stopped;
    Stopped = true;
    return false;
  }

  void record(const std::string &Var, bool IsArray, uint64_t Index,
              int64_t Value) {
    const size_t Slot = M.slotIndexOf(Var);
    AssignEvent E;
    E.Slot = static_cast<uint32_t>(Slot);
    E.VarLabel = M.slotAt(Slot).SecLabel;
    E.IsArrayStore = IsArray;
    E.ElemIndex = Index;
    E.Value = Value;
    E.Time = Events.size(); // Ordinal: the core semantics has no clock.
    Events.push_back(E);
  }

  void exec(const Cmd &C) {
    if (!budget())
      return;
    switch (C.kind()) {
    case Cmd::Kind::Skip:
      return;
    case Cmd::Kind::Sleep:
      // Core semantics: sleep behaves like skip (the argument is still
      // evaluated, mirroring the big-step premise of the rule).
      evalExprPure(cast<SleepCmd>(C).duration(), M);
      return;
    case Cmd::Kind::Assign: {
      const auto &A = cast<AssignCmd>(C);
      int64_t V = evalExprPure(A.value(), M);
      M.store(A.var(), V);
      record(A.var(), false, 0, V);
      return;
    }
    case Cmd::Kind::ArrayAssign: {
      const auto &A = cast<ArrayAssignCmd>(C);
      int64_t Index = evalExprPure(A.index(), M);
      int64_t V = evalExprPure(A.value(), M);
      uint64_t Wrapped = M.wrapIndex(A.array(), Index);
      M.storeElem(A.array(), Index, V);
      record(A.array(), true, Wrapped, V);
      return;
    }
    case Cmd::Kind::Seq: {
      const auto &S = cast<SeqCmd>(C);
      exec(S.first());
      exec(S.second());
      return;
    }
    case Cmd::Kind::If: {
      const auto &I = cast<IfCmd>(C);
      exec(evalExprPure(I.cond(), M) != 0 ? I.thenCmd() : I.elseCmd());
      return;
    }
    case Cmd::Kind::While: {
      const auto &W = cast<WhileCmd>(C);
      while (evalExprPure(W.cond(), M) != 0) {
        exec(W.body());
        if (Stopped || !budget())
          return;
      }
      return;
    }
    case Cmd::Kind::Mitigate:
      // Identity semantics: mitigate (e,ℓ) c evaluates to c.
      evalExprPure(cast<MitigateCmd>(C).initialEstimate(), M);
      exec(cast<MitigateCmd>(C).body());
      return;
    }
  }

  const Program &P;
  Memory M;
  uint64_t StepLimit;
  uint64_t Steps = 0;
  bool Stopped = false;
  std::vector<AssignEvent> Events;
};
} // namespace

CoreResult zam::runCore(const Program &P, const Memory *InitialMemory,
                        uint64_t StepLimit) {
  Memory M = InitialMemory ? *InitialMemory : Memory::fromProgram(P);
  CoreEngine Engine(P, std::move(M), StepLimit);
  return Engine.run();
}

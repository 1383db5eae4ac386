//===- PropertyCheckers.cpp -----------------------------------------------===//

#include "analysis/PropertyCheckers.h"

#include "sem/CoreInterpreter.h"
#include "lang/StaticLabels.h"
#include "sem/CompiledProgram.h"
#include "sem/FullInterpreter.h"
#include "support/Casting.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

using namespace zam;

static std::string fmt(const char *Format, ...)
    __attribute__((format(printf, 1, 2)));

static std::string fmt(const char *Format, ...) {
  char Buf[512];
  va_list Args;
  va_start(Args, Format);
  std::vsnprintf(Buf, sizeof(Buf), Format, Args);
  va_end(Args);
  return Buf;
}

PropertyReport zam::checkAdequacy(const Program &P,
                                  const MachineEnv &EnvTemplate,
                                  InterpreterOptions Opts) {
  CoreResult Core = runCore(P);
  std::unique_ptr<MachineEnv> Env = EnvTemplate.clone();
  RunResult Full = runFull(P, *Env, Opts);

  if (Core.HitStepLimit || Full.T.HitStepLimit)
    return PropertyReport::fail("execution hit the step limit");
  if (Full.T.HitEventLimit)
    return PropertyReport::fail("execution hit the event limit");
  Full.T.requireEvents("checkAdequacy");

  if (!(Core.FinalMemory == Full.FinalMemory))
    return PropertyReport::fail("final memories differ");

  if (Core.Events.size() != Full.T.Events.size())
    return PropertyReport::fail(
        fmt("event counts differ: core %zu vs full %zu", Core.Events.size(),
            Full.T.Events.size()));

  for (size_t I = 0; I != Core.Events.size(); ++I) {
    const AssignEvent &A = Core.Events[I];
    const AssignEvent &B = Full.T.Events[I];
    if (A.Slot != B.Slot || A.Value != B.Value ||
        A.IsArrayStore != B.IsArrayStore || A.ElemIndex != B.ElemIndex)
      return PropertyReport::fail(fmt("event %zu differs", I));
  }
  return PropertyReport::ok();
}

PropertyReport zam::checkDeterminism(const Program &P,
                                     const MachineEnv &EnvTemplate,
                                     InterpreterOptions Opts) {
  std::unique_ptr<MachineEnv> E1 = EnvTemplate.clone();
  std::unique_ptr<MachineEnv> E2 = EnvTemplate.clone();
  RunResult R1 = runFull(P, *E1, Opts);
  RunResult R2 = runFull(P, *E2, Opts);

  if (R1.T.FinalTime != R2.T.FinalTime)
    return PropertyReport::fail(
        fmt("final clocks differ: %" PRIu64 " vs %" PRIu64, R1.T.FinalTime,
            R2.T.FinalTime));
  if (!(R1.FinalMemory == R2.FinalMemory))
    return PropertyReport::fail("final memories differ");
  if (!E1->stateEquals(*E2))
    return PropertyReport::fail("final machine environments differ");
  R1.T.requireEvents("checkDeterminism");
  if (!(R1.T.Events == R2.T.Events))
    return PropertyReport::fail("event traces differ");
  return PropertyReport::ok();
}

PropertyReport zam::checkSequentialComposition(const Program &P, const Cmd &C1,
                                               const Cmd &C2,
                                               const Memory &InitialMemory,
                                               const MachineEnv &EnvTemplate,
                                               InterpreterOptions Opts) {
  // Combined run: (c1; c2).
  std::unique_ptr<MachineEnv> EnvSeq = EnvTemplate.clone();
  const CompiledProgram SeqForm(
      P, std::make_unique<SeqCmd>(C1.clone(), C2.clone()), Opts);
  FullInterpreter Combined(SeqForm, *EnvSeq, Opts);
  Combined.memory().restoreValues(InitialMemory);
  Combined.complete();

  // Split run: c1 to stop, then c2 from the resulting configuration. The
  // mitigation Miss table is part of the carried configuration, so the two
  // halves share one.
  std::unique_ptr<MachineEnv> EnvSplit = EnvTemplate.clone();
  MitigationState SplitState(P.lattice(), Opts.Mitigation.base(),
                             Opts.Penalty);
  InterpreterOptions SplitOpts = Opts;
  SplitOpts.SharedMitState = &SplitState;
  const CompiledProgram FirstForm(P, C1.clone(), Opts);
  const CompiledProgram SecondForm(P, C2.clone(), Opts);
  FullInterpreter First(FirstForm, *EnvSplit, SplitOpts);
  First.memory().restoreValues(InitialMemory);
  First.complete();
  FullInterpreter Second(SecondForm, *EnvSplit, SplitOpts);
  Second.memory().restoreValues(First.memory());
  Second.complete();

  uint64_t SplitTime = First.clock() + Second.clock();
  if (Combined.clock() != SplitTime)
    return PropertyReport::fail(
        fmt("clocks differ: combined %" PRIu64 " vs split %" PRIu64,
            Combined.clock(), SplitTime));
  if (!(Combined.memory() == Second.memory()))
    return PropertyReport::fail("final memories differ");
  if (!EnvSeq->stateEquals(*EnvSplit))
    return PropertyReport::fail("final machine environments differ");
  return PropertyReport::ok();
}

PropertyReport zam::checkSleepDuration(const Program &P, int64_t N, Label Read,
                                       Label Write,
                                       const MachineEnv &EnvTemplate,
                                       InterpreterOptions Opts) {
  std::unique_ptr<MachineEnv> Env = EnvTemplate.clone();
  auto Sleep = std::make_unique<SleepCmd>(std::make_unique<IntLitExpr>(N));
  Sleep->labels().Read = Read;
  Sleep->labels().Write = Write;
  const CompiledProgram Form(P, std::move(Sleep), Opts);
  FullInterpreter Interp(Form, *Env, Opts);
  Interp.complete();
  uint64_t Expected = N > 0 ? static_cast<uint64_t>(N) : 0;
  if (Interp.clock() != Expected)
    return PropertyReport::fail(fmt("sleep(%" PRId64 ") took %" PRIu64
                                    " cycles, expected %" PRIu64,
                                    N, Interp.clock(), Expected));
  return PropertyReport::ok();
}

/// Performs exactly one transition of \p C from \p M on \p Env and
/// returns the clock after it.
static uint64_t oneStep(const Program &P, const Cmd &C, const Memory &M,
                        MachineEnv &Env, const InterpreterOptions &Opts) {
  const CompiledProgram Form(P, C.clone(), Opts);
  FullInterpreter Interp(Form, Env, Opts);
  Interp.memory().restoreValues(M);
  Interp.step();
  return Interp.clock();
}

const Cmd &zam::activeCommand(const Cmd &C) {
  const Cmd *Cur = &C;
  while (const auto *S = dyn_cast<SeqCmd>(Cur))
    Cur = &S->first();
  return *Cur;
}

/// Local alias for readability.
static const Cmd &firstPrimitive(const Cmd &C) { return activeCommand(C); }

PropertyReport zam::checkWriteLabel(const Program &P, const Cmd &C,
                                    const Memory &InitialMemory,
                                    const MachineEnv &EnvTemplate,
                                    InterpreterOptions Opts) {
  const SecurityLattice &Lat = P.lattice();
  const Cmd &Active = firstPrimitive(C);
  if (!Active.labels().complete())
    return PropertyReport::fail("checker requires a labeled command");
  Label Ew = *Active.labels().Write;

  std::unique_ptr<MachineEnv> Pre = EnvTemplate.clone();
  std::unique_ptr<MachineEnv> Env = EnvTemplate.clone();
  oneStep(P, C, InitialMemory, *Env, Opts);

  for (Label L : Lat.allLabels()) {
    if (Lat.flowsTo(Ew, L))
      continue; // Modification permitted at this level.
    if (!Env->projectionEquals(*Pre, L))
      return PropertyReport::fail(
          fmt("step with write label %s modified level-%s state",
              Lat.name(Ew).c_str(), Lat.name(L).c_str()));
  }
  return PropertyReport::ok();
}

PropertyReport zam::checkReadLabel(const Program &P, const Cmd &C,
                                   const Memory &M1, const Memory &M2,
                                   const MachineEnv &E1, const MachineEnv &E2,
                                   InterpreterOptions Opts) {
  const SecurityLattice &Lat = P.lattice();
  const Cmd &Active = firstPrimitive(C);
  if (!Active.labels().complete())
    return PropertyReport::fail("checker requires a labeled command");
  Label Er = *Active.labels().Read;

  // Premises: agreement on vars1(C) and er-equivalent environments.
  for (const std::string &Var : vars1(C)) {
    if (M1.slot(Var).Data != M2.slot(Var).Data)
      return PropertyReport::fail("premise violated: vars1 values differ");
  }
  if (!E1.equivalentUpTo(E2, Er))
    return PropertyReport::fail("premise violated: environments not ~er");

  std::unique_ptr<MachineEnv> Env1 = E1.clone();
  std::unique_ptr<MachineEnv> Env2 = E2.clone();
  const uint64_t T1 = oneStep(P, C, M1, *Env1, Opts);
  const uint64_t T2 = oneStep(P, C, M2, *Env2, Opts);

  if (T1 != T2)
    return PropertyReport::fail(
        fmt("single-step times differ: %" PRIu64 " vs %" PRIu64
            " (read label %s)",
            T1, T2, Lat.name(Er).c_str()));
  return PropertyReport::ok();
}

PropertyReport zam::checkSingleStepNI(const Program &P, const Cmd &C,
                                      const Memory &M1, const Memory &M2,
                                      const MachineEnv &E1,
                                      const MachineEnv &E2, Label Level,
                                      InterpreterOptions Opts) {
  const SecurityLattice &Lat = P.lattice();
  const Cmd &Active = firstPrimitive(C);
  if (!Active.labels().complete())
    return PropertyReport::fail("checker requires a labeled command");

  // Array extension side condition: Property 7 is only claimed for steps
  // whose data-dependent address labels flow to ew (the type system
  // enforces this; hardware alone cannot). Vacuously true otherwise.
  if (!Lat.flowsTo(stepAddressLabel(Active, P), *Active.labels().Write)) {
    PropertyReport Rep = PropertyReport::ok();
    Rep.Detail = "inapplicable: step address label exceeds the write label";
    return Rep;
  }

  if (!M1.equivalentUpTo(M2, Level, Lat))
    return PropertyReport::fail("premise violated: memories not ~ℓ");
  if (!E1.equivalentUpTo(E2, Level))
    return PropertyReport::fail("premise violated: environments not ~ℓ");

  std::unique_ptr<MachineEnv> Env1 = E1.clone();
  std::unique_ptr<MachineEnv> Env2 = E2.clone();
  oneStep(P, C, M1, *Env1, Opts);
  oneStep(P, C, M2, *Env2, Opts);

  if (!Env1->equivalentUpTo(*Env2, Level))
    return PropertyReport::fail(
        fmt("post-step environments not ~%s", Lat.name(Level).c_str()));
  return PropertyReport::ok();
}

PropertyReport zam::checkNoninterference(const Program &P, const Memory &M1,
                                         const Memory &M2,
                                         const MachineEnv &E1,
                                         const MachineEnv &E2, Label Level,
                                         InterpreterOptions Opts) {
  const SecurityLattice &Lat = P.lattice();
  if (!M1.equivalentUpTo(M2, Level, Lat))
    return PropertyReport::fail("premise violated: memories not ~ℓ");
  if (!E1.equivalentUpTo(E2, Level))
    return PropertyReport::fail("premise violated: environments not ~ℓ");

  std::unique_ptr<MachineEnv> Env1 = E1.clone();
  std::unique_ptr<MachineEnv> Env2 = E2.clone();

  FullInterpreter I1(P, *Env1, Opts);
  I1.memory().restoreValues(M1);
  RunResult R1 = I1.run();

  FullInterpreter I2(P, *Env2, Opts);
  I2.memory().restoreValues(M2);
  RunResult R2 = I2.run();

  if (R1.T.HitStepLimit || R2.T.HitStepLimit)
    return PropertyReport::fail("execution hit the step limit");
  if (R1.T.HitEventLimit || R2.T.HitEventLimit)
    return PropertyReport::fail("execution hit the event limit");

  if (!R1.FinalMemory.equivalentUpTo(R2.FinalMemory, Level, Lat))
    return PropertyReport::fail(
        fmt("final memories not ~%s", Lat.name(Level).c_str()));
  if (!Env1->equivalentUpTo(*Env2, Level))
    return PropertyReport::fail(
        fmt("final machine environments not ~%s", Lat.name(Level).c_str()));
  return PropertyReport::ok();
}

//===- ir_diff_test.cpp - Differential fuzzing over the timing-IR ----------===//
//
// Random well-typed programs pushed through all three semantics layers:
// the timing-free core evaluator (the Fig. 2 reference), the big-step IR
// driver, and the resumable small-step cursor — over all three hardware
// designs, cycling the mitigation policy per program so every registered
// schedule is exercised. Adequacy says core and full agree on memory and
// the event sequence; engine unification says the two IR engines agree on
// everything, including the attribution ledger bit for bit; and the
// online leakage accountant (fed window-by-window during the run) must
// match an offline accountant replaying the finished trace bit for bit
// under whichever policy scheduled the run. Compiled-form sharing says a
// CompiledProgram reused for many runs, on any number of threads, behaves
// exactly like compiling afresh for each run.
//
//===----------------------------------------------------------------------===//

#include "analysis/RandomProgram.h"
#include "exp/ParallelRunner.h"
#include "hw/HardwareModels.h"
#include "ir/Fusion.h"
#include "obs/CostLedger.h"
#include "obs/ExecProfile.h"
#include "obs/LeakAudit.h"
#include "obs/Metrics.h"
#include "obs/Telemetry.h"
#include "sem/CompiledProgram.h"
#include "sem/CoreInterpreter.h"
#include "sem/FullInterpreter.h"
#include "sem/Mitigation.h"
#include "sem/StepInterpreter.h"
#include "types/LabelInference.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

using namespace zam;
using namespace zam::test;

namespace {

/// The policy rotation: every fuzz trial picks the next entry, so each
/// schedule's settle loop, ledger attribution and leak pricing get fuzzed
/// alongside the default.
const MitigationPolicy &trialPolicy(unsigned Trial) {
  static const BucketedPolicy Bucketed(3);
  static const SeededPolicy Seeded(32);
  switch (Trial % 4) {
  case 1:
    return linearPolicy();
  case 2:
    return Bucketed;
  case 3:
    return Seeded;
  default:
    return fastDoublingPolicy();
  }
}

/// Runs \p P through core, full, and step semantics on \p Kind hardware
/// under \p Sel and checks the three-way agreement obligations.
void expectThreeWayAgreement(const Program &P, HwKind Kind,
                             const PolicySelection &Sel) {
  CoreResult Core = runCore(P);
  ASSERT_FALSE(Core.HitStepLimit);

  auto FullEnv = createMachineEnv(Kind, P.lattice(), MachineEnvConfig());
  auto StepEnv = FullEnv->clone();

  CostLedger FullLedger, StepLedger;
  ExecProfile FullProf, StepProf;
  InterpreterOptions FullOpts, StepOpts;
  FullOpts.Mitigation = Sel;
  StepOpts.Mitigation = Sel;
  FullOpts.Provenance = &FullLedger;
  StepOpts.Provenance = &StepLedger;
  FullOpts.Probe = &FullProf;
  StepOpts.Probe = &StepProf;
  LeakAudit Online(P.lattice(), std::nullopt, Sel);
  FullOpts.OnMitigateWindow = [&Online](const MitigateRecord &R) {
    Online.onWindow(R);
  };

  RunResult Full = runFull(P, *FullEnv, FullOpts);
  ASSERT_FALSE(Full.T.HitStepLimit);

  StepInterpreter Step(P, *StepEnv, StepOpts);
  Trace StepTrace = Step.runToCompletion();

  // Adequacy (Property 1): the full semantics computes the same memory and
  // the same assignment events as the timing-free core. Core event times
  // are ordinals, not cycles, so compare events fieldwise without Time.
  EXPECT_TRUE(Core.FinalMemory == Full.FinalMemory) << hwKindName(Kind);
  ASSERT_EQ(Core.Events.size(), Full.T.Events.size());
  for (size_t I = 0; I != Core.Events.size(); ++I) {
    const AssignEvent &C = Core.Events[I], &F = Full.T.Events[I];
    EXPECT_EQ(C.Var, F.Var) << "event " << I;
    EXPECT_EQ(C.VarLabel, F.VarLabel) << "event " << I;
    EXPECT_EQ(C.IsArrayStore, F.IsArrayStore) << "event " << I;
    EXPECT_EQ(C.ElemIndex, F.ElemIndex) << "event " << I;
    EXPECT_EQ(C.Value, F.Value) << "event " << I;
  }

  // Engine unification: both IR engines agree on the entire observable
  // configuration — cycle-exact trace, memory, hardware state, and the
  // per-line attribution ledger (canonical JSON, byte for byte).
  EXPECT_EQ(Full.T.FinalTime, StepTrace.FinalTime) << hwKindName(Kind);
  EXPECT_EQ(Full.T.Steps, StepTrace.Steps);
  EXPECT_EQ(Full.T.FinalMissTable, StepTrace.FinalMissTable);
  EXPECT_TRUE(Full.FinalMemory == Step.memory());
  EXPECT_TRUE(FullEnv->stateEquals(*StepEnv));
  ASSERT_EQ(Full.T.Events.size(), StepTrace.Events.size());
  for (size_t I = 0; I != Full.T.Events.size(); ++I)
    EXPECT_TRUE(Full.T.Events[I] == StepTrace.Events[I]) << "event " << I;
  ASSERT_EQ(Full.T.Mitigations.size(), StepTrace.Mitigations.size());
  for (size_t I = 0; I != Full.T.Mitigations.size(); ++I)
    EXPECT_TRUE(Full.T.Mitigations[I] == StepTrace.Mitigations[I])
        << "mitigation " << I;
  EXPECT_EQ(FullLedger.toJson().dump(), StepLedger.toJson().dump());
  EXPECT_EQ(FullLedger.totalCycles(), Full.T.FinalTime)
      << "ledger must attribute every cycle";

  // Execution-observatory unification: both engines dispatch the same IR
  // through the same core, so the exec.* profiles — pc counts, opcode and
  // digram tables, branch directions, settle histograms — are identical
  // byte for byte, and each satisfies the conservation equations.
  std::string ProfErr;
  EXPECT_TRUE(FullProf.selfCheck(ProfErr)) << ProfErr;
  EXPECT_TRUE(StepProf.selfCheck(ProfErr)) << ProfErr;
  MetricsRegistry FullExec, StepExec;
  FullProf.exportMetrics(FullExec);
  StepProf.exportMetrics(StepExec);
  EXPECT_EQ(FullExec.toJson().dump(), StepExec.toJson().dump())
      << hwKindName(Kind);

  // Dispatch-matrix unification: the fusion overlay and the choice of run
  // loop are pure wall-clock knobs, so every observable — trace, memory,
  // hardware state, ledger, exec.* profile — is byte-identical across
  // {fusion on, off} × {threaded, switch} against the baseline run above.
  const std::string BaseLedger = FullLedger.toJson().dump();
  const std::string BaseExec = FullExec.toJson().dump();
  struct DispatchLeg {
    bool Fusion;
    DispatchMode Mode;
    const char *Name;
  };
  const DispatchLeg Legs[] = {
      {true, DispatchMode::Threaded, "fused/threaded"},
      {true, DispatchMode::Switch, "fused/switch"},
      {false, DispatchMode::Threaded, "unfused/threaded"},
      {false, DispatchMode::Switch, "unfused/switch"},
  };
  for (const DispatchLeg &Leg : Legs) {
    if (Leg.Mode == DispatchMode::Threaded && !threadedDispatchAvailable())
      continue;
    auto Env = createMachineEnv(Kind, P.lattice(), MachineEnvConfig());
    CostLedger Ledger;
    ExecProfile Prof;
    InterpreterOptions Opts;
    Opts.Mitigation = Sel;
    Opts.Provenance = &Ledger;
    Opts.Probe = &Prof;
    Opts.Fusion = Leg.Fusion;
    Opts.Dispatch = Leg.Mode;
    RunResult R = runFull(P, *Env, Opts);
    EXPECT_EQ(R.T.FinalTime, Full.T.FinalTime) << Leg.Name;
    EXPECT_EQ(R.T.Steps, Full.T.Steps) << Leg.Name;
    EXPECT_EQ(R.T.FinalMissTable, Full.T.FinalMissTable) << Leg.Name;
    EXPECT_TRUE(R.FinalMemory == Full.FinalMemory) << Leg.Name;
    EXPECT_TRUE(Env->stateEquals(*FullEnv)) << Leg.Name;
    ASSERT_EQ(R.T.Events.size(), Full.T.Events.size()) << Leg.Name;
    for (size_t I = 0; I != R.T.Events.size(); ++I)
      EXPECT_TRUE(R.T.Events[I] == Full.T.Events[I])
          << Leg.Name << " event " << I;
    ASSERT_EQ(R.T.Mitigations.size(), Full.T.Mitigations.size()) << Leg.Name;
    for (size_t I = 0; I != R.T.Mitigations.size(); ++I)
      EXPECT_TRUE(R.T.Mitigations[I] == Full.T.Mitigations[I])
          << Leg.Name << " mitigation " << I;
    EXPECT_EQ(Ledger.toJson().dump(), BaseLedger) << Leg.Name;
    MetricsRegistry Exec;
    Prof.exportMetrics(Exec);
    EXPECT_EQ(Exec.toJson().dump(), BaseExec) << Leg.Name;
  }

  // Online/offline agreement: replaying the finished trace through a
  // fresh accountant must land on the same Sec. 6 bound, bit for bit,
  // under whichever policy scheduled the run.
  LeakAudit Offline(P.lattice(), std::nullopt, Sel);
  Offline.ingest(Full.T);
  EXPECT_EQ(Online.totalBitsBound(), Offline.totalBitsBound())
      << Sel.base().spec() << " on " << hwKindName(Kind);
  for (Label L : P.lattice().allLabels()) {
    EXPECT_EQ(Online.account(L).Windows, Offline.account(L).Windows);
    EXPECT_EQ(Online.account(L).BitsBound, Offline.account(L).BitsBound);
  }
}

/// Every observable of one fully observed run, rendered comparable.
struct RunBytes {
  Memory FinalMemory;
  HwStats Hw;
  std::string Summary; ///< FinalTime, steps, limit flag, Miss table, ops.
  std::string Trace;   ///< The JSONL export, with the embedded ledger.
  std::string Metrics; ///< leak.*, prof.* and exec.* as canonical JSON.
};

/// Runs \p P as run number \p K — from \p C when set, else compiling
/// afresh through the Program constructor — with every observer attached.
/// The run's inputs (each scalar's initial value) depend on \p K.
RunBytes observedRun(const Program &P, const CompiledProgram *C, HwKind Kind,
                     const PolicySelection &Sel, unsigned K) {
  auto Env = createMachineEnv(Kind, P.lattice(), MachineEnvConfig());
  CostLedger Ledger;
  ExecProfile Prof;
  LeakAudit Audit(P.lattice(), std::nullopt, Sel);
  InterpreterOptions Opts;
  Opts.Mitigation = Sel;
  Opts.Provenance = &Ledger;
  Opts.Probe = &Prof;
  Opts.RecordMisses = true;
  // New inputs may make a loop run long; both sides stop at the same step.
  Opts.StepLimit = 200000;
  Opts.OnMitigateWindow = [&Audit](const MitigateRecord &R) {
    Audit.onWindow(R);
  };
  std::optional<FullInterpreter> Interp;
  if (C)
    Interp.emplace(*C, *Env, Opts);
  else
    Interp.emplace(P, *Env, Opts);
  Memory &M = Interp->memory();
  for (size_t I = 0; I != M.slotCount(); ++I)
    if (!M.slotAt(I).IsArray)
      M.slotAt(I).Data[0] = static_cast<int64_t>((K * 7 + I) % 11) - 3;
  RunResult R = Interp->run();
  Ledger.applyLeakage(Audit);

  RunBytes B;
  B.FinalMemory = std::move(R.FinalMemory);
  B.Hw = R.Hw;
  B.Summary = std::to_string(R.T.FinalTime) + " " + std::to_string(R.T.Steps) +
              " " + std::to_string(R.T.HitStepLimit) + " " +
              std::to_string(R.T.Ops.Assignments) + " " +
              std::to_string(R.T.Ops.Branches) + " " +
              std::to_string(R.T.Ops.MitigateEntries);
  for (unsigned Miss : R.T.FinalMissTable)
    B.Summary += " " + std::to_string(Miss);
  StringByteSink Bytes;
  std::unique_ptr<TraceSink> Sink = makeTraceSink(TraceFormat::Jsonl, Bytes);
  TraceExportOptions EOpts;
  EOpts.Ledger = &Ledger;
  EOpts.Mitigation = Sel;
  exportTrace(*Sink, R.T, P.lattice(), EOpts);
  Sink->close();
  B.Trace = Bytes.str();
  MetricsRegistry Reg;
  Audit.exportMetrics(Reg);
  Ledger.exportMetrics(Reg);
  Prof.exportMetrics(Reg);
  B.Metrics = Reg.toJson().dump();
  return B;
}

/// K runs through one shared CompiledProgram — sequentially and fanned out
/// over 1, 2 and 8 worker threads — must be byte-identical to K runs that
/// each compile afresh.
void expectSharedCompiledFormAgrees(const Program &P, HwKind Kind,
                                    const PolicySelection &Sel) {
  constexpr unsigned K = 4;
  std::vector<RunBytes> Fresh;
  for (unsigned Run = 0; Run != K; ++Run)
    Fresh.push_back(observedRun(P, nullptr, Kind, Sel, Run));
  InterpreterOptions COpts;
  COpts.Mitigation = Sel;
  const CompiledProgram C(P, COpts);
  for (unsigned Threads : {1u, 2u, 8u}) {
    const ParallelRunner Runner(Threads);
    std::vector<RunBytes> Shared = Runner.map(K, [&](size_t Run) {
      return observedRun(P, &C, Kind, Sel, static_cast<unsigned>(Run));
    });
    for (unsigned Run = 0; Run != K; ++Run) {
      const RunBytes &A = Fresh[Run], &B = Shared[Run];
      EXPECT_TRUE(A.FinalMemory == B.FinalMemory) << Threads << "t run " << Run;
      EXPECT_TRUE(A.Hw == B.Hw) << Threads << "t run " << Run;
      EXPECT_EQ(A.Summary, B.Summary) << Threads << "t run " << Run;
      EXPECT_EQ(A.Trace, B.Trace) << Threads << "t run " << Run;
      EXPECT_EQ(A.Metrics, B.Metrics) << Threads << "t run " << Run;
    }
  }
}

void fuzz(const SecurityLattice &Lat, HwKind Kind, uint64_t Seed,
          unsigned Want) {
  Rng R(Seed);
  unsigned Found = 0;
  for (unsigned Trial = 0; Trial != 10 * Want && Found < Want; ++Trial) {
    RandomProgramOptions O;
    O.MaxDepth = 4;
    std::optional<Program> P = randomWellTypedProgram(Lat, R, O);
    if (!P)
      continue;
    ++Found;
    PolicySelection Sel;
    Sel.Default = &trialPolicy(Found);
    expectThreeWayAgreement(*P, Kind, Sel);
    expectSharedCompiledFormAgrees(*P, Kind, Sel);
  }
  EXPECT_GE(Found, Want / 2) << "random generator produced too few programs";
}

} // namespace

class IrDifferential : public ::testing::TestWithParam<HwKind> {};

TEST_P(IrDifferential, RandomProgramsTwoLevel) {
  fuzz(lh(), GetParam(), 0xD1FF + static_cast<uint64_t>(GetParam()), 16);
}

TEST_P(IrDifferential, RandomProgramsThreeLevel) {
  fuzz(lmh(), GetParam(), 0xFACE + static_cast<uint64_t>(GetParam()), 10);
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, IrDifferential,
                         ::testing::ValuesIn(allHwKinds()),
                         [](const auto &Info) {
                           return std::string(hwKindName(Info.param));
                         });

TEST(CompiledProgram, MismatchedLoweringInputsAbort) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Program P = parseOrDie("var l : L;\nl := l + 1");
  inferTimingLabels(P);
  const CompiledProgram C(P);
  auto Env = createMachineEnv(HwKind::NoPartition, lh(), MachineEnvConfig());

  InterpreterOptions Costly;
  Costly.Costs.AluOp = 3;
  EXPECT_DEATH(FullInterpreter(C, *Env, Costly),
               "FullInterpreter: the options' Costs differs");
  InterpreterOptions Linear;
  Linear.Mitigation.Default = &linearPolicy();
  EXPECT_DEATH(StepInterpreter(C, *Env, Linear),
               "StepInterpreter: the options' Mitigation differs");
  InterpreterOptions Unfused;
  Unfused.Fusion = false;
  EXPECT_DEATH(FullInterpreter(C, *Env, Unfused), "Fusion differs");
  const FusionProfile Empty;
  InterpreterOptions OtherPlan;
  OtherPlan.FuseProfile = &Empty;
  EXPECT_DEATH(FullInterpreter(C, *Env, OtherPlan), "FuseProfile differs");

  // Everything else may change per run, and an equal profile at another
  // address plans the same fusion.
  InterpreterOptions PerRun;
  PerRun.StepLimit = 10;
  PerRun.RecordMisses = true;
  PerRun.Penalty = PenaltyPolicy::Global;
  PerRun.Mitigation.Default = &fastDoublingPolicy();
  const FusionProfile Copy = FusionProfile::defaultProfile();
  PerRun.FuseProfile = &Copy;
  EXPECT_EQ(C.mismatchedInput(PerRun), nullptr);
  FullInterpreter Interp(C, *Env, PerRun);
  EXPECT_EQ(Interp.run().FinalMemory.load("l"), 1);
}

//===- exec_profile_test.cpp - The execution observatory (obs/ExecProfile) --===//
//
// Covers the deterministic ExecCore self-profiler: conservation equations
// on real runs, bit-identical exec.* exports whether a run is driven by
// run() or step by step and on every hardware design, thread-partitioned
// merge equivalence, the lowering invariants the per-pc table depends on
// (dense pc slots, trailing never-dispatched Halt), the fixed export shape
// for degenerate zero-mitigate-site programs, and the digram-ranking /
// collapsed-stack exports.
//
//===----------------------------------------------------------------------===//

#include "hw/HardwareModels.h"
#include "ir/Lowering.h"
#include "obs/ExecProfile.h"
#include "obs/Metrics.h"
#include "sem/FullInterpreter.h"
#include "types/LabelInference.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

using namespace zam;
using namespace zam::test;

namespace {

/// A loop + array-store + mitigated-sleep program: every dispatchable
/// opcode except Skip shows up, and the single mitigate site settles once
/// per run.
Program mitigatedLoop() {
  Program P = parseOrDie("var h : H;\nvar l : L;\nvar a : L[8];\n"
                         "var i : L;\n"
                         "i := 0;\n"
                         "while i < 8 do { a[i] := i; i := i + 1 };\n"
                         "mitigate (16, H) { sleep(h) @[H,H] };\n"
                         "l := i",
                         lh());
  inferTimingLabels(P);
  return P;
}

/// The degenerate program every tool must handle: public, straight-line,
/// no mitigate commands.
Program straightline() {
  Program P = parseOrDie("var a : L;\nvar b : L;\nvar total : L;\n"
                         "a := 3;\nb := 4;\n"
                         "total := a * a + b * b;\n"
                         "total := total + 1",
                         lh());
  inferTimingLabels(P);
  return P;
}

/// The profile's deterministic exec.* export as a canonical JSON string.
std::string execJson(const ExecProfile &Prof) {
  MetricsRegistry Reg;
  Prof.exportMetrics(Reg);
  return Reg.toJson().dump();
}

/// The export restricted to hardware-independent content: everything but
/// the exec.site.* settle histograms (those legitimately depend on body
/// cycles and hence the hardware design).
std::string execJsonSansSites(const ExecProfile &Prof) {
  MetricsRegistry Reg;
  Prof.exportMetrics(Reg);
  MetricsRegistry Filtered;
  for (const MetricsRegistry::Entry &E : Reg.entries())
    if (E.Name.rfind("exec.site.", 0) != 0)
      Filtered.setCounter(E.Name, E.Counter);
  return Filtered.toJson().dump();
}

/// Runs \p P once on fresh \p Kind hardware with \p Prof attached,
/// poking h = \p H (negative: the program declares no secret, poke
/// nothing).
void runOnceInto(const Program &P, HwKind Kind, int64_t H,
                 ExecProfile &Prof) {
  auto Env = createMachineEnv(Kind, P.lattice());
  InterpreterOptions Opts;
  Opts.Probe = &Prof;
  RunResult R = runFull(
      P, *Env,
      [H](Memory &M) {
        if (H >= 0)
          M.store("h", H);
      },
      Opts);
  ASSERT_FALSE(R.T.HitStepLimit);
}

} // namespace

TEST(ExecProfile, ConservationHoldsOnMitigatedLoop) {
  Program P = mitigatedLoop();
  ExecProfile Prof;
  runOnceInto(P, HwKind::Partitioned, 5, Prof);

  std::string Err;
  EXPECT_TRUE(Prof.selfCheck(Err)) << Err;
  EXPECT_EQ(Prof.runs(), 1u);
  EXPECT_EQ(Prof.heads(), 1u); // One run: exactly one head dispatch.
  EXPECT_GT(Prof.dispatches(), 0u);
  EXPECT_EQ(Prof.opCount(IrInstr::Op::Halt), 0u);
  // The while loop: 8 taken iterations plus the final fall-through.
  EXPECT_EQ(Prof.branchTaken(), 8u);
  EXPECT_EQ(Prof.branchNotTaken(), 1u);
  EXPECT_EQ(Prof.opCount(IrInstr::Op::MitEnter), 1u);
  EXPECT_EQ(Prof.opCount(IrInstr::Op::MitEnd), 1u);
  ASSERT_EQ(Prof.sites().size(), 1u);
  EXPECT_EQ(Prof.sites()[0].SettleEpochs.total(), 1u);
}

TEST(ExecProfile, FullAndStepEnginesExportIdenticallyOnEveryDesign) {
  Program P = mitigatedLoop();
  std::string FirstSansSites;
  for (HwKind Kind : allHwKinds()) {
    ExecProfile FullProf, StepProf;
    runOnceInto(P, Kind, 7, FullProf);

    auto Env = createMachineEnv(Kind, P.lattice());
    InterpreterOptions Opts;
    Opts.Probe = &StepProf;
    FullInterpreter Step(P, *Env, Opts);
    Step.memory().store("h", static_cast<int64_t>(7));
    while (!Step.done())
      Step.step();
    const Trace &T = Step.trace();
    ASSERT_FALSE(T.HitStepLimit);

    std::string Err;
    EXPECT_TRUE(FullProf.selfCheck(Err)) << Err;
    EXPECT_TRUE(StepProf.selfCheck(Err)) << Err;
    // Engine unification extends to the observatory: byte-identical
    // exec.* content, settle histograms included.
    EXPECT_EQ(execJson(FullProf), execJson(StepProf)) << hwKindName(Kind);
    // Across hardware designs only the settle histograms may move; the
    // pc/opcode/digram/branch books are pure control flow.
    if (FirstSansSites.empty())
      FirstSansSites = execJsonSansSites(FullProf);
    else
      EXPECT_EQ(execJsonSansSites(FullProf), FirstSansSites)
          << hwKindName(Kind);
  }
}

TEST(ExecProfile, MergedPartitionsMatchTheSerialProfile) {
  Program P = mitigatedLoop();
  constexpr unsigned NumRuns = 8;

  // Serial: one profile observes all eight runs back to back.
  ExecProfile Serial;
  for (unsigned I = 0; I != NumRuns; ++I)
    runOnceInto(P, HwKind::Partitioned, 1 + 3 * I, Serial);

  // Two-way partition: runs 0-3 and 4-7 profiled independently, merged.
  ExecProfile HalfA, HalfB;
  for (unsigned I = 0; I != NumRuns; ++I)
    runOnceInto(P, HwKind::Partitioned, 1 + 3 * I,
                I < NumRuns / 2 ? HalfA : HalfB);
  ExecProfile TwoWay;
  TwoWay.merge(HalfA);
  TwoWay.merge(HalfB);

  // Eight-way partition: one single-run profile per worker, all merged.
  ExecProfile EightWay;
  for (unsigned I = 0; I != NumRuns; ++I) {
    ExecProfile One;
    runOnceInto(P, HwKind::Partitioned, 1 + 3 * I, One);
    EightWay.merge(One);
  }

  std::string Err;
  EXPECT_TRUE(Serial.selfCheck(Err)) << Err;
  EXPECT_TRUE(TwoWay.selfCheck(Err)) << Err;
  EXPECT_TRUE(EightWay.selfCheck(Err)) << Err;
  EXPECT_EQ(Serial.runs(), NumRuns);
  EXPECT_EQ(Serial.heads(), NumRuns); // Each run restarts the digram chain.
  EXPECT_EQ(execJson(Serial), execJson(TwoWay));
  EXPECT_EQ(execJson(Serial), execJson(EightWay));
}

TEST(ExecProfile, LoweringGivesEveryInstrAPcSlotAndHaltNeverCounts) {
  for (bool Mitigated : {true, false}) {
    Program P = Mitigated ? mitigatedLoop() : straightline();
    IrProgram IR = lowerProgram(P);
    ExecProfile Prof;
    runOnceInto(P, HwKind::Partitioned, Mitigated ? 2 : -1, Prof);
    // Lowering is deterministic, so an independently lowered copy has the
    // same shape the probe captured: one dense pc slot per instruction,
    // the Halt terminator last and never dispatched.
    ASSERT_EQ(Prof.pcs().size(), IR.Instrs.size());
    ASSERT_FALSE(IR.Instrs.empty());
    EXPECT_EQ(IR.haltIndex(), IR.Instrs.size() - 1);
    EXPECT_EQ(static_cast<int>(IR.Instrs[IR.haltIndex()].K),
              static_cast<int>(IrInstr::Op::Halt));
    EXPECT_EQ(Prof.pcs()[IR.haltIndex()].Count, 0u);
    for (uint32_t I = 0; I != Prof.pcs().size(); ++I)
      EXPECT_EQ(static_cast<int>(Prof.pcs()[I].K),
                static_cast<int>(IR.Instrs[I].K))
          << "pc " << I;
  }
}

TEST(ExecProfile, StraightlineProgramHasFixedShapeAndNoSites) {
  Program P = straightline();
  ExecProfile Prof;
  runOnceInto(P, HwKind::Partitioned, -1, Prof);

  std::string Err;
  EXPECT_TRUE(Prof.selfCheck(Err)) << Err;
  // Straight-line and loop-free: every non-Halt pc dispatched exactly once.
  for (uint32_t I = 0; I != Prof.pcs().size(); ++I) {
    const ExecProfile::PcStat &S = Prof.pcs()[I];
    EXPECT_EQ(S.Count, S.K == IrInstr::Op::Halt ? 0u : 1u) << "pc " << I;
  }

  MetricsRegistry Reg;
  Prof.exportMetrics(Reg);
  // The export shape is fixed even for the degenerate program: all eight
  // per-opcode counters are present (zeros included) and the site count
  // is an explicit zero with no site histograms trailing it.
  for (const char *Op : {"skip", "assign", "store", "branch", "sleep",
                         "mitenter", "mitend", "halt"}) {
    bool Present = false;
    for (const MetricsRegistry::Entry &E : Reg.entries())
      Present |= E.Name == std::string("exec.op.") + Op;
    EXPECT_TRUE(Present) << Op;
  }
  EXPECT_EQ(Reg.counterValue("exec.sites"), 0u);
  for (const MetricsRegistry::Entry &E : Reg.entries())
    EXPECT_NE(E.Name.rfind("exec.site.", 0), 0u) << E.Name;
  EXPECT_EQ(Reg.counterValue("exec.op.branch"), 0u);
  EXPECT_EQ(Reg.counterValue("exec.op.mitenter"), 0u);
}

TEST(ExecProfile, RankedDigramsAndFoldedStacksAreConsistent) {
  Program P = mitigatedLoop();
  ExecProfile Prof;
  runOnceInto(P, HwKind::Partitioned, 5, Prof);

  // Ranking: descending counts, and the table conserves against the
  // dispatch total minus the single run head.
  uint64_t Ranked = 0;
  uint64_t Prev = UINT64_MAX;
  for (const ExecProfile::DigramRank &D : Prof.rankedDigrams()) {
    EXPECT_LE(D.Count, Prev);
    Prev = D.Count;
    Ranked += D.Count;
  }
  EXPECT_EQ(Ranked + Prof.heads(), Prof.dispatches());

  // Collapsed stacks: every line is "root;line L;op N" and the counts sum
  // to the dispatch total (every dispatched pc folds somewhere).
  const std::string Folded = Prof.foldedStacks("loop.zam");
  uint64_t FoldedSum = 0;
  size_t Begin = 0;
  while (Begin < Folded.size()) {
    const size_t End = Folded.find('\n', Begin);
    ASSERT_NE(End, std::string::npos);
    const std::string Line = Folded.substr(Begin, End - Begin);
    EXPECT_EQ(Line.rfind("loop.zam;line ", 0), 0u) << Line;
    const size_t Space = Line.rfind(' ');
    ASSERT_NE(Space, std::string::npos);
    FoldedSum += std::stoull(Line.substr(Space + 1));
    Begin = End + 1;
  }
  EXPECT_EQ(FoldedSum, Prof.dispatches());
}

//===- prof_test.cpp - Source-attribution profiler ledger ------------------===//
//
// Tests for the timing-provenance profiler (obs/CostLedger.h): the
// conservation invariants `zamc profile` enforces, on fixed and random
// programs and on runs that stop early, cycle-for-cycle agreement between
// the two interpreter engines' attributions, byte stability of the ledger
// across harness thread counts, the synthetic locations ProgramBuilder
// stamps, and the prof.* metrics export shape.
//
//===----------------------------------------------------------------------===//

#include "analysis/RandomProgram.h"
#include "exp/ParallelRunner.h"
#include "hw/HardwareModels.h"
#include "lang/ProgramBuilder.h"
#include "obs/CostLedger.h"
#include "obs/LeakAudit.h"
#include "sem/CompiledProgram.h"
#include "sem/FullInterpreter.h"
#include "types/LabelInference.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

#include <map>

using namespace zam;
using namespace zam::test;

namespace {

Program inferred(std::string Source) {
  Program P = parseOrDie(Source);
  inferTimingLabels(P);
  return P;
}

/// A mitigated workload exercising every cost kind the ledger tracks:
/// array traffic (cache/TLB events), a mispredicting mitigate window
/// (padding + leak bits), a calibrated sleep, and plain stepping.
const char *kWorkload = "var h : H = 9;\n"
                        "var l : L;\n"
                        "var a : L[16];\n"
                        "l := 0;\n"
                        "while l < 8 do { a[l] := l + 1; l := l + 1 };\n"
                        "mitigate (4, H) {\n"
                        "  while h > 0 do { h := h - 1 }\n"
                        "};\n"
                        "sleep(5)";

/// Stores over a 32 KiB array (twice the Table 1 L1D), then reads and
/// rewrites it: the second pass evicts the dirty lines of the first, so
/// evictions and writebacks are nonzero on every design.
const char *kEvictingWorkload = "var a : L[4096];\n"
                                "var i : L;\n"
                                "while i < 4096 do { a[i] := i; i := i + 1 };\n"
                                "i := 0;\n"
                                "while i < 4096 do {\n"
                                "  a[i] := a[i] + 1; i := i + 1\n"
                                "}";

/// Runs \p P on a fresh \p Kind machine under the profiler and returns the
/// settled ledger JSON (the canonical byte-comparable form).
std::string profileDump(const Program &P, HwKind Kind) {
  auto Env = createMachineEnv(Kind, P.lattice(), MachineEnvConfig());
  CostLedger Ledger;
  LeakAudit Audit(P.lattice());
  InterpreterOptions Opts;
  Opts.Provenance = &Ledger;
  Opts.OnMitigateWindow = [&](const MitigateRecord &R) { Audit.onWindow(R); };
  runFull(P, *Env, Opts);
  Ledger.applyLeakage(Audit);
  return Ledger.toJson().dump();
}

void expectStructureMatches(const LineHwStats &Got, const CacheLevelStats &Want,
                            const char *Name) {
  EXPECT_EQ(Got.Hits, Want.Hits) << Name;
  EXPECT_EQ(Got.Misses, Want.Misses) << Name;
  EXPECT_EQ(Got.Evictions, Want.Evictions) << Name;
  EXPECT_EQ(Got.Writebacks, Want.Writebacks) << Name;
  EXPECT_EQ(Got.LineFills, Want.LineFills) << Name;
}

/// The ledger accounts for exactly \p Cycles simulated cycles and for the
/// machine's counters \p Hw: each structure's per-line tallies sum to
/// them on all five fields.
void expectLedgerCovers(const CostLedger &Ledger, uint64_t Cycles,
                        const HwStats &Hw) {
  EXPECT_EQ(Ledger.totalCycles(), Cycles);
  const CacheLevelStats *Want[CostLedger::kStructures] = {
      &Hw.L1D, &Hw.L2D, &Hw.L1I, &Hw.L2I, &Hw.DTlb, &Hw.ITlb};
  for (unsigned I = 0; I != CostLedger::kStructures; ++I)
    expectStructureMatches(Ledger.structureTotals(I), *Want[I],
                           CostLedger::structureName(I));
  EXPECT_EQ(Ledger.totalAccesses(),
            Hw.DTlb.Hits + Hw.DTlb.Misses + Hw.ITlb.Hits + Hw.ITlb.Misses);
}

/// Well-typed random programs over \p Lat, at most \p Count of them.
std::vector<Program> randomPrograms(const SecurityLattice &Lat, uint64_t Seed,
                                    unsigned Count, CacheGeometry G) {
  Rng R(Seed);
  std::vector<Program> Out;
  for (unsigned Trial = 0; Trial != 60 && Out.size() < Count; ++Trial) {
    RandomProgramOptions O;
    O.MaxDepth = 3;
    O.ArraySize = randomArraySize(G);
    if (std::optional<Program> P = randomWellTypedProgram(Lat, R, O))
      Out.push_back(std::move(*P));
  }
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Conservation: per-line totals sum exactly to the whole-run numbers
//===----------------------------------------------------------------------===//

/// Every design on Table 1's caches and on the two-set geometry.
class ProfilerConservation
    : public ::testing::TestWithParam<std::tuple<HwKind, CacheGeometry>> {
protected:
  HwKind kind() const { return std::get<0>(GetParam()); }
  CacheGeometry geometry() const { return std::get<1>(GetParam()); }
};

namespace {
/// Profiles \p P on a fresh \p Kind machine of geometry \p G and checks
/// that every cost is attributed exactly. \returns the run and the settled
/// ledger.
std::pair<RunResult, CostLedger> expectConservation(const Program &P,
                                                    HwKind Kind,
                                                    CacheGeometry G) {
  auto Env = createMachineEnv(Kind, P.lattice(), configOf(G));
  CostLedger Ledger;
  LeakAudit Audit(P.lattice());
  InterpreterOptions Opts;
  Opts.Provenance = &Ledger;
  Opts.OnMitigateWindow = [&](const MitigateRecord &R) { Audit.onWindow(R); };
  RunResult R = runFull(P, *Env, Opts);
  Ledger.applyLeakage(Audit);

  // Cycles: attributed step + sleep + pad cycles cover the clock exactly.
  // Hardware: each structure's per-line tallies sum to the machine's own
  // counters on all five fields.
  expectLedgerCovers(Ledger, R.T.FinalTime, R.Hw);
  EXPECT_GT(Ledger.totalCycles(), 0u);

  // Padding: matches the trace's own padded-idle account.
  uint64_t PaddedIdle = 0;
  for (const MitigateRecord &M : R.T.Mitigations)
    if (M.Duration > M.BodyTime)
      PaddedIdle += M.Duration - M.BodyTime;
  EXPECT_EQ(Ledger.totalPadCycles(), PaddedIdle);
  EXPECT_EQ(Ledger.totalWindows(), R.T.Mitigations.size());

  // Leakage: the replay reproduces the online account bit-for-bit.
  EXPECT_EQ(Ledger.totalLeakBits(), Audit.totalBitsBound());
  return {std::move(R), std::move(Ledger)};
}
} // namespace

TEST_P(ProfilerConservation, EveryCostIsAttributedExactly) {
  const auto [R, Ledger] =
      expectConservation(inferred(kWorkload), kind(), geometry());
  EXPECT_GT(Ledger.totalLeakBits(), 0.0);
}

// kWorkload evicts nothing, so its eviction and writeback sums compare
// zeros; this workload makes those two comparisons able to fail.
TEST_P(ProfilerConservation, EvictionsAndWritebacksAreAttributedExactly) {
  const auto [R, Ledger] =
      expectConservation(inferred(kEvictingWorkload), kind(), geometry());
  EXPECT_GT(R.Hw.L1D.Evictions, 0u);
  EXPECT_GT(R.Hw.L1D.Writebacks, 0u);
  EXPECT_GT(Ledger.structureTotals(CostLedger::L1D).Writebacks, 0u);
}

// Random programs mix every command, nested windows and array traffic at
// random lines, so each access kind of the fold's rule lands on some line
// other than its command's.
TEST_P(ProfilerConservation, RandomProgramsAreAttributedExactly) {
  uint64_t Evictions = 0;
  for (const SecurityLattice *Lat :
       std::initializer_list<const SecurityLattice *>{&lh(), &lmh()}) {
    const std::vector<Program> Programs =
        randomPrograms(*Lat, 0xF01D, 10, geometry());
    EXPECT_GE(Programs.size(), 5u);
    for (size_t I = 0; I != Programs.size(); ++I) {
      SCOPED_TRACE("program " + std::to_string(I) + " over " +
                   std::to_string(Lat->size()) + " levels");
      Evictions +=
          expectConservation(Programs[I], kind(), geometry()).first.Hw.L1D
              .Evictions;
    }
  }
  static EvictionTally Tally;
  Tally.add(kind(), geometry(), Evictions);
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, ProfilerConservation,
                         allDesignsAndGeometries(), designAndGeometryName);

//===----------------------------------------------------------------------===//
// Engine agreement and attribution placement
//===----------------------------------------------------------------------===//

namespace {
/// A completed run and a run stepped one transition at a time must not
/// only agree on totals but attribute every cost to the same source line
/// and mitigate site. Adds the L1D evictions of each design's completed
/// run to \p Evictions, by design.
void expectEnginesChargeIdenticalLedgers(
    const Program &P, CacheGeometry G = CacheGeometry::Table1,
    std::map<HwKind, uint64_t> *Evictions = nullptr) {
  for (HwKind Kind : allHwKinds()) {
    auto Env1 = createMachineEnv(Kind, P.lattice(), configOf(G));
    auto Env2 = Env1->clone();

    CostLedger Fast;
    LeakAudit FastAudit(P.lattice());
    InterpreterOptions FastOpts;
    FastOpts.Provenance = &Fast;
    FastOpts.OnMitigateWindow = [&](const MitigateRecord &R) {
      FastAudit.onWindow(R);
    };
    const uint64_t L1DEvictions =
        runFull(P, *Env1, FastOpts).Hw.L1D.Evictions;
    if (Evictions)
      (*Evictions)[Kind] += L1DEvictions;
    Fast.applyLeakage(FastAudit);

    CostLedger Slow;
    LeakAudit SlowAudit(P.lattice());
    InterpreterOptions SlowOpts;
    SlowOpts.Provenance = &Slow;
    SlowOpts.OnMitigateWindow = [&](const MitigateRecord &R) {
      SlowAudit.onWindow(R);
    };
    FullInterpreter Step(P, *Env2, SlowOpts);
    while (!Step.done())
      Step.step();
    Slow.applyLeakage(SlowAudit);

    EXPECT_EQ(Fast.toJson().dump(), Slow.toJson().dump()) << hwKindName(Kind);
  }
}
} // namespace

TEST(Profiler, EnginesChargeIdenticalLedgers) {
  expectEnginesChargeIdenticalLedgers(inferred(kWorkload));
}

TEST(Profiler, EnginesChargeIdenticalLedgersOnRandomPrograms) {
  for (CacheGeometry G :
       {CacheGeometry::Table1, CacheGeometry::TwoSetTwoWay}) {
    const std::vector<Program> Programs = randomPrograms(lh(), 0xE9E, 10, G);
    EXPECT_GE(Programs.size(), 5u);
    std::map<HwKind, uint64_t> Evictions;
    for (size_t I = 0; I != Programs.size(); ++I) {
      SCOPED_TRACE("program " + std::to_string(I) + " on " +
                   geometryName(G));
      expectEnginesChargeIdenticalLedgers(Programs[I], G, &Evictions);
    }
    EvictionTally Tally;
    for (HwKind Kind : allHwKinds())
      Tally.add(Kind, G, Evictions[Kind]);
  }
}

//===----------------------------------------------------------------------===//
// The fold: a run charges its steps and accesses when it stops, however it
// stops
//===----------------------------------------------------------------------===//

namespace {
/// Counts forever; every iteration is a guard and one assignment event.
const char *kEndless = "var l : L;\n"
                       "var a : L[8];\n"
                       "while 1 do { a[l] := l; l := l + 1 }";
} // namespace

TEST(ProfilerFold, AStepLimitStopIsCharged) {
  Program P = inferred(kEndless);
  for (HwKind Kind : allHwKinds()) {
    SCOPED_TRACE(hwKindName(Kind));
    auto Env = createMachineEnv(Kind, P.lattice(), MachineEnvConfig());
    CostLedger Ledger;
    InterpreterOptions Opts;
    Opts.Provenance = &Ledger;
    Opts.StepLimit = 1001;
    const RunResult R = runFull(P, *Env, Opts);
    EXPECT_TRUE(R.T.HitStepLimit);
    expectLedgerCovers(Ledger, R.T.FinalTime, R.Hw);
    EXPECT_GT(Ledger.totalCycles(), 0u);
  }
}

TEST(ProfilerFold, AnEventLimitStopIsCharged) {
  Program P = inferred(kEndless);
  auto Env = createMachineEnv(HwKind::Partitioned, P.lattice(),
                              MachineEnvConfig());
  CostLedger Ledger;
  InterpreterOptions Opts;
  Opts.Provenance = &Ledger;
  const RunResult R = runFull(P, *Env, Opts);
  EXPECT_TRUE(R.T.HitEventLimit);
  EXPECT_FALSE(R.T.HitStepLimit);
  expectLedgerCovers(Ledger, R.T.FinalTime, R.Hw);
}

// One ledger kept across restarted runs of one interpreter holds what the
// same runs charge through fresh interpreters: each run's fold adds to the
// last, and a restart starts from empty tallies.
TEST(ProfilerFold, RestartedRunsAccumulate) {
  Program P = inferred(kWorkload);
  const CompiledProgram C(P);
  for (HwKind Kind : allHwKinds()) {
    SCOPED_TRACE(hwKindName(Kind));
    auto ReEnv = createMachineEnv(Kind, P.lattice(), MachineEnvConfig());
    auto FreshEnv = ReEnv->clone();
    CostLedger ReLedger, FreshLedger;
    InterpreterOptions ReOpts, FreshOpts;
    ReOpts.Provenance = &ReLedger;
    FreshOpts.Provenance = &FreshLedger;
    FullInterpreter Re(C, *ReEnv, ReOpts);
    uint64_t Cycles = 0;
    for (int Run = 0; Run != 3; ++Run) {
      if (Run != 0)
        Re.restart();
      Cycles += Re.complete().FinalTime;
      FullInterpreter Fresh(C, *FreshEnv, FreshOpts);
      Fresh.complete();
    }
    expectLedgerCovers(ReLedger, Cycles, ReEnv->stats());
    EXPECT_EQ(ReLedger.toJson().dump(), FreshLedger.toJson().dump());
  }
}

// An engine dropped after k of its n steps charges those k steps: the
// ledger's cycles are its clock, and its accesses the machine's.
TEST(ProfilerFold, ADroppedStepEngineChargesItsSteps) {
  Program P = inferred(kWorkload);
  for (HwKind Kind : allHwKinds()) {
    SCOPED_TRACE(hwKindName(Kind));
    uint64_t Steps = 0;
    {
      auto Env = createMachineEnv(Kind, P.lattice(), MachineEnvConfig());
      FullInterpreter Whole(P, *Env);
      while (!Whole.done()) {
        Whole.step();
        ++Steps;
      }
    }
    ASSERT_GT(Steps, 20u);
    for (uint64_t K : {uint64_t(0), uint64_t(1), Steps / 3, Steps / 2,
                       Steps - 1}) {
      SCOPED_TRACE("after " + std::to_string(K) + " steps");
      auto Env = createMachineEnv(Kind, P.lattice(), MachineEnvConfig());
      CostLedger Ledger;
      uint64_t Clock = 0;
      {
        InterpreterOptions Opts;
        Opts.Provenance = &Ledger;
        FullInterpreter Step(P, *Env, Opts);
        for (uint64_t I = 0; I != K; ++I)
          Step.step();
        ASSERT_FALSE(Step.done());
        Clock = Step.clock();
      }
      expectLedgerCovers(Ledger, Clock, Env->stats());
    }
  }
}

TEST(Profiler, SleepAndPadLandOnTheirOwnLines) {
  Program P = inferred(kWorkload);
  auto Env = createMachineEnv(HwKind::Partitioned, P.lattice(),
                              MachineEnvConfig());
  CostLedger Ledger;
  LeakAudit Audit(P.lattice());
  InterpreterOptions Opts;
  Opts.Provenance = &Ledger;
  Opts.OnMitigateWindow = [&](const MitigateRecord &R) { Audit.onWindow(R); };
  RunResult R = runFull(P, *Env, Opts);
  Ledger.applyLeakage(Audit);

  // The parser puts `mitigate` on line 6 and `sleep(5)` on line 9.
  ASSERT_EQ(R.T.Mitigations.size(), 1u);
  EXPECT_EQ(R.T.Mitigations[0].Line, 6u);
  ASSERT_TRUE(Ledger.sites().count(R.T.Mitigations[0].Eta));
  const SiteCost &Site = Ledger.sites().at(R.T.Mitigations[0].Eta);
  EXPECT_EQ(Site.Line, 6u);
  EXPECT_EQ(Site.Windows, 1u);

  // All padding charges to the mitigate's own line, tagged with its site.
  ASSERT_TRUE(Ledger.lines().count(6));
  EXPECT_EQ(Ledger.lines().at(6).PadCycles, Site.PadCycles);
  EXPECT_EQ(Ledger.lines().at(6).PadCycles, Ledger.totalPadCycles());

  // The calibrated sleep's duration charges to the sleep's line.
  ASSERT_TRUE(Ledger.lines().count(9));
  EXPECT_EQ(Ledger.lines().at(9).SleepCycles, 5u);
  EXPECT_EQ(Ledger.totalSleepCycles(), 5u);

  // Nothing ended up at the unknown line: the cursor never lapsed.
  EXPECT_FALSE(Ledger.lines().count(0));
}

// The fold's access rule: a fetch at the command's line except for sleep,
// each load at its own line, and the store at the command's line.
TEST(Profiler, AccessesLandOnTheirOwnLines) {
  Program P = inferred("var h : L = 1;\n"
                       "var l : L;\n"
                       "l := 1 +\n"
                       "  h;\n"
                       "sleep(h)");
  auto Env = createMachineEnv(HwKind::Partitioned, P.lattice(),
                              MachineEnvConfig());
  CostLedger Ledger;
  InterpreterOptions Opts;
  Opts.Provenance = &Ledger;
  runFull(P, *Env, Opts);
  const std::map<uint32_t, LineCost> &L = Ledger.lines();
  ASSERT_TRUE(L.count(3) && L.count(4) && L.count(5));
  EXPECT_EQ(L.at(3).Fetches, 1u);
  EXPECT_EQ(L.at(3).DataAccesses, 1u); // The store to l.
  EXPECT_EQ(L.at(4).Fetches, 0u);
  EXPECT_EQ(L.at(4).DataAccesses, 1u); // The load of h.
  EXPECT_EQ(L.at(5).Fetches, 0u);      // A sleep is not fetched.
  EXPECT_EQ(L.at(5).DataAccesses, 1u); // Its load of h.
  EXPECT_EQ(L.at(5).SleepCycles, 1u);
}

//===----------------------------------------------------------------------===//
// Determinism: bit-identical ledgers at 1 / 2 / 8 harness threads
//===----------------------------------------------------------------------===//

TEST(Profiler, LedgerIsByteStableAcrossThreadCounts) {
  Program P = inferred(kWorkload);
  const std::string Reference = profileDump(P, HwKind::Partitioned);
  EXPECT_NE(Reference.find("\"lines\""), std::string::npos);

  for (unsigned Threads : {1u, 2u, 8u}) {
    ParallelRunner Runner(Threads);
    std::vector<std::string> Dumps = Runner.map(
        8, [&](size_t) { return profileDump(P, HwKind::Partitioned); });
    for (size_t I = 0; I != Dumps.size(); ++I)
      EXPECT_EQ(Dumps[I], Reference)
          << "run " << I << " at " << Threads << " threads";
  }
}

//===----------------------------------------------------------------------===//
// ProgramBuilder synthetic locations
//===----------------------------------------------------------------------===//

TEST(Profiler, BuilderStampsStablePseudoLocations) {
  ProgramBuilder B(lh());
  B.var("h", high(), 3);
  B.var("l", low());
  CmdPtr A1 = B.assign("l", B.lit(1));
  CmdPtr S = B.sleep(B.lit(2), low(), low());
  CmdPtr M = B.mitigate(B.lit(8), high(),
                        B.assign("h", B.add(B.v("h"), B.lit(1))), low(), low());

  // Creation order becomes the pseudo-line; column 0 marks it synthetic.
  EXPECT_EQ(A1->loc(), SourceLoc(1, 0));
  EXPECT_EQ(S->loc(), SourceLoc(2, 0));
  EXPECT_EQ(M->loc(), SourceLoc(4, 0)); // line 3 is the mitigated assign

  // Seq is transparent to attribution and carries no location of its own.
  CmdPtr Body = B.seq(std::move(A1), std::move(S), std::move(M));
  EXPECT_EQ(Body->loc(), SourceLoc());
  B.body(std::move(Body));
  Program P = B.take();
  inferTimingLabels(P);

  // Profiling a built program attributes to the pseudo-lines, not line 0.
  auto Env = createMachineEnv(HwKind::Partitioned, P.lattice(),
                              MachineEnvConfig());
  CostLedger Ledger;
  InterpreterOptions Opts;
  Opts.Provenance = &Ledger;
  RunResult R = runFull(P, *Env, Opts);
  EXPECT_EQ(Ledger.totalCycles(), R.T.FinalTime);
  EXPECT_FALSE(Ledger.lines().count(0));
  EXPECT_TRUE(Ledger.lines().count(2));
  EXPECT_EQ(Ledger.lines().at(2).SleepCycles, 2u);
}

//===----------------------------------------------------------------------===//
// Metrics export
//===----------------------------------------------------------------------===//

TEST(Profiler, ExportMetricsEmitsTotalsTopLinesAndSites) {
  Program P = inferred(kWorkload);
  auto Env = createMachineEnv(HwKind::Partitioned, P.lattice(),
                              MachineEnvConfig());
  CostLedger Ledger;
  LeakAudit Audit(P.lattice());
  InterpreterOptions Opts;
  Opts.Provenance = &Ledger;
  Opts.OnMitigateWindow = [&](const MitigateRecord &R) { Audit.onWindow(R); };
  RunResult R = runFull(P, *Env, Opts);
  Ledger.applyLeakage(Audit);

  MetricsRegistry Reg;
  Ledger.exportMetrics(Reg, /*TopK=*/2);

  EXPECT_EQ(Reg.counterValue("prof.cycles"), R.T.FinalTime);
  EXPECT_EQ(Reg.counterValue("prof.pad_cycles"), Ledger.totalPadCycles());
  EXPECT_EQ(Reg.counterValue("prof.windows"), 1u);
  EXPECT_EQ(Reg.counterValue("prof.lines"), Ledger.lines().size());
  EXPECT_EQ(Reg.counterValue("prof.sites"), 1u);
  EXPECT_EQ(Reg.gaugeValue("prof.leak_bits"), Ledger.totalLeakBits());

  // Exactly TopK ranked lines and every mitigate site appear.
  size_t LineEntries = 0, SiteEntries = 0;
  for (const MetricsRegistry::Entry &E : Reg.entries()) {
    if (E.Name.rfind("prof.line.", 0) == 0)
      ++LineEntries;
    if (E.Name.rfind("prof.site.", 0) == 0)
      ++SiteEntries;
  }
  EXPECT_EQ(LineEntries, 2u * 4u); // cycles, misses, pad, leak bits per line
  EXPECT_EQ(SiteEntries, 1u * 3u); // windows, pad, leak bits per site
  EXPECT_EQ(Reg.counterValue("prof.site.m0.windows"), 1u);
}

//===----------------------------------------------------------------------===//
// Ledger copies: a copy or a moved-to ledger shares nothing with its source
//===----------------------------------------------------------------------===//

TEST(Profiler, ChargingACopyLeavesTheSource) {
  CostCursor Cur;
  Cur.Loc.Line = 3;
  HwAccess Miss;
  Miss.IsData = true;
  Miss.L1Miss = true;
  CostLedger Source;
  Source.chargeCycles(Cur, CycleKind::Step, 10);
  Source.chargeAccesses(Cur, /*IsData=*/true, 2);
  Source.chargeMiss(Cur, Miss);
  const std::string Before = Source.toJson().dump();
  // Two loads, one of which missed in the L1 only.
  EXPECT_EQ(Source.lines().at(3).hw(CostLedger::L1D).Hits, 1u);
  EXPECT_EQ(Source.lines().at(3).hw(CostLedger::L1D).Misses, 1u);
  EXPECT_EQ(Source.lines().at(3).hw(CostLedger::DTlb).Hits, 2u);

  // Every entry point charges the copy's own line.
  CostLedger Copy = Source;
  Copy.chargeCycles(Cur, CycleKind::Step, 5);
  Copy.chargeAccesses(Cur, /*IsData=*/true, 1);
  Copy.chargeMiss(Cur, Miss);
  EXPECT_EQ(Source.toJson().dump(), Before);
  EXPECT_EQ(Copy.lines().at(3).StepCycles, 15u);
  EXPECT_EQ(Copy.lines().at(3).hw(CostLedger::L1D).Misses, 2u);

  CostLedger Assigned;
  Assigned = Source;
  Assigned.chargeCycles(Cur, CycleKind::Sleep, 7);
  Assigned.chargeAccesses(Cur, /*IsData=*/false, 4);
  EXPECT_EQ(Source.toJson().dump(), Before);
  EXPECT_EQ(Assigned.lines().at(3).SleepCycles, 7u);
  EXPECT_EQ(Assigned.lines().at(3).hw(CostLedger::L1I).Hits, 4u);

  CostLedger Moved = std::move(Copy);
  Moved.chargeCycles(Cur, CycleKind::Step, 1);
  Moved.chargeAccesses(Cur, /*IsData=*/true, 1);
  EXPECT_EQ(Source.toJson().dump(), Before);
  EXPECT_EQ(Moved.lines().at(3).StepCycles, 16u);
  EXPECT_EQ(Moved.lines().at(3).accesses(), 4u);
  EXPECT_EQ(Moved.lines().at(3).hw(CostLedger::L1D).Hits, 2u);
}

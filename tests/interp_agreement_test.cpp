//===- interp_agreement_test.cpp - Big-step vs small-step engines ----------===//
//
// The fast big-step FullInterpreter and the literal small-step
// StepInterpreter implement the same full semantics; these tests check
// cycle-level agreement on hand-written and random programs across all
// three hardware designs, plus the basic timing behaviors of the full
// semantics themselves.
//
//===----------------------------------------------------------------------===//

#include "analysis/PropertyCheckers.h"
#include "analysis/RandomProgram.h"
#include "hw/HardwareModels.h"
#include "obs/Telemetry.h"
#include "sem/FullInterpreter.h"
#include "sem/StepInterpreter.h"
#include "sem/TraceDump.h"
#include "types/LabelInference.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

#include <filesystem>
#include <fstream>
#include <sstream>

using namespace zam;
using namespace zam::test;

namespace {
Program inferred(std::string Source) {
  Program P = parseOrDie(Source);
  inferTimingLabels(P);
  return P;
}

void expectEnginesAgree(const Program &P, HwKind Kind) {
  auto Env1 = createMachineEnv(Kind, P.lattice(), MachineEnvConfig());
  auto Env2 = Env1->clone();

  RunResult Fast = runFull(P, *Env1);

  StepInterpreter Slow(P, *Env2);
  Trace SlowTrace = Slow.runToCompletion();

  EXPECT_EQ(Fast.T.FinalTime, SlowTrace.FinalTime) << hwKindName(Kind);
  EXPECT_EQ(Fast.T.Steps, SlowTrace.Steps);
  EXPECT_TRUE(Fast.FinalMemory == Slow.memory());
  EXPECT_TRUE(Env1->stateEquals(*Env2));
  ASSERT_EQ(Fast.T.Events.size(), SlowTrace.Events.size());
  for (size_t I = 0; I != Fast.T.Events.size(); ++I)
    EXPECT_TRUE(Fast.T.Events[I] == SlowTrace.Events[I]) << "event " << I;
  ASSERT_EQ(Fast.T.Mitigations.size(), SlowTrace.Mitigations.size());
  for (size_t I = 0; I != Fast.T.Mitigations.size(); ++I)
    EXPECT_TRUE(Fast.T.Mitigations[I] == SlowTrace.Mitigations[I])
        << "mitigation " << I;
}
} // namespace

class EngineAgreement : public ::testing::TestWithParam<HwKind> {};

TEST_P(EngineAgreement, StraightLine) {
  expectEnginesAgree(inferred("var x : L;\nvar y : L;\n"
                              "x := 1; y := x + 2; x := y * y"),
                     GetParam());
}

TEST_P(EngineAgreement, BranchesAndLoops) {
  expectEnginesAgree(inferred("var h : H = 3;\nvar l : L;\n"
                              "l := 0;\n"
                              "while l < 5 do { l := l + 1 };\n"
                              "if h then { h := h * 2 } else { skip }"),
                     GetParam());
}

TEST_P(EngineAgreement, SleepAndArrays) {
  expectEnginesAgree(inferred("var a : L[8];\nvar i : L;\n"
                              "i := 0;\n"
                              "while i < 8 do { a[i] := i; i := i + 1 };\n"
                              "sleep(a[3])"),
                     GetParam());
}

TEST_P(EngineAgreement, MitigatedHighLoop) {
  expectEnginesAgree(inferred("var h : H = 5;\nvar l : L;\n"
                              "mitigate (10, H) {\n"
                              "  while h > 0 do { h := h - 1 }\n"
                              "};\n"
                              "l := 1"),
                     GetParam());
}

TEST_P(EngineAgreement, NestedMitigates) {
  expectEnginesAgree(
      inferred("var h : H = 2;\n"
               "mitigate (200, H) {\n"
               "  mitigate (5, H) { sleep(h) @[H,H] };\n"
               "  mitigate (5, H) { sleep(h + h) @[H,H] }\n"
               "}"),
      GetParam());
}

TEST_P(EngineAgreement, RandomPrograms) {
  Rng R(0xA11CE + static_cast<uint64_t>(GetParam()));
  unsigned Found = 0;
  for (unsigned Trial = 0; Trial != 60 && Found < 12; ++Trial) {
    RandomProgramOptions O;
    O.MaxDepth = 3;
    std::optional<Program> P = randomWellTypedProgram(lh(), R, O);
    if (!P)
      continue;
    ++Found;
    expectEnginesAgree(*P, GetParam());
  }
  EXPECT_GE(Found, 6u) << "random generator produced too few programs";
}

TEST_P(EngineAgreement, RandomProgramsThreeLevel) {
  Rng R(0xB0B + static_cast<uint64_t>(GetParam()));
  unsigned Found = 0;
  for (unsigned Trial = 0; Trial != 60 && Found < 8; ++Trial) {
    RandomProgramOptions O;
    O.MaxDepth = 3;
    std::optional<Program> P = randomWellTypedProgram(lmh(), R, O);
    if (!P)
      continue;
    ++Found;
    expectEnginesAgree(*P, GetParam());
  }
  EXPECT_GE(Found, 4u);
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, EngineAgreement,
                         ::testing::ValuesIn(allHwKinds()),
                         [](const auto &Info) {
                           return std::string(hwKindName(Info.param));
                         });

//===----------------------------------------------------------------------===//
// Full-semantics timing behaviors
//===----------------------------------------------------------------------===//

TEST(FullSemantics, SleepLiteralTakesExactTime) {
  // Property 4: (sleep n) consumes exactly max(n, 0).
  for (int64_t N : {0ll, 1ll, 100ll, -7ll}) {
    Program P = inferred("sleep(" + std::to_string(N > 0 ? N : 0) + ")");
    auto Env = createMachineEnv(HwKind::Partitioned, lh(), MachineEnvConfig());
    RunResult R = runFull(P, *Env);
    EXPECT_EQ(R.T.FinalTime, static_cast<uint64_t>(N > 0 ? N : 0));
  }
}

TEST(FullSemantics, PaperBranchExampleLeaksThroughTime) {
  // Sec. 2.1: if (h) sleep(1) else sleep(10) — one bit of h leaks.
  auto TimeFor = [&](int64_t H) {
    Program P = inferred("var h : H = " + std::to_string(H) + ";\n"
                         "if h then { sleep(1) } else { sleep(10) }");
    auto Env = createMachineEnv(HwKind::Partitioned, lh(), MachineEnvConfig());
    return runFull(P, *Env).T.FinalTime;
  };
  EXPECT_NE(TimeFor(0), TimeFor(1));
}

TEST(FullSemantics, InstructionFetchWarmsUp) {
  // The second iteration of a loop re-fetches the same code addresses and
  // hits the I-cache: per-iteration time drops after iteration one.
  Program P = inferred("var i : L;\nvar a : L[1];\n"
                       "i := 0;\n"
                       "while i < 2 do { a[0] := i; i := i + 1 }");
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), MachineEnvConfig());
  RunResult R = runFull(P, *Env);
  ASSERT_EQ(R.T.Events.size(), 5u); // i:=0, then (a[0], i) twice.
  uint64_t Iter1 = R.T.Events[2].Time - R.T.Events[0].Time;
  uint64_t Iter2 = R.T.Events[4].Time - R.T.Events[2].Time;
  EXPECT_LT(Iter2, Iter1);
}

TEST(FullSemantics, StepLimitTruncatesDivergence) {
  Program P = inferred("var x : L;\nwhile 1 do { x := x + 1 }");
  auto Env = createMachineEnv(HwKind::NoPartition, lh(), MachineEnvConfig());
  InterpreterOptions Opts;
  Opts.StepLimit = 500;
  RunResult R = runFull(P, *Env, Opts);
  EXPECT_TRUE(R.T.HitStepLimit);
  EXPECT_LE(R.T.Steps, 501u);
}

TEST(FullSemantics, MitigateRecordsCarryPcAndLevel) {
  Program P = inferred("var h : H = 1;\n"
                       "mitigate (100, H) {\n"
                       "  if h then { mitigate (5, H) { h := h + 1 } }\n"
                       "  else { skip }\n"
                       "}");
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), MachineEnvConfig());
  RunResult R = runFull(P, *Env);
  ASSERT_EQ(R.T.Mitigations.size(), 2u);
  // Completion order: the inner mitigate (η=1, high pc) finishes first.
  EXPECT_EQ(R.T.Mitigations[0].Eta, 1u);
  EXPECT_EQ(R.T.Mitigations[0].PcLabel, high());
  EXPECT_EQ(R.T.Mitigations[1].Eta, 0u);
  EXPECT_EQ(R.T.Mitigations[1].PcLabel, low());
  EXPECT_EQ(R.T.Mitigations[1].Level, high());
  // Nesting: the outer duration spans the inner one.
  EXPECT_GE(R.T.Mitigations[1].Duration, R.T.Mitigations[0].Duration);
}

TEST(FullSemantics, SharedMitigationStatePersists) {
  Program P = inferred("var h : H = 40;\n"
                       "mitigate (1, H) { sleep(h) @[H,H] }");
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), MachineEnvConfig());
  InterpreterOptions Opts;
  MitigationState Shared(lh(), fastDoublingPolicy(), PenaltyPolicy::PerLevel);
  Opts.SharedMitState = &Shared;

  RunResult First = runFull(P, *Env, Opts);
  EXPECT_TRUE(First.T.Mitigations[0].Mispredicted);
  unsigned MissesAfterFirst = Shared.misses(high());
  EXPECT_GT(MissesAfterFirst, 0u);

  // Second run starts from the penalized schedule: no new misprediction.
  RunResult Second = runFull(P, *Env, Opts);
  EXPECT_FALSE(Second.T.Mitigations[0].Mispredicted);
  EXPECT_EQ(Shared.misses(high()), MissesAfterFirst);
}

//===----------------------------------------------------------------------===//
// Event retention (InterpreterOptions::RetainEvents)
//===----------------------------------------------------------------------===//

TEST(EventRetention, NonRetainingRunKeepsNoEventsUpToTheStepLimit) {
  Program P = inferred("var x : L;\nwhile 1 do { x := x + 1 }");
  auto Env = createMachineEnv(HwKind::NoPartition, lh(), MachineEnvConfig());
  InterpreterOptions Opts;
  Opts.StepLimit = 5'000'000;
  Opts.RetainEvents = false;
  RunResult R = runFull(P, *Env, Opts);
  EXPECT_TRUE(R.T.HitStepLimit);
  EXPECT_FALSE(R.T.HitEventLimit);
  EXPECT_FALSE(R.T.EventsRetained);
  EXPECT_EQ(R.T.Events.capacity(), 0u);
  EXPECT_EQ(R.T.Steps, 5'000'001u);
  // Guard, then assignment: one assignment per two steps.
  EXPECT_EQ(R.T.Ops.Assignments, 2'500'000u);
  EXPECT_EQ(R.FinalMemory.load("x"), 2'500'000);
}

class EventRetentionAgreement : public ::testing::TestWithParam<HwKind> {};

// Retention is an output, never an input: every example runs to the same
// clock, steps, windows, Miss table, memory and hardware state with and
// without it.
TEST_P(EventRetentionAgreement, ExamplesAgreeWithAndWithoutEvents) {
  unsigned Examples = 0;
  for (const auto &Entry :
       std::filesystem::directory_iterator(ZAM_EXAMPLES_DIR)) {
    if (Entry.path().extension() != ".zam")
      continue;
    SCOPED_TRACE(Entry.path().filename().string());
    ++Examples;
    std::ifstream In(Entry.path());
    std::stringstream Source;
    Source << In.rdbuf();
    Program P = inferred(Source.str());
    auto Env1 = createMachineEnv(GetParam(), P.lattice(), MachineEnvConfig());
    auto Env2 = Env1->clone();
    RunResult Kept = runFull(P, *Env1);
    InterpreterOptions Opts;
    Opts.RetainEvents = false;
    RunResult Dropped = runFull(P, *Env2, Opts);

    ASSERT_FALSE(Kept.T.hitLimit());
    EXPECT_EQ(Kept.T.Events.size(), Kept.T.Ops.Assignments);
    EXPECT_TRUE(Dropped.T.Events.empty());
    EXPECT_EQ(Dropped.T.FinalTime, Kept.T.FinalTime);
    EXPECT_EQ(Dropped.T.Steps, Kept.T.Steps);
    EXPECT_EQ(Dropped.T.Ops, Kept.T.Ops);
    EXPECT_EQ(Dropped.T.Mitigations, Kept.T.Mitigations);
    EXPECT_EQ(Dropped.T.FinalMissTable, Kept.T.FinalMissTable);
    EXPECT_FALSE(Dropped.T.hitLimit());
    EXPECT_TRUE(Dropped.FinalMemory == Kept.FinalMemory);
    EXPECT_TRUE(Dropped.Hw == Kept.Hw);
    EXPECT_TRUE(Env1->stateEquals(*Env2));
  }
  EXPECT_GE(Examples, 6u);
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, EventRetentionAgreement,
                         ::testing::ValuesIn(allHwKinds()),
                         [](const auto &Info) {
                           return std::string(hwKindName(Info.param));
                         });

// An empty event vector from a run that kept none must never pass for "no
// assignments": Definition 1 would count one observation for every secret.
TEST(EventRetentionDeathTest, ReadingEventsOfANonRetainingRunIsDiagnosed) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Program P = inferred("var l : L;\nl := 1");
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), MachineEnvConfig());
  InterpreterOptions Opts;
  Opts.RetainEvents = false;
  const Trace T = runFull(P, *Env, Opts).T;
  const char *Why = "did not retain its assignment events";
  EXPECT_DEATH(T.observationKey(low(), lh()), Why);
  EXPECT_DEATH(dumpEvents(T, lh()), Why);
  EXPECT_DEATH(
      {
        JsonlTraceSink Sink;
        exportTrace(Sink, T, lh());
      },
      Why);
  EXPECT_DEATH(checkAdequacy(P, *Env, Opts), Why);
  EXPECT_DEATH(checkDeterminism(P, *Env, Opts), Why);

  // Without events, the export has nothing of them to read.
  JsonlTraceSink Sink;
  TraceExportOptions EOpts;
  EOpts.IncludeEvents = false;
  exportTrace(Sink, T, lh(), EOpts);
  EXPECT_EQ(Sink.finish().find("assign"), std::string::npos);
}

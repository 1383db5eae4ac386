//===- step_interp_test.cpp - The resumable small-step machine --------------===//
//
// White-box tests of the engine's transition structure: these check that
// step() over the lowered IR visits exactly the transitions the paper's
// rules prescribe (Fig. 2 plus the predictive rules of Fig. 6), one source
// command per step.
//
//===----------------------------------------------------------------------===//

#include "sem/CompiledProgram.h"
#include "sem/FullInterpreter.h"

#include "hw/HardwareModels.h"
#include "lang/ProgramBuilder.h"
#include "support/Casting.h"
#include "types/LabelInference.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

using namespace zam;
using namespace zam::test;

namespace {
Program inferred(const std::string &Source) {
  Program P = parseOrDie(Source);
  inferTimingLabels(P);
  return P;
}
} // namespace

TEST(StepInterpreter, SkipStepsToStop) {
  Program P = inferred("skip");
  auto Env = createMachineEnv(HwKind::Partitioned, lh());
  FullInterpreter S(P, *Env);
  EXPECT_FALSE(S.done());
  S.step();
  EXPECT_TRUE(S.done());
  EXPECT_GT(S.clock(), 0u); // skip consumes real time (fetch + issue).
}

TEST(StepInterpreter, SeqStepsFirstComponent) {
  Program P = inferred("var x : L;\nx := 1; x := 2");
  auto Env = createMachineEnv(HwKind::Partitioned, lh());
  FullInterpreter S(P, *Env);
  S.step();
  // After c1 stops, the configuration's command is exactly c2.
  ASSERT_FALSE(S.done());
  const auto *A = dyn_cast<AssignCmd>(S.current());
  ASSERT_NE(A, nullptr);
  EXPECT_EQ(S.memory().load("x"), 1);
  S.step();
  EXPECT_TRUE(S.done());
  EXPECT_EQ(S.memory().load("x"), 2);
}

TEST(StepInterpreter, IfStepsToTakenBranch) {
  Program P = inferred("var x : L = 1;\nvar y : L;\n"
                       "if x then { y := 10 } else { y := 20 }");
  auto Env = createMachineEnv(HwKind::Partitioned, lh());
  FullInterpreter S(P, *Env);
  S.step(); // Evaluate the guard.
  ASSERT_FALSE(S.done());
  const auto *A = dyn_cast<AssignCmd>(S.current());
  ASSERT_NE(A, nullptr);
  EXPECT_EQ(A->var(), "y");
  S.step();
  EXPECT_EQ(S.memory().load("y"), 10);
}

TEST(StepInterpreter, WhileGuardStepsIntoBodyAndBack) {
  // while e do c steps into c when the guard holds, then returns to the
  // guard for the next iteration (the c ; while e do c unrolling).
  Program P = inferred("var i : L = 2;\nwhile i > 0 do { i := i - 1 }");
  auto Env = createMachineEnv(HwKind::Partitioned, lh());
  FullInterpreter S(P, *Env);
  const auto *W = dyn_cast<WhileCmd>(S.current());
  ASSERT_NE(W, nullptr);
  S.step(); // Guard evaluation (true).
  ASSERT_FALSE(S.done());
  const auto *A = dyn_cast<AssignCmd>(S.current());
  ASSERT_NE(A, nullptr);
  EXPECT_EQ(A->var(), "i");
  S.step(); // Body assignment; the loop node is up again.
  EXPECT_EQ(S.current(), static_cast<const Cmd *>(W));
  // Run to completion: 2 iterations.
  while (!S.done())
    S.step();
  EXPECT_EQ(S.memory().load("i"), 0);
}

TEST(StepInterpreter, WhileFalseGuardStops) {
  Program P = inferred("var i : L = 0;\nwhile i > 0 do { i := i - 1 }");
  auto Env = createMachineEnv(HwKind::Partitioned, lh());
  FullInterpreter S(P, *Env);
  S.step();
  EXPECT_TRUE(S.done());
}

TEST(StepInterpreter, MitigateEntersBodyThenSettles) {
  // (S-MTGPRED): mitigate (e,ℓ) c steps into c, then a dedicated settle
  // transition (the paper's MitigateEnd continuation) pads the window.
  // Body = sleep(3) plus the cold read of h (~137 cycles): 400 covers it.
  Program P = inferred("var h : H = 3;\nmitigate (400, H) { sleep(h) @[H,H] }");
  auto Env = createMachineEnv(HwKind::Partitioned, lh());
  FullInterpreter S(P, *Env);
  const auto *Mit = dyn_cast<MitigateCmd>(S.current());
  ASSERT_NE(Mit, nullptr);
  S.step(); // The mitigate entry step.
  ASSERT_FALSE(S.done());
  const uint64_t Start = S.clock(); // s_η = entry completion time.
  EXPECT_TRUE(isa<SleepCmd>(*S.current()));

  S.step(); // sleep(h).
  ASSERT_FALSE(S.done());
  // The settle transition reports the mitigate command as its origin.
  EXPECT_EQ(S.current(), static_cast<const Cmd *>(Mit));
  S.step(); // Settle: pad to the schedule's prediction.
  EXPECT_TRUE(S.done());
  ASSERT_EQ(S.trace().Mitigations.size(), 1u);
  EXPECT_EQ(S.trace().Mitigations[0].Estimate, 400);
  EXPECT_EQ(S.trace().Mitigations[0].Level, high());
  EXPECT_EQ(S.trace().Mitigations[0].Start, Start);
  EXPECT_EQ(S.trace().Mitigations[0].Duration, 400u);
  EXPECT_EQ(S.clock(), Start + 400);
}

TEST(StepInterpreter, MitigateSettleIsOneStep) {
  // The Fig. 6 settle transition consumes a step of its own, exactly like
  // the paper's explicit MitigateEnd command.
  Program P = inferred("mitigate (10, H) { skip }");
  auto Env = createMachineEnv(HwKind::Partitioned, lh());
  FullInterpreter S(P, *Env);
  const Trace &T = S.complete();
  EXPECT_EQ(T.Steps, 3u); // Enter, body, settle.
}

TEST(StepInterpreter, SingleCommandConstructor) {
  Program Decls = parseOrDie("var a : L = 5;\nvar b : L;\nskip");
  inferTimingLabels(Decls);
  ProgramBuilder B(lh());
  CmdPtr C = B.assign("b", B.mul(B.v("a"), B.v("a")), low(), low());
  auto Env = createMachineEnv(HwKind::Partitioned, lh());
  Memory M = Memory::fromProgram(Decls, CostModel().DataBase);
  const CompiledProgram Form(Decls, std::move(C), InterpreterOptions());
  FullInterpreter S(Form, *Env);
  S.memory().restoreValues(M);
  S.complete();
  EXPECT_EQ(S.memory().load("b"), 25);
}

TEST(StepInterpreter, StepCountMatchesPrimitiveTransitions) {
  Program P = inferred("var x : L;\nx := 1; x := 2; skip");
  auto Env = createMachineEnv(HwKind::Partitioned, lh());
  FullInterpreter S(P, *Env);
  const Trace &T = S.complete();
  EXPECT_EQ(T.Steps, 3u); // Seq nodes do not consume steps.
}

TEST(StepInterpreter, StepLimitStopsDivergence) {
  Program P = inferred("var x : L;\nwhile 1 do { x := x + 1 }");
  auto Env = createMachineEnv(HwKind::Partitioned, lh());
  InterpreterOptions Opts;
  Opts.StepLimit = 100;
  FullInterpreter S(P, *Env, Opts);
  const Trace &T = S.complete();
  EXPECT_TRUE(T.HitStepLimit);
  EXPECT_TRUE(S.done());
}

TEST(StepInterpreter, EventsTimedAtStepCompletion) {
  Program P = inferred("var x : L;\nx := 7");
  auto Env = createMachineEnv(HwKind::Partitioned, lh());
  FullInterpreter S(P, *Env);
  S.step();
  ASSERT_EQ(S.trace().Events.size(), 1u);
  EXPECT_EQ(S.trace().Events[0].Time, S.clock());
}

TEST(StepInterpreter, SharedMitigationState) {
  Program P = inferred("var h : H = 500;\nmitigate (1, H) { sleep(h) @[H,H] }");
  auto Env = createMachineEnv(HwKind::Partitioned, lh());
  MitigationState Shared(lh(), fastDoublingPolicy(), PenaltyPolicy::PerLevel);
  InterpreterOptions Opts;
  Opts.SharedMitState = &Shared;
  FullInterpreter S1(P, *Env, Opts);
  S1.complete();
  EXPECT_GT(Shared.misses(high()), 0u);
  unsigned After = Shared.misses(high());
  FullInterpreter S2(P, *Env, Opts);
  S2.complete();
  EXPECT_EQ(Shared.misses(high()), After); // Schedule already covers it.
}

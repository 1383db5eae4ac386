//===- core_interp_test.cpp - The timing-free core semantics ---------------===//

#include "sem/CoreInterpreter.h"

#include "sem/FullInterpreter.h"
#include "types/LabelInference.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

using namespace zam;
using namespace zam::test;

TEST(CoreInterpreter, StraightLine) {
  Program P = parseOrDie("var x : L;\nvar y : L;\n"
                         "x := 2; y := x * 3; x := y - 1");
  CoreResult R = runCore(P);
  EXPECT_EQ(R.FinalMemory.load("x"), 5);
  EXPECT_EQ(R.FinalMemory.load("y"), 6);
  EXPECT_FALSE(R.HitStepLimit);
  ASSERT_EQ(R.Events.size(), 3u);
  EXPECT_EQ(R.Events[0].Slot, R.FinalMemory.slotIndexOf("x"));
  EXPECT_EQ(R.Events[0].Value, 2);
  EXPECT_EQ(R.Events[2].Value, 5);
}

TEST(CoreInterpreter, Branching) {
  Program P = parseOrDie("var h : H = 1;\nvar x : L;\n"
                         "if h then { x := 10 } else { x := 20 }");
  EXPECT_EQ(runCore(P).FinalMemory.load("x"), 10);

  Program Q = parseOrDie("var h : H = 0;\nvar x : L;\n"
                         "if h then { x := 10 } else { x := 20 }");
  EXPECT_EQ(runCore(Q).FinalMemory.load("x"), 20);
}

TEST(CoreInterpreter, WhileLoop) {
  Program P = parseOrDie("var i : L;\nvar acc : L;\n"
                         "i := 5;\n"
                         "while i > 0 do { acc := acc + i; i := i - 1 }");
  CoreResult R = runCore(P);
  EXPECT_EQ(R.FinalMemory.load("acc"), 15);
  EXPECT_EQ(R.FinalMemory.load("i"), 0);
}

TEST(CoreInterpreter, SleepBehavesLikeSkip) {
  // Fig. 2: since time is not part of the core semantics, sleep is skip.
  Program P = parseOrDie("var x : L;\nsleep(1000000); x := 1");
  CoreResult R = runCore(P);
  EXPECT_EQ(R.FinalMemory.load("x"), 1);
  EXPECT_EQ(R.Events.size(), 1u);
}

TEST(CoreInterpreter, MitigateIsIdentity) {
  // Fig. 2: mitigate (e,ℓ) c simply evaluates to c.
  Program P = parseOrDie("var h : H;\nvar x : L;\n"
                         "mitigate (64, H) { h := 42 };\n"
                         "x := 1");
  CoreResult R = runCore(P);
  EXPECT_EQ(R.FinalMemory.load("h"), 42);
  EXPECT_EQ(R.FinalMemory.load("x"), 1);
}

TEST(CoreInterpreter, ArraysAndWrapping) {
  Program P = parseOrDie("var a : L[4];\nvar i : L;\n"
                         "i := 0;\n"
                         "while i < 8 do { a[i] := i; i := i + 1 }");
  CoreResult R = runCore(P);
  // Indices 4..7 wrap onto 0..3, overwriting.
  EXPECT_EQ(R.FinalMemory.loadElem("a", 0), 4);
  EXPECT_EQ(R.FinalMemory.loadElem("a", 3), 7);
}

TEST(CoreInterpreter, DivergingLoopHitsStepLimit) {
  Program P = parseOrDie("var x : L;\nwhile 1 do { x := x + 1 }");
  CoreResult R = runCore(P, nullptr, /*StepLimit=*/1000);
  EXPECT_TRUE(R.HitStepLimit);
}

TEST(CoreInterpreter, InitialMemoryOverride) {
  Program P = parseOrDie("var x : L = 1;\nvar y : L;\ny := x + 1");
  Memory M = Memory::fromProgram(P);
  M.store("x", 100);
  CoreResult R = runCore(P, &M);
  EXPECT_EQ(R.FinalMemory.load("y"), 101);
}

TEST(CoreInterpreter, EventsCarryLabels) {
  Program P = parseOrDie("var h : H;\nvar l : L;\nh := 1; l := 2");
  CoreResult R = runCore(P);
  ASSERT_EQ(R.Events.size(), 2u);
  EXPECT_EQ(R.Events[0].VarLabel, high());
  EXPECT_EQ(R.Events[1].VarLabel, low());
}

TEST(CoreInterpreter, ArrayStoreEventsCarryWrappedIndex) {
  Program P = parseOrDie("var a : L[4];\na[6] := 9");
  CoreResult R = runCore(P);
  ASSERT_EQ(R.Events.size(), 1u);
  EXPECT_TRUE(R.Events[0].IsArrayStore);
  EXPECT_EQ(R.Events[0].ElemIndex, 2u);
  EXPECT_EQ(R.Events[0].Value, 9);
}

// Events carry the declaration-order slot, not a name: the core and the
// full engine must record the same slot for every event, and the slot must
// name the assigned variable.
TEST(CoreInterpreter, SlotsAgreeWithTheFullEngine) {
  Program P = parseOrDie("var i : L;\nvar a : L[3];\nvar h : H;\n"
                         "var b : H[2];\n"
                         "while i < 5 do { a[i] := i; b[i] := h; h := h + i;"
                         " i := i + 1 }");
  inferTimingLabels(P);
  CoreResult Core = runCore(P);
  auto Env = createMachineEnv(HwKind::Partitioned, lh());
  RunResult Full = runFull(P, *Env);
  ASSERT_EQ(Core.Events.size(), Full.T.Events.size());
  ASSERT_EQ(Core.Events.size(), 20u);
  const std::vector<std::string> Expected = {"a", "b", "h", "i"};
  for (size_t I = 0; I != Core.Events.size(); ++I) {
    const AssignEvent &C = Core.Events[I], &F = Full.T.Events[I];
    EXPECT_EQ(C.Slot, F.Slot) << "event " << I;
    EXPECT_EQ(C.IsArrayStore, F.IsArrayStore) << "event " << I;
    EXPECT_EQ(Full.T.varName(F), Expected[I % 4]) << "event " << I;
    EXPECT_EQ(F.Slot, Full.FinalMemory.slotIndexOf(Expected[I % 4]));
  }
}

//===- tracedump_test.cpp - Trace rendering --------------------------------===//

#include "sem/TraceDump.h"

#include "hw/HardwareModels.h"
#include "obs/Telemetry.h"
#include "sem/FullInterpreter.h"
#include "types/LabelInference.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

using namespace zam;
using namespace zam::test;

namespace {
/// Returns only the trace: the program, its compiled image and the
/// interpreter are gone by the time a test reads it.
Trace runTrace(const std::string &Source) {
  Program P = parseOrDie(Source);
  inferTimingLabels(P);
  auto Env = createMachineEnv(HwKind::Partitioned, lh());
  return runFull(P, *Env).T;
}
} // namespace

TEST(TraceDump, EventsIncludeLabelsAndTimes) {
  Trace T = runTrace("var l : L;\nvar h : H;\nl := 3; h := 9");
  std::string S = dumpEvents(T, lh());
  EXPECT_NE(S.find("l := 3   [L]"), std::string::npos);
  EXPECT_NE(S.find("h := 9   [H]"), std::string::npos);
  EXPECT_NE(S.find("t="), std::string::npos);
}

TEST(TraceDump, AdversaryProjectionHidesHighEvents) {
  Trace T = runTrace("var l : L;\nvar h : H;\nl := 3; h := 9");
  std::string S = dumpEvents(T, lh(), low());
  EXPECT_NE(S.find("l := 3"), std::string::npos);
  EXPECT_EQ(S.find("h := 9"), std::string::npos);
}

TEST(TraceDump, ArrayStoresShowTheIndex) {
  Trace T = runTrace("var a : L[4];\na[2] := 5");
  std::string S = dumpEvents(T, lh());
  EXPECT_NE(S.find("a[2] := 5"), std::string::npos);
}

TEST(TraceDump, MitigationsRenderScheduleInfo) {
  Trace T = runTrace("var h : H = 900;\nmitigate (10, H) { sleep(h) @[H,H] }");
  std::string S = dumpMitigations(T, lh());
  EXPECT_NE(S.find("mitigate #0 [pc L, lev H]"), std::string::npos);
  EXPECT_NE(S.find("(mispredicted)"), std::string::npos);
}

TEST(TraceDump, FullDumpEndsWithSummary) {
  Trace T = runTrace("var l : L;\nl := 1");
  std::string S = dumpTrace(T, lh());
  EXPECT_NE(S.find("terminated at G ="), std::string::npos);
  EXPECT_NE(S.find("after 1 steps"), std::string::npos);
}

TEST(TraceDump, StepLimitNoted) {
  Program P = parseOrDie("var x : L;\nwhile 1 do { x := x + 1 }");
  inferTimingLabels(P);
  auto Env = createMachineEnv(HwKind::Partitioned, lh());
  InterpreterOptions Opts;
  Opts.StepLimit = 50;
  Trace T = runFull(P, *Env, Opts).T;
  EXPECT_NE(dumpTrace(T, lh()).find("step limit hit"), std::string::npos);
}

// Events name their variable through the trace's shared name table, which
// must outlive the program and the interpreter that produced the trace.
TEST(TraceDump, TraceOutlivesItsProgramAndNamesEveryVariable) {
  Trace T = runTrace("var x : L;\nvar a : L[4];\nvar h : H;\nvar b : H[2];\n"
                     "x := 1; a[3] := 2; h := 3; b[1] := 4");
  ASSERT_EQ(T.Events.size(), 4u);
  std::string S = dumpTrace(T, lh());
  EXPECT_NE(S.find("x := 1   [L]"), std::string::npos) << S;
  EXPECT_NE(S.find("a[3] := 2   [L]"), std::string::npos) << S;
  EXPECT_NE(S.find("h := 3   [H]"), std::string::npos) << S;
  EXPECT_NE(S.find("b[1] := 4   [H]"), std::string::npos) << S;

  JsonlTraceSink Sink;
  EXPECT_EQ(exportTrace(Sink, T, lh()), 4u);
  std::string Out = Sink.finish();
  for (const char *Name :
       {"\"assign x\"", "\"assign a[3]\"", "\"assign h\"", "\"assign b[1]\""})
    EXPECT_NE(Out.find(Name), std::string::npos) << Name << "\n" << Out;
}

// Long identifiers are written whole: dumpEvents has no line buffer for a
// name to overflow.
TEST(TraceDump, LongNamesAreNotTruncated) {
  const std::string Name(200, 'v');
  Trace T = runTrace("var " + Name + " : L;\n" + Name + " := 12345");
  EXPECT_NE(dumpEvents(T, lh()).find(Name + " := 12345   [L]"),
            std::string::npos);
}

// A trace with events but no name table is a construction bug; sanitizer
// builds diagnose it instead of dereferencing null. Plain builds skip —
// the check compiles away.
TEST(TraceDumpDeathTest, EventsWithoutNameTableAreDiagnosed) {
#ifdef ZAM_SANITIZE_CHECKS
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Trace T;
  T.Events.emplace_back();
  EXPECT_DEATH(dumpEvents(T, lh()), "no entry in the name table");
  EXPECT_DEATH(T.observationKey(low(), lh()), "no entry in the name table");
#else
  GTEST_SKIP() << "name-table checks compile away outside ZAM_SANITIZE";
#endif
}

//===- exp_test.cpp - The experiment harness (src/exp) ----------------------===//
//
// Covers the deterministic parallel runner (bit-identical results for any
// thread count, including the leakage Q/V enumeration), JSON emission and
// round-tripping, Report statistics, the Scenario/RunSpec layer, the
// runFull Prepare overload, and the cheap-clone contract the runner relies
// on (each worker operates on its own MachineEnv clone).
//
//===----------------------------------------------------------------------===//

#include "analysis/Leakage.h"
#include "exp/Harness.h"
#include "exp/ParallelRunner.h"
#include "exp/Report.h"
#include "exp/Scenario.h"
#include "obs/Json.h"
#include "obs/Telemetry.h"
#include "types/LabelInference.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>

using namespace zam;
using namespace zam::test;

namespace {

Program mitigatedSleep() {
  Program P = parseOrDie("var h : H;\nvar l : L;\n"
                         "mitigate (64, H) { sleep(h) @[H,H] };\n"
                         "l := 1",
                         lh());
  inferTimingLabels(P);
  return P;
}

LeakageSpec sweep(unsigned NumSecrets, int64_t MaxSecret) {
  LeakageSpec Spec;
  Spec.SourceLevels = LabelSet(lh(), {high()});
  Spec.Adversary = low();
  for (unsigned I = 0; I != NumSecrets; ++I)
    Spec.Variations.push_back(SecretAssignment{
        {{"h", static_cast<int64_t>(
                   (static_cast<uint64_t>(MaxSecret) * I) / NumSecrets)}},
        {}});
  return Spec;
}

} // namespace

//===----------------------------------------------------------------------===//
// ParallelRunner
//===----------------------------------------------------------------------===//

TEST(ParallelRunner, MapPreservesSubmissionOrder) {
  ParallelRunner Runner(8);
  std::vector<size_t> Out =
      Runner.map(1000, [](size_t I) { return I * I; });
  ASSERT_EQ(Out.size(), 1000u);
  for (size_t I = 0; I != Out.size(); ++I)
    EXPECT_EQ(Out[I], I * I);
}

TEST(ParallelRunner, EmptyAndSingleton) {
  ParallelRunner Runner(4);
  EXPECT_TRUE(Runner.map(0, [](size_t) { return 1; }).empty());
  std::vector<int> One = Runner.map(1, [](size_t) { return 42; });
  ASSERT_EQ(One.size(), 1u);
  EXPECT_EQ(One[0], 42);
}

TEST(ParallelRunner, ExceptionFromLowestIndexPropagates) {
  ParallelRunner Runner(8);
  EXPECT_THROW(Runner.forEach(100,
                              [](size_t I) {
                                if (I % 10 == 7)
                                  throw std::runtime_error("boom");
                              }),
               std::runtime_error);
}

TEST(ParallelRunner, ThreadCountResolution) {
  EXPECT_EQ(resolveThreadCount(5), 5u);
  ASSERT_EQ(setenv("ZAM_THREADS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(resolveThreadCount(0), 3u);
  EXPECT_EQ(resolveThreadCount(2), 2u); // Explicit request wins.
  ASSERT_EQ(setenv("ZAM_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(resolveThreadCount(0), 1u); // Malformed env falls through.
  unsetenv("ZAM_THREADS");
  EXPECT_GE(resolveThreadCount(0), 1u);
  EXPECT_EQ(ParallelRunner(7).threadCount(), 7u);
}

//===----------------------------------------------------------------------===//
// Determinism of the parallel fan-out (Property 2 under parallelism)
//===----------------------------------------------------------------------===//

TEST(Determinism, LeakageIdenticalAtAnyThreadCount) {
  Program P = mitigatedSleep();
  auto Env = createMachineEnv(HwKind::Partitioned, lh());
  LeakageSpec Spec = sweep(32, 100'000);

  LeakageResult R1 = measureLeakage(P, *Env, Spec, InterpreterOptions(), 1);
  for (unsigned Threads : {2u, 8u}) {
    LeakageResult RN =
        measureLeakage(P, *Env, Spec, InterpreterOptions(), Threads);
    EXPECT_EQ(RN.DistinctObservations, R1.DistinctObservations);
    EXPECT_EQ(RN.QBits, R1.QBits);
    EXPECT_EQ(RN.ShannonBits, R1.ShannonBits);
    EXPECT_EQ(RN.MinEntropyBits, R1.MinEntropyBits);
    EXPECT_EQ(RN.DistinctTimingVectors, R1.DistinctTimingVectors);
    EXPECT_EQ(RN.VBits, R1.VBits);
    EXPECT_EQ(RN.TheoremTwoHolds, R1.TheoremTwoHolds);
    EXPECT_EQ(RN.MitigatesLowDeterministic, R1.MitigatesLowDeterministic);
    EXPECT_EQ(RN.MaxFinalTime, R1.MaxFinalTime);
    EXPECT_EQ(RN.RelevantMitigates, R1.RelevantMitigates);
    EXPECT_EQ(RN.ClosedFormBoundBits, R1.ClosedFormBoundBits);
  }
}

TEST(Determinism, ReportJsonBitIdenticalAtAnyThreadCount) {
  Program P = mitigatedSleep();
  auto Env = createMachineEnv(HwKind::Partitioned, lh());
  const Scenario Scn(P, *Env);

  auto BuildReport = [&](unsigned Threads) {
    ParallelRunner Runner(Threads);
    LeakageResult L =
        measureLeakage(P, *Env, sweep(16, 50'000), InterpreterOptions(),
                       Threads);
    std::vector<RunSpec> Specs(12);
    for (size_t I = 0; I != Specs.size(); ++I)
      Specs[I].Scalars = {{"h", static_cast<int64_t>(100 * I)}};
    std::vector<RunResult> Runs = Scn.runAll(Specs, Runner);
    std::vector<uint64_t> Times;
    for (const RunResult &R : Runs)
      Times.push_back(R.T.FinalTime);

    Report Rep("determinism_probe");
    Rep.addSeries("final_time", Times);
    Rep.setScalar("q_bits", L.QBits);
    Rep.setScalar("v_bits", L.VBits);
    Rep.setVerdict("theorem2", L.TheoremTwoHolds);
    // The telemetry counters of a representative run ride along in the
    // "metrics" object, so the byte-identity check below also proves the
    // counters derive only from deterministic run data. A genuinely
    // varying wall-clock scalar rides along too: the deterministic
    // projection must shed it.
    collectRunMetrics(Rep.metrics(), Runs[0].T, Runs[0].Hw, lh());
    Rep.setWallScalar(
        "elapsed_ms",
        static_cast<double>(
            std::chrono::steady_clock::now().time_since_epoch().count()));
    return Rep.deterministicJson().dump();
  };

  std::string At1 = BuildReport(1);
  EXPECT_NE(At1.find("\"metrics\""), std::string::npos);
  EXPECT_NE(At1.find("interp.steps"), std::string::npos);
  EXPECT_EQ(BuildReport(2), At1);
  EXPECT_EQ(BuildReport(8), At1);
}

TEST(Determinism, RunMetricsIdenticalAcrossCloneAndThreadCount) {
  // Per-run hardware counters come from each worker's own clone, so the
  // same RunSpec must yield the same HwStats no matter how wide the pool
  // is or which worker picked it up.
  Program P = mitigatedSleep();
  auto Env = createMachineEnv(HwKind::Partitioned, lh());
  const Scenario Scn(P, *Env);
  std::vector<RunSpec> Specs(8);
  for (size_t I = 0; I != Specs.size(); ++I)
    Specs[I].Scalars = {{"h", static_cast<int64_t>(977 * I)}};

  ParallelRunner Serial(1);
  std::vector<RunResult> Base = Scn.runAll(Specs, Serial);
  for (unsigned Threads : {2u, 8u}) {
    ParallelRunner Wide(Threads);
    std::vector<RunResult> Runs = Scn.runAll(Specs, Wide);
    ASSERT_EQ(Runs.size(), Base.size());
    for (size_t I = 0; I != Runs.size(); ++I) {
      EXPECT_EQ(Runs[I].Hw, Base[I].Hw) << "spec " << I;
      EXPECT_EQ(Runs[I].T.Ops, Base[I].T.Ops) << "spec " << I;
      EXPECT_EQ(Runs[I].T.FinalMissTable, Base[I].T.FinalMissTable);
    }
  }
}

//===----------------------------------------------------------------------===//
// JSON
//===----------------------------------------------------------------------===//

TEST(Json, RoundTripsSmallSeries) {
  Report R("roundtrip");
  R.addSeries("times", std::vector<uint64_t>{4363, 4363, 1658, 273682});
  R.addSeries("bits", std::vector<double>{0.5, 2.81, 3.0});
  R.setIndex("attempt", {1, 2, 3, 4});
  R.setScalar("estimate", 2361);
  R.setVerdict("coincide", true);
  R.setText("hw", "partitioned");

  JsonValue Doc = R.toJson();
  std::string Text = Doc.dump();
  std::optional<JsonValue> Parsed = JsonValue::parse(Text);
  ASSERT_TRUE(Parsed.has_value());
  EXPECT_EQ(*Parsed, Doc);
  // Emission is canonical: dumping the parsed document is byte-identical.
  EXPECT_EQ(Parsed->dump(), Text);

  // Spot-check structure survives the trip.
  const JsonValue *SeriesArr = Parsed->find("series");
  ASSERT_NE(SeriesArr, nullptr);
  ASSERT_EQ(SeriesArr->size(), 2u);
  const JsonValue *Name = SeriesArr->at(0).find("name");
  ASSERT_NE(Name, nullptr);
  EXPECT_EQ(Name->asString(), "times");
  EXPECT_EQ(SeriesArr->at(0).find("values")->at(3).asNumber(), 273682.0);
}

TEST(Json, WallClockTailStaysOutOfDeterministicProjection) {
  Report R("projection_probe");
  R.addSeries("times", std::vector<uint64_t>{256, 256, 1024});
  R.setScalar("estimate", 64);
  std::string Det = R.deterministicJson().dump();

  R.setWallScalar("elapsed_ms", 12.5);
  JsonValue Phases = JsonValue::object();
  Phases["run_ms"] = JsonValue(11.25);
  R.setPhases(Phases);

  // The projection is unchanged by wall-clock facts...
  EXPECT_EQ(R.deterministicJson().dump(), Det);
  EXPECT_EQ(Det.find("\"wall\""), std::string::npos);
  // ...while the full document carries them in the trailing sections.
  std::string Full = R.toJson().dump();
  EXPECT_NE(Full.find("\"wall\""), std::string::npos);
  EXPECT_NE(Full.find("\"elapsed_ms\": 12.5"), std::string::npos);
  EXPECT_NE(Full.find("\"phases\""), std::string::npos);
  EXPECT_NE(Full.find("\"run_ms\": 11.25"), std::string::npos);
  // The summary labels wall-clock facts so nobody mistakes them for
  // simulated cycles.
  EXPECT_NE(R.renderSummary().find("elapsed_ms"), std::string::npos);
  EXPECT_NE(R.renderSummary().find("(wall)"), std::string::npos);
}

TEST(Json, EscapesAndScalars) {
  JsonValue Doc = JsonValue::object();
  Doc["text"] = JsonValue(std::string("line1\nline2\t\"quoted\" \\slash"));
  Doc["neg"] = JsonValue(int64_t(-17));
  Doc["frac"] = JsonValue(0.125);
  Doc["flag"] = JsonValue(false);
  Doc["nothing"] = JsonValue();
  JsonValue Arr = JsonValue::array();
  Doc["empty_array"] = Arr;

  std::optional<JsonValue> Parsed = JsonValue::parse(Doc.dump());
  ASSERT_TRUE(Parsed.has_value());
  EXPECT_EQ(*Parsed, Doc);
  EXPECT_EQ(Parsed->find("text")->asString(),
            "line1\nline2\t\"quoted\" \\slash");
}

TEST(Json, RejectsMalformed) {
  EXPECT_FALSE(JsonValue::parse("{").has_value());
  EXPECT_FALSE(JsonValue::parse("[1, 2,]").has_value());
  EXPECT_FALSE(JsonValue::parse("{\"a\": }").has_value());
  EXPECT_FALSE(JsonValue::parse("42 trailing").has_value());
  EXPECT_TRUE(JsonValue::parse("42").has_value());
}

//===----------------------------------------------------------------------===//
// Report statistics (the deduplicated average() and friends)
//===----------------------------------------------------------------------===//

TEST(Report, Statistics) {
  EXPECT_EQ(average(std::vector<uint64_t>{}), 0.0);
  EXPECT_EQ(average(std::vector<uint64_t>{2, 4, 6}), 4.0);
  EXPECT_EQ(average(std::vector<double>{1.5, 2.5}), 2.0);

  Report R("stats");
  Series &S = R.addSeries("s", std::vector<uint64_t>{5, 1, 5, 9});
  SeriesStats St = S.stats();
  EXPECT_EQ(St.Count, 4u);
  EXPECT_EQ(St.Distinct, 3u);
  EXPECT_EQ(St.Min, 1.0);
  EXPECT_EQ(St.Max, 9.0);
  EXPECT_EQ(St.Avg, 5.0);
  EXPECT_FALSE(S.allEqual());
  EXPECT_TRUE(R.addSeries("flat", std::vector<uint64_t>{7, 7, 7}).allEqual());

  R.addSeries("copy", std::vector<uint64_t>{5, 1, 5, 9});
  EXPECT_TRUE(R.coincide("s", "copy"));
  EXPECT_FALSE(R.coincide("s", "flat"));
  EXPECT_FALSE(R.coincide("s", "missing"));
  EXPECT_EQ(R.seriesAverage("s"), 5.0);
  EXPECT_EQ(R.seriesAverage("missing"), 0.0);
}

TEST(Report, VerdictsAndTable) {
  Report R("table");
  R.addSeries("a", std::vector<uint64_t>{10, 20, 30});
  R.addSeries("b", std::vector<uint64_t>{1, 2, 3});
  R.setVerdict("ok", true);
  EXPECT_TRUE(R.verdict("ok"));
  EXPECT_FALSE(R.verdict("unset"));

  std::string Table = R.renderTable();
  EXPECT_NE(Table.find("a"), std::string::npos);
  EXPECT_NE(Table.find("20"), std::string::npos);
  // Stride skips rows.
  std::string Strided = R.renderTable(/*Stride=*/2);
  EXPECT_NE(Strided.find("30"), std::string::npos);
  EXPECT_EQ(Strided.find("20"), std::string::npos);

  std::string Summary = R.renderSummary();
  EXPECT_NE(Summary.find("ok"), std::string::npos);
  EXPECT_NE(Summary.find("YES"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Scenario / RunSpec / runFull(Prepare)
//===----------------------------------------------------------------------===//

TEST(Scenario, RunAppliesOverridesAndPrepare) {
  Program P = parseOrDie("var h : H;\nvar l : L;\nsleep(h); l := 1", lh());
  inferTimingLabels(P);
  Scenario Scn(P, HwKind::Partitioned);

  RunSpec Fast;
  Fast.Scalars = {{"h", 1}};
  RunSpec Slow;
  Slow.Prepare = [](Memory &M) { M.store("h", 5000); };

  RunResult RFast = Scn.run(Fast);
  RunResult RSlow = Scn.run(Slow);
  EXPECT_LT(RFast.T.FinalTime + 4000, RSlow.T.FinalTime);

  // Scenario runs never mutate the template: re-running is reproducible.
  EXPECT_EQ(Scn.run(Fast).T.FinalTime, RFast.T.FinalTime);
}

TEST(Scenario, RunFullPrepareOverloadMatchesManualPoke) {
  Program P = parseOrDie("var h : H;\nvar l : L;\nsleep(h); l := 1", lh());
  inferTimingLabels(P);

  auto E1 = createMachineEnv(HwKind::Partitioned, lh());
  RunResult RHook =
      runFull(P, *E1, [](Memory &M) { M.store("h", 123); });

  auto E2 = createMachineEnv(HwKind::Partitioned, lh());
  FullInterpreter Interp(P, *E2);
  Interp.memory().store("h", 123);
  RunResult RManual = Interp.run();

  EXPECT_EQ(RHook.T.FinalTime, RManual.T.FinalTime);
  EXPECT_EQ(RHook.T.Events.size(), RManual.T.Events.size());
}

//===----------------------------------------------------------------------===//
// The cheap-clone contract the runner relies on
//===----------------------------------------------------------------------===//

TEST(CloneAudit, ClonesAreDeepAndIndependent) {
  Rng R(42);
  for (HwKind Kind :
       {HwKind::NoPartition, HwKind::NoFill, HwKind::Partitioned}) {
    auto Env = createMachineEnv(Kind, lh());
    Env->randomize(R);
    auto Clone = Env->clone();
    EXPECT_TRUE(Clone->stateEquals(*Env)) << hwKindName(Kind);

    // Driving the clone must not leak back into the template (workers
    // mutate clones concurrently while the template stays frozen).
    for (Addr A = 0; A != 4096; A += 64)
      Clone->dataAccess(A, /*IsStore=*/false, low(), low());
    auto Fresh = Env->clone();
    EXPECT_TRUE(Fresh->stateEquals(*Env)) << hwKindName(Kind);
  }
}

TEST(CloneAudit, RestoredEnvsShareNothingWithTheTemplate) {
  Rng R(43);
  for (HwKind Kind :
       {HwKind::NoPartition, HwKind::NoFill, HwKind::Partitioned}) {
    auto Template = createMachineEnv(Kind, lh());
    Template->randomize(R);
    const auto Before = Template->clone();
    // A slot restored in place, as streamObservations reuses it: driving
    // it after each restore must leave the template as it was.
    std::unique_ptr<MachineEnv> Slot = createMachineEnv(Kind, lh());
    const MachineEnv *Storage = Slot.get();
    for (int Round = 0; Round != 3; ++Round) {
      Template->copyInto(Slot);
      ASSERT_EQ(Slot.get(), Storage) << hwKindName(Kind);
      EXPECT_TRUE(Slot->stateEquals(*Template)) << hwKindName(Kind);
      for (Addr A = 0; A != 4096; A += 64)
        Slot->dataAccess(A + 4096 * Round, /*IsStore=*/true, low(), low());
      Slot->resetStats();
      EXPECT_TRUE(Template->stateEquals(*Before)) << hwKindName(Kind);
      EXPECT_EQ(Template->stats(), Before->stats()) << hwKindName(Kind);
    }
  }
}

TEST(Harness, ParsesThreadsAndJson) {
  const char *Argv1[] = {"bench", "--threads", "4", "--json", "out.json"};
  HarnessOptions O1 =
      parseHarnessArgs(5, const_cast<char **>(Argv1));
  EXPECT_TRUE(O1.Ok);
  EXPECT_EQ(O1.Threads, 4u);
  EXPECT_EQ(O1.JsonPath, "out.json");

  const char *Argv2[] = {"bench", "--bogus"};
  EXPECT_FALSE(parseHarnessArgs(2, const_cast<char **>(Argv2)).Ok);

  const char *Argv3[] = {"bench", "--threads", "many"};
  EXPECT_FALSE(parseHarnessArgs(3, const_cast<char **>(Argv3)).Ok);
}

// The meter rate-limits non-final repaints to ~10/s, so tests sleep past
// the 100ms window before ticking to guarantee a paint reaches stderr.
static void sleepPastRepaintWindow() {
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
}

TEST(ProgressMeter, CompletionEndsWithSingleNewline) {
  testing::internal::CaptureStderr();
  {
    ProgressMeter Meter("work", 3, /*Enabled=*/true);
    Meter.update(3);
    Meter.finish(); // Idempotent: the completion paint already closed it.
  }
  std::string Err = testing::internal::GetCapturedStderr();
  ASSERT_FALSE(Err.empty());
  EXPECT_NE(Err.find("work: 3/3 (100%)\n"), std::string::npos);
  EXPECT_EQ(Err.find('\n'), Err.size() - 1) << Err;
}

TEST(ProgressMeter, ZeroTotalIsIndeterminateAndClosesOnce) {
  testing::internal::CaptureStderr();
  {
    ProgressMeter Meter("scan", 0, /*Enabled=*/true);
    sleepPastRepaintWindow();
    Meter.tick();
    sleepPastRepaintWindow();
    Meter.tick();
  }
  std::string Err = testing::internal::GetCapturedStderr();
  // No bogus percentage, no per-paint newlines: the destructor emits the
  // single line terminator.
  EXPECT_EQ(Err.find('%'), std::string::npos) << Err;
  EXPECT_NE(Err.find("scan: 2/?"), std::string::npos) << Err;
  ASSERT_FALSE(Err.empty());
  EXPECT_EQ(Err.find('\n'), Err.size() - 1) << Err;
}

TEST(ProgressMeter, AbandonedMeterStillTerminatesItsLine) {
  testing::internal::CaptureStderr();
  {
    ProgressMeter Meter("batch", 10, /*Enabled=*/true);
    sleepPastRepaintWindow();
    Meter.update(4); // Never reaches Total: an early-exit error path.
  }
  std::string Err = testing::internal::GetCapturedStderr();
  EXPECT_NE(Err.find("batch: 4/10 (40%)"), std::string::npos) << Err;
  ASSERT_FALSE(Err.empty());
  EXPECT_EQ(Err.back(), '\n');
}

TEST(ProgressMeter, DisabledAndUnpaintedMetersWriteNothing) {
  testing::internal::CaptureStderr();
  {
    ProgressMeter Disabled("quiet", 0, /*Enabled=*/false);
    sleepPastRepaintWindow();
    Disabled.tick();
    // Enabled but never painted (rate limit swallows an immediate tick):
    // the destructor must not invent a stray newline.
    ProgressMeter Unpainted("idle", 100, /*Enabled=*/true);
    Unpainted.tick();
  }
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

//===- obs_test.cpp - Telemetry subsystem ------------------------------------===//
//
// Covers the obs library: metrics registry semantics, phase profiler,
// JSONL/Chrome trace sinks (including the golden-shape validity checks:
// a valid trace-event array with balanced spans and monotone timestamps,
// and the JSONL golden + parse-back mirror), adversary filtering, the
// collector naming scheme, and the leakage accountant (obs/LeakAudit.h):
// window pricing, the online-hook/replay agreement, the Sec. 6.1
// projection and the leak.* metric surface.
//
//===----------------------------------------------------------------------===//

#include "hw/HardwareModels.h"
#include "lang/Parser.h"
#include "obs/LeakAudit.h"
#include "obs/Metrics.h"
#include "obs/Phase.h"
#include "obs/Telemetry.h"
#include "obs/TraceSink.h"
#include "sem/FullInterpreter.h"
#include "support/BuildInfo.h"
#include "types/LabelInference.h"

#include <cmath>

#include "gtest/gtest.h"

using namespace zam;

namespace {

/// A small mitigated program: one secret-dependent mitigate plus a public
/// assignment. h = 700 forces a misprediction of the initial estimate 64.
RunResult runMitigated(const TwoPointLattice &Lat, int64_t H,
                       InterpreterOptions Opts = InterpreterOptions()) {
  DiagnosticEngine Diags;
  std::optional<Program> P =
      parseProgram("var h : H;\nvar l : L;\n"
                   "mitigate (64, H) { sleep(h) @[H,H] };\n"
                   "l := 1",
                   Lat, Diags);
  EXPECT_TRUE(P.has_value());
  inferTimingLabels(*P);
  auto Env = createMachineEnv(HwKind::Partitioned, Lat);
  return runFull(*P, *Env, [&](Memory &M) { M.store("h", H); }, Opts);
}

} // namespace

//===----------------------------------------------------------------------===//
// MetricsRegistry
//===----------------------------------------------------------------------===//

TEST(MetricsRegistry, CounterFindOrCreate) {
  MetricsRegistry Reg;
  EXPECT_TRUE(Reg.empty());
  Reg.counter("a") += 2;
  Reg.counter("a") += 3;
  EXPECT_EQ(Reg.counterValue("a"), 5u);
  EXPECT_EQ(Reg.counterValue("missing"), 0u);
  EXPECT_EQ(Reg.size(), 1u);
}

TEST(MetricsRegistry, GaugesAndCountersShareNamespace) {
  MetricsRegistry Reg;
  Reg.setCounter("x", 7);
  Reg.setGauge("ratio", 0.5);
  EXPECT_EQ(Reg.counterValue("x"), 7u);
  EXPECT_DOUBLE_EQ(Reg.gaugeValue("ratio"), 0.5);
  // A gauge is not a counter and vice versa.
  EXPECT_EQ(Reg.counterValue("ratio"), 0u);
  EXPECT_DOUBLE_EQ(Reg.gaugeValue("x"), 0);
}

TEST(MetricsRegistry, MergeSumsCountersOverwritesGauges) {
  MetricsRegistry A, B;
  A.setCounter("hits", 10);
  A.setGauge("rate", 1.0);
  B.setCounter("hits", 5);
  B.setCounter("misses", 2);
  B.setGauge("rate", 2.0);
  A.merge(B);
  EXPECT_EQ(A.counterValue("hits"), 15u);
  EXPECT_EQ(A.counterValue("misses"), 2u);
  EXPECT_DOUBLE_EQ(A.gaugeValue("rate"), 2.0);
}

TEST(MetricsRegistry, ToJsonKeepsInsertionOrderAndIntegerFormat) {
  MetricsRegistry Reg;
  Reg.setCounter("zz", 3);
  Reg.setCounter("aa", 4);
  JsonValue Doc = Reg.toJson();
  ASSERT_EQ(Doc.members().size(), 2u);
  EXPECT_EQ(Doc.members()[0].first, "zz"); // Insertion order, not sorted.
  EXPECT_EQ(Doc.members()[1].first, "aa");
  // Counters serialize as integers (no ".0" fraction).
  EXPECT_NE(Doc.dump().find("\"zz\": 3"), std::string::npos);
}

TEST(MetricsRegistry, RecordingMacroToleratesNullRegistry) {
  MetricsRegistry Reg;
  MetricsRegistry *Null = nullptr, *Live = &Reg;
  ZAM_METRIC_ADD(Null, "n", 1); // Must be a safe no-op.
  ZAM_METRIC_ADD(Live, "n", 2);
  ZAM_METRIC_GAUGE(Live, "g", 1.5);
  EXPECT_EQ(Reg.counterValue("n"), 2u);
  EXPECT_DOUBLE_EQ(Reg.gaugeValue("g"), 1.5);
}

//===----------------------------------------------------------------------===//
// PhaseProfiler
//===----------------------------------------------------------------------===//

TEST(PhaseProfiler, AccumulatesReenteredPhases) {
  PhaseProfiler Prof;
  Prof.add("parse", 1.5);
  Prof.add("run", 2.0);
  Prof.add("parse", 0.5);
  ASSERT_EQ(Prof.phases().size(), 2u);
  EXPECT_EQ(Prof.phases()[0].Name, "parse");
  EXPECT_DOUBLE_EQ(Prof.phases()[0].Ms, 2.0);
  EXPECT_EQ(Prof.phases()[0].Count, 2u);
  EXPECT_DOUBLE_EQ(Prof.totalMs(), 4.0);
  JsonValue Doc = Prof.toJson();
  EXPECT_NE(Doc.find("parse_ms"), nullptr);
  EXPECT_NE(Doc.find("run_ms"), nullptr);
}

TEST(PhaseProfiler, ScopedPhaseRecordsNonNegativeTime) {
  PhaseProfiler Prof;
  {
    auto S = Prof.scope("work");
    (void)S;
  }
  ASSERT_EQ(Prof.phases().size(), 1u);
  EXPECT_GE(Prof.phases()[0].Ms, 0.0);
}

//===----------------------------------------------------------------------===//
// Trace sinks
//===----------------------------------------------------------------------===//

static TraceRecord instant(const char *Name, uint64_t Ts) {
  TraceRecord R;
  R.RecordKind = TraceRecord::Kind::Instant;
  R.Name = Name;
  R.Category = "interp";
  R.Ts = Ts;
  return R;
}

TEST(JsonlTraceSink, OneValidJsonObjectPerLine) {
  JsonlTraceSink Sink;
  Sink.record(instant("a", 1));
  TraceRecord Span;
  Span.RecordKind = TraceRecord::Kind::Span;
  Span.Name = "mitigate#0";
  Span.Category = "mit";
  Span.Ts = 2;
  Span.Dur = 100;
  Span.Args.emplace_back("level", "H");
  Span.Args.emplace_back("consumed", "42");
  Sink.record(Span);
  std::string Out = Sink.finish();

  // Split lines; every line parses as a JSON object.
  size_t Lines = 0, Pos = 0;
  while (Pos < Out.size()) {
    size_t Nl = Out.find('\n', Pos);
    ASSERT_NE(Nl, std::string::npos);
    auto Doc = JsonValue::parse(Out.substr(Pos, Nl - Pos));
    ASSERT_TRUE(Doc.has_value());
    EXPECT_EQ(Doc->kind(), JsonValue::Kind::Object);
    ++Lines;
    Pos = Nl + 1;
  }
  EXPECT_EQ(Lines, 2u);

  auto Line2 = JsonValue::parse(Out.substr(Out.find("\n") + 1));
  ASSERT_TRUE(Line2.has_value());
  EXPECT_EQ(Line2->find("kind")->asString(), "span");
  EXPECT_EQ(Line2->find("dur")->asNumber(), 100);
  // Digit-only arg values are emitted as JSON numbers, others as strings.
  EXPECT_EQ(Line2->find("args")->find("consumed")->asNumber(), 42);
  EXPECT_EQ(Line2->find("args")->find("level")->asString(), "H");
}

TEST(ChromeTraceSink, EmptyTraceIsAnEmptyArray) {
  ChromeTraceSink Sink;
  auto Doc = JsonValue::parse(Sink.finish());
  ASSERT_TRUE(Doc.has_value());
  EXPECT_EQ(Doc->kind(), JsonValue::Kind::Array);
  EXPECT_EQ(Doc->size(), 0u);
}

/// The satellite golden-shape check: export a small mitigated program as a
/// Chrome trace and validate the trace-event contract — a JSON array whose
/// events all carry name/ph/pid/tid/ts, use complete ("X") spans or
/// instants/counters, and have monotone nondecreasing timestamps.
TEST(ChromeTraceSink, MitigatedProgramProducesValidTraceEventArray) {
  TwoPointLattice Lat;
  InterpreterOptions Opts;
  Opts.RecordMisses = true;
  RunResult R = runMitigated(Lat, /*H=*/700, Opts);
  ASSERT_EQ(R.T.Mitigations.size(), 1u);
  ASSERT_FALSE(R.T.Misses.empty());

  ChromeTraceSink Sink;
  size_t Emitted = exportTrace(Sink, R.T, Lat);
  std::string Out = Sink.finish();

  auto Doc = JsonValue::parse(Out);
  ASSERT_TRUE(Doc.has_value()) << Out;
  ASSERT_EQ(Doc->kind(), JsonValue::Kind::Array);
  ASSERT_EQ(Doc->size(), Emitted);
  ASSERT_GT(Doc->size(), 2u); // Mitigate span + assign + misses.

  uint64_t PrevTs = 0;
  size_t Spans = 0;
  for (size_t I = 0; I != Doc->size(); ++I) {
    const JsonValue &E = Doc->at(I);
    ASSERT_NE(E.find("name"), nullptr);
    ASSERT_NE(E.find("ph"), nullptr);
    ASSERT_NE(E.find("pid"), nullptr);
    ASSERT_NE(E.find("tid"), nullptr);
    ASSERT_NE(E.find("ts"), nullptr);
    const std::string Ph = E.find("ph")->asString();
    // Complete spans ("X") are balanced by construction; no B/E pairs.
    EXPECT_TRUE(Ph == "X" || Ph == "i" || Ph == "C") << Ph;
    if (Ph == "X") {
      ++Spans;
      ASSERT_NE(E.find("dur"), nullptr);
    }
    uint64_t Ts = static_cast<uint64_t>(E.find("ts")->asNumber());
    EXPECT_GE(Ts, PrevTs); // Monotone timeline.
    PrevTs = Ts;
  }
  // The one mitigate window plus its priced leak_budget companion.
  EXPECT_EQ(Spans, 2u);

  // The mitigate span carries the estimate → predicted → consumed → padded
  // decomposition.
  bool FoundMitigate = false;
  for (size_t I = 0; I != Doc->size(); ++I) {
    const JsonValue &E = Doc->at(I);
    if (E.find("name")->asString() != "mitigate#0")
      continue;
    FoundMitigate = true;
    const JsonValue *Args = E.find("args");
    ASSERT_NE(Args, nullptr);
    EXPECT_EQ(Args->find("estimate")->asNumber(), 64);
    EXPECT_EQ(Args->find("consumed")->asNumber(),
              static_cast<double>(R.T.Mitigations[0].BodyTime));
    EXPECT_EQ(Args->find("predicted")->asNumber(),
              static_cast<double>(R.T.Mitigations[0].Duration));
    EXPECT_EQ(Args->find("mispredicted")->asString(), "true");
  }
  EXPECT_TRUE(FoundMitigate);
}

TEST(ExportTrace, AdversaryProjectionFiltersHighEventsAndMisses) {
  TwoPointLattice Lat;
  InterpreterOptions Opts;
  Opts.RecordMisses = true;
  RunResult R = runMitigated(Lat, /*H=*/700, Opts);

  // Unrestricted export sees the low assignment and the miss instants.
  JsonlTraceSink Full;
  TraceExportOptions All;
  size_t AllCount = exportTrace(Full, R.T, Lat, All);

  // A ⊥-adversary sees the low assignment (Γ(l) ⊑ L), the mitigate span
  // and its leak_budget pricing, but no machine-internal miss instants.
  JsonlTraceSink Projected;
  TraceExportOptions AtLow;
  AtLow.Adversary = Lat.bottom();
  size_t LowCount = exportTrace(Projected, R.T, Lat, AtLow);

  EXPECT_LT(LowCount, AllCount);
  EXPECT_EQ(LowCount, 3u); // assign l + mitigate#0 + leak_budget#0.
  const std::string &Out = Projected.finish();
  EXPECT_NE(Out.find("assign l"), std::string::npos);
  EXPECT_NE(Out.find("mitigate#0"), std::string::npos);
  EXPECT_NE(Out.find("leak_budget#0"), std::string::npos);
  EXPECT_EQ(Out.find("dmiss"), std::string::npos);
  EXPECT_EQ(Out.find("imiss"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Collectors
//===----------------------------------------------------------------------===//

TEST(Collectors, RunMetricsUseCanonicalNamesAndValues) {
  TwoPointLattice Lat;
  RunResult R = runMitigated(Lat, /*H=*/700);

  MetricsRegistry Reg;
  collectRunMetrics(Reg, R.T, R.Hw, Lat);

  EXPECT_EQ(Reg.counterValue("interp.steps"), R.T.Steps);
  EXPECT_EQ(Reg.counterValue("interp.assignments"), 1u);
  EXPECT_EQ(Reg.counterValue("interp.mitigate_entries"), 1u);
  EXPECT_EQ(Reg.counterValue("interp.final_time_cycles"), R.T.FinalTime);
  EXPECT_EQ(Reg.counterValue("mit.predictions"), 1u);
  EXPECT_EQ(Reg.counterValue("mit.mispredictions"), 1u);
  // interp.events counts the events a run produced; on a retaining run
  // that is exactly the retained vector.
  EXPECT_EQ(Reg.counterValue("interp.events"), R.T.Events.size());
  EXPECT_GT(Reg.counterValue("mit.padded_idle_cycles"), 0u);
  // h = 700 with estimate 64 needs Miss[H] = 4: 64·2⁴ = 1024 ≥ 700.
  EXPECT_EQ(Reg.counterValue("mit.miss_table.H"), 4u);
  EXPECT_EQ(Reg.counterValue("mit.miss_table.L"), 0u);
  // Hardware counters flow through under the hw. prefix.
  EXPECT_EQ(Reg.counterValue("hw.l1d.misses"), R.Hw.L1D.Misses);
  EXPECT_GT(Reg.counterValue("hw.l1i.line_fills"), 0u);
}

TEST(Collectors, EventsCounterNeedsNoRetention) {
  TwoPointLattice Lat;
  RunResult Kept = runMitigated(Lat, /*H=*/700);
  InterpreterOptions Opts;
  Opts.RetainEvents = false;
  RunResult Dropped = runMitigated(Lat, /*H=*/700, Opts);
  ASSERT_TRUE(Dropped.T.Events.empty());

  MetricsRegistry KeptReg, DroppedReg;
  collectRunMetrics(KeptReg, Kept.T, Kept.Hw, Lat);
  collectRunMetrics(DroppedReg, Dropped.T, Dropped.Hw, Lat);
  EXPECT_EQ(DroppedReg.counterValue("interp.events"),
            KeptReg.counterValue("interp.events"));
  EXPECT_EQ(DroppedReg.toJson().dump(), KeptReg.toJson().dump());
}

TEST(Collectors, PrefixNamespacesTheCounters) {
  TwoPointLattice Lat;
  RunResult R = runMitigated(Lat, /*H=*/5);
  MetricsRegistry Reg;
  collectRunMetrics(Reg, R.T, R.Hw, Lat, "partitioned.");
  EXPECT_EQ(Reg.counterValue("partitioned.mit.predictions"), 1u);
  EXPECT_EQ(Reg.counterValue("mit.predictions"), 0u);
}

TEST(Collectors, TraceFormatParsing) {
  EXPECT_EQ(parseTraceFormat("jsonl"), TraceFormat::Jsonl);
  EXPECT_EQ(parseTraceFormat("chrome"), TraceFormat::Chrome);
  EXPECT_FALSE(parseTraceFormat("xml").has_value());
  EXPECT_NE(makeTraceSink(TraceFormat::Jsonl), nullptr);
  EXPECT_NE(makeTraceSink(TraceFormat::Chrome), nullptr);
}

/// The JSONL mirror of the Chrome golden-shape check: export the same
/// mitigated program as JSONL and validate the line contract — every line
/// parses as an object with kind/name/cat/ts, spans carry dur, and the
/// byte form of one known line matches exactly.
TEST(JsonlTraceSink, MitigatedProgramProducesValidJsonLines) {
  TwoPointLattice Lat;
  InterpreterOptions Opts;
  Opts.RecordMisses = true;
  RunResult R = runMitigated(Lat, /*H=*/700, Opts);
  ASSERT_EQ(R.T.Mitigations.size(), 1u);

  JsonlTraceSink Sink;
  size_t Emitted = exportTrace(Sink, R.T, Lat);
  std::string Out = Sink.finish();

  size_t Lines = 0, Pos = 0, Spans = 0;
  uint64_t PrevTs = 0;
  while (Pos < Out.size()) {
    size_t Nl = Out.find('\n', Pos);
    ASSERT_NE(Nl, std::string::npos);
    auto Doc = JsonValue::parse(Out.substr(Pos, Nl - Pos));
    ASSERT_TRUE(Doc.has_value()) << Out.substr(Pos, Nl - Pos);
    ASSERT_EQ(Doc->kind(), JsonValue::Kind::Object);
    ASSERT_NE(Doc->find("kind"), nullptr);
    ASSERT_NE(Doc->find("name"), nullptr);
    ASSERT_NE(Doc->find("cat"), nullptr);
    ASSERT_NE(Doc->find("ts"), nullptr);
    const std::string Kind = Doc->find("kind")->asString();
    EXPECT_TRUE(Kind == "instant" || Kind == "span" || Kind == "counter")
        << Kind;
    if (Kind == "span") {
      ++Spans;
      ASSERT_NE(Doc->find("dur"), nullptr);
    }
    uint64_t Ts = static_cast<uint64_t>(Doc->find("ts")->asNumber());
    EXPECT_GE(Ts, PrevTs);
    PrevTs = Ts;
    ++Lines;
    Pos = Nl + 1;
  }
  EXPECT_EQ(Lines, Emitted);
  EXPECT_EQ(Spans, 2u); // mitigate#0 + leak_budget#0.

  // Golden byte check: the mitigate span line is exactly this.
  const MitigateRecord &M = R.T.Mitigations[0];
  std::string Expected =
      "{\"kind\":\"span\",\"name\":\"mitigate#0\",\"cat\":\"mit\",\"ts\":" +
      std::to_string(M.Start) + ",\"dur\":" + std::to_string(M.Duration) +
      ",\"args\":{\"level\":\"H\",\"pc\":\"L\",\"estimate\":64,"
      "\"predicted\":" +
      std::to_string(M.Duration) + ",\"consumed\":" +
      std::to_string(M.BodyTime) +
      ",\"padded\":" + std::to_string(M.Duration - M.BodyTime) +
      ",\"mispredicted\":\"true\",\"loc\":3}}\n";
  EXPECT_NE(Out.find(Expected), std::string::npos) << Out;
}

TEST(JsonlTraceSink, HeaderEmitsMetaFirstLine) {
  JsonlTraceSink Sink;
  Sink.header(provenanceArgs(4));
  Sink.record(instant("a", 1));
  std::string Out = Sink.finish();
  auto First = JsonValue::parse(Out.substr(0, Out.find('\n')));
  ASSERT_TRUE(First.has_value());
  EXPECT_EQ(First->find("kind")->asString(), "meta");
  const JsonValue *Args = First->find("args");
  ASSERT_NE(Args, nullptr);
  EXPECT_EQ(Args->find("tool")->asString(), "zam");
  EXPECT_EQ(Args->find("version")->asString(), buildVersion());
  EXPECT_EQ(Args->find("threads")->asNumber(), 4);
}

TEST(ChromeTraceSink, HeaderEmitsMetadataEvent) {
  ChromeTraceSink Sink;
  Sink.header(provenanceArgs(1));
  Sink.record(instant("a", 1));
  auto Doc = JsonValue::parse(Sink.finish());
  ASSERT_TRUE(Doc.has_value());
  ASSERT_EQ(Doc->size(), 2u);
  EXPECT_EQ(Doc->at(0).find("ph")->asString(), "M");
  EXPECT_EQ(Doc->at(0).find("args")->find("tool")->asString(), "zam");
}

TEST(JsonlTraceSink, NumberLiteralArgsEmitBare) {
  JsonlTraceSink Sink;
  TraceRecord R = instant("n", 1);
  R.Args.emplace_back("int", "42");
  R.Args.emplace_back("neg", "-7");
  R.Args.emplace_back("dec", "3.5849625007211561");
  R.Args.emplace_back("exp", "1e+20");
  R.Args.emplace_back("notnum", "nan");
  R.Args.emplace_back("trail", "1.");
  Sink.record(R);
  std::string Out = Sink.finish();
  auto Doc = JsonValue::parse(Out.substr(0, Out.find('\n')));
  ASSERT_TRUE(Doc.has_value());
  const JsonValue *Args = Doc->find("args");
  ASSERT_NE(Args, nullptr);
  EXPECT_EQ(Args->find("int")->kind(), JsonValue::Kind::Number);
  EXPECT_EQ(Args->find("neg")->kind(), JsonValue::Kind::Number);
  EXPECT_EQ(Args->find("dec")->kind(), JsonValue::Kind::Number);
  EXPECT_DOUBLE_EQ(Args->find("dec")->asNumber(), 3.5849625007211561);
  EXPECT_EQ(Args->find("exp")->kind(), JsonValue::Kind::Number);
  EXPECT_EQ(Args->find("notnum")->kind(), JsonValue::Kind::String);
  EXPECT_EQ(Args->find("trail")->kind(), JsonValue::Kind::String);
}

//===----------------------------------------------------------------------===//
// LeakAudit
//===----------------------------------------------------------------------===//

TEST(LeakAudit, AttainableScheduleValuesCountsDoublings) {
  // With estimate n, the attainable fast-doubling outputs ≤ T are
  // n, 2n, 4n, ... — count how many fit.
  EXPECT_EQ(attainableScheduleValues(64, 0), 1u);
  EXPECT_EQ(attainableScheduleValues(64, 64), 1u);
  EXPECT_EQ(attainableScheduleValues(64, 127), 1u);
  EXPECT_EQ(attainableScheduleValues(64, 128), 2u);
  EXPECT_EQ(attainableScheduleValues(64, 1024), 5u);  // 64..1024.
  EXPECT_EQ(attainableScheduleValues(64, 1500), 5u);  // 2048 > 1500.
  EXPECT_EQ(attainableScheduleValues(0, 100), 7u);    // max(n,1): 1..64.
  EXPECT_EQ(attainableScheduleValues(-5, 1), 1u);
  EXPECT_DOUBLE_EQ(windowBoundBits(64, 1024), std::log2(5.0));
  EXPECT_DOUBLE_EQ(mispredictPenaltyBits(4), std::log2(5.0));
  EXPECT_DOUBLE_EQ(mispredictPenaltyBits(0), 0.0);
}

TEST(LeakAudit, ClosedFormBoundMatchesSectionSeven) {
  EXPECT_DOUBLE_EQ(leakageBoundBits(1, 0, 100), 0.0);
  EXPECT_DOUBLE_EQ(leakageBoundBits(1, 1, 1024), 1.0 * 1.0 * 11.0);
  EXPECT_DOUBLE_EQ(leakageBoundBits(2, 3, 2), 2.0 * 2.0 * 2.0);
}

TEST(LeakAudit, PricesMispredictedWindow) {
  TwoPointLattice Lat;
  RunResult R = runMitigated(Lat, /*H=*/700);
  ASSERT_EQ(R.T.Mitigations.size(), 1u);
  const MitigateRecord &M = R.T.Mitigations[0];
  EXPECT_EQ(M.MissesAfter, 4u); // 64·2⁴ = 1024 ≥ 700.

  LeakAudit Audit(Lat);
  Audit.ingest(R.T);
  ASSERT_EQ(Audit.windows().size(), 1u);
  const LeakWindow &W = Audit.windows()[0];
  EXPECT_EQ(W.Eta, M.Eta);
  EXPECT_EQ(W.Duration, 1024u);
  EXPECT_EQ(W.Attainable,
            attainableScheduleValues(M.Estimate, M.Start + M.Duration));
  EXPECT_DOUBLE_EQ(W.WindowBits,
                   std::log2(static_cast<double>(W.Attainable)));
  EXPECT_DOUBLE_EQ(W.CumLevelBits, W.WindowBits);
  EXPECT_DOUBLE_EQ(Audit.totalBitsBound(), W.WindowBits);
  EXPECT_EQ(Audit.account(Lat.high()).Windows, 1u);
  EXPECT_EQ(Audit.account(Lat.high()).Misses, 4u);
  EXPECT_EQ(Audit.account(Lat.low()).Windows, 0u);
}

TEST(LeakAudit, OnlineHookAgreesWithTraceReplayBitForBit) {
  TwoPointLattice Lat;
  LeakAudit Online(Lat);
  InterpreterOptions Opts;
  Opts.OnMitigateWindow = [&Online](const MitigateRecord &R) {
    Online.onWindow(R);
  };
  RunResult R = runMitigated(Lat, /*H=*/700, Opts);

  LeakAudit Replay(Lat);
  Replay.ingest(R.T);

  ASSERT_EQ(Online.windows().size(), Replay.windows().size());
  EXPECT_EQ(Online.totalBitsBound(), Replay.totalBitsBound());
  MetricsRegistry A, B;
  Online.exportMetrics(A);
  Replay.exportMetrics(B);
  EXPECT_EQ(A.toJson().dump(), B.toJson().dump());
}

TEST(LeakAudit, AdversaryProjectionSelectsCountedWindows) {
  TwoPointLattice Lat;
  RunResult R = runMitigated(Lat, /*H=*/700);

  // ⊥-adversary: pc = L ⊑ L is visible, lev = H ⋢ L carries secrets —
  // counted (this is the Definition 2 window set).
  LeakAudit AtLow(Lat, Lat.bottom());
  AtLow.ingest(R.T);
  EXPECT_EQ(AtLow.windows().size(), 1u);

  // ⊤-adversary: lev = H ⊑ H — the window hides nothing from it.
  LeakAudit AtHigh(Lat, Lat.top());
  AtHigh.ingest(R.T);
  EXPECT_EQ(AtHigh.windows().size(), 0u);
  EXPECT_DOUBLE_EQ(AtHigh.totalBitsBound(), 0.0);
}

TEST(LeakAudit, ExportMetricsEmitsFixedLeakNamespace) {
  TwoPointLattice Lat;
  RunResult R = runMitigated(Lat, /*H=*/700);
  LeakAudit Audit(Lat);
  Audit.ingest(R.T);

  MetricsRegistry Reg;
  Audit.exportMetrics(Reg);
  EXPECT_EQ(Reg.counterValue("leak.H.windows"), 1u);
  EXPECT_EQ(Reg.counterValue("leak.L.windows"), 0u);
  EXPECT_EQ(Reg.counterValue("leak.windows"), 1u);
  EXPECT_GT(Reg.gaugeValue("leak.H.bits_bound"), 0.0);
  EXPECT_DOUBLE_EQ(Reg.gaugeValue("leak.L.bits_bound"), 0.0);
  EXPECT_DOUBLE_EQ(Reg.gaugeValue("leak.H.mispredict_penalty_bits"),
                   std::log2(5.0));
  EXPECT_DOUBLE_EQ(Reg.gaugeValue("leak.total_bits_bound"),
                   Reg.gaugeValue("leak.H.bits_bound"));
  // Prefixed for multi-configuration reports.
  MetricsRegistry Pre;
  Audit.exportMetrics(Pre, "lang.");
  EXPECT_EQ(Pre.counterValue("lang.leak.windows"), 1u);
}

TEST(LeakAudit, LeakBudgetSpanArgsRoundTripTheOnlineNumbers) {
  // The bit-for-bit contract zamtrace relies on: parsing the leak_budget
  // span args back from JSONL yields exactly the accountant's doubles.
  TwoPointLattice Lat;
  RunResult R = runMitigated(Lat, /*H=*/700);
  LeakAudit Audit(Lat);
  Audit.ingest(R.T);
  ASSERT_EQ(Audit.windows().size(), 1u);
  const LeakWindow &W = Audit.windows()[0];

  JsonlTraceSink Sink;
  exportTrace(Sink, R.T, Lat);
  std::string Out = Sink.finish();
  size_t Pos = Out.find("leak_budget#0");
  ASSERT_NE(Pos, std::string::npos);
  size_t LineStart = Out.rfind('\n', Pos);
  LineStart = LineStart == std::string::npos ? 0 : LineStart + 1;
  auto Doc = JsonValue::parse(
      Out.substr(LineStart, Out.find('\n', LineStart) - LineStart));
  ASSERT_TRUE(Doc.has_value());
  EXPECT_EQ(Doc->find("cat")->asString(), "leak");
  const JsonValue *Args = Doc->find("args");
  ASSERT_NE(Args, nullptr);
  EXPECT_EQ(Args->find("level")->asString(), "H");
  EXPECT_EQ(Args->find("estimate")->asNumber(), 64);
  EXPECT_EQ(Args->find("misses_after")->asNumber(), 4);
  EXPECT_EQ(Args->find("attainable")->asNumber(),
            static_cast<double>(W.Attainable));
  // Bit-identical doubles through the dump/parse round trip.
  EXPECT_EQ(Args->find("window_bits")->asNumber(), W.WindowBits);
  EXPECT_EQ(Args->find("cum_level_bits")->asNumber(), W.CumLevelBits);
}

TEST(Collectors, ReportEmitsMetricsObjectWhenNonEmpty) {
  // The exp::Report side: a "metrics" object appears exactly when counters
  // were collected, placed before "series" for stable output.
  TwoPointLattice Lat;
  RunResult R = runMitigated(Lat, /*H=*/5);
  MetricsRegistry Reg;
  collectRunMetrics(Reg, R.T, R.Hw, Lat);
  JsonValue Doc = Reg.toJson();
  EXPECT_NE(Doc.find("interp.steps"), nullptr);
  EXPECT_NE(Doc.find("hw.dtlb.hits"), nullptr);
}

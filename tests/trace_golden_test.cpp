//===- trace_golden_test.cpp - Byte-exact trace export goldens ------------===//
//
// Pins the exact bytes exportTrace writes for one fixed program that
// reaches every record stream and every same-timestamp tie the exporter
// has to order: nested mitigates (start order differs from completion
// order), array stores, sampled cache misses, an embedded ledger whose
// prof rows share the final time with the last assignment, a snapshot row
// after every window, and one per-site non-default mitigation policy. The
// JSONL and Chrome outputs are compared against committed golden files,
// the ZTB output against a checksum, both for the full export and for an
// adversary projection.
//
// The edge-case goldens pin what the encoders must keep doing with values
// whose rendering depends on their text: level names that read as numbers
// (emitted bare) or need escaping, the adv sample stream's one-element and
// multi-element window lists and non-finite bounds, a Counter record's
// %.17g value, and the attack command's snapshot meta row.
//
// A long export pins what the small goldens never reach: an export of more
// than 1 MiB in each format, whose records include ones longer than the
// encoders' first 4 KiB buffer, leaves in 64 KiB chunks.
//
// On a mismatch the actual bytes are written to <golden name>.actual in
// the test's working directory, for diffing against tests/golden/.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "adv/Adversary.h"
#include "obs/CostLedger.h"
#include "obs/LeakAudit.h"
#include "obs/Telemetry.h"
#include "obs/TraceReader.h"
#include "obs/TraceSchema.h"
#include "obs/TraceSink.h"
#include "sem/FullInterpreter.h"
#include "types/LabelInference.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <set>
#include <sstream>

#include "gtest/gtest.h"

using namespace zam;
using zam::test::lh;

namespace {

/// Line numbers matter: they become the "loc" args of every stream.
constexpr const char *kSource = "var h : H;\n"
                                "var a : L[4];\n"
                                "var i : L;\n"
                                "var l : L;\n"
                                "mitigate (16, H) {\n"
                                "  sleep(h) @[H,H];\n"
                                "  mitigate (8, H) { sleep(h) @[H,H] };\n"
                                "  h := h + 1\n"
                                "};\n"
                                "while (i < 4) do {\n"
                                "  a[i] := i * 3;\n"
                                "  i := i + 1\n"
                                "};\n"
                                "mitigate (32, H) { sleep(h) @[H,H] };\n"
                                "l := a[2] + 1";

/// Size and FNV-1a checksum of the ZTB exports.
constexpr size_t kFullZtbBytes = 3407;
constexpr uint64_t kFullZtbFnv1a = 17762605070204708717ull;
constexpr size_t kLowZtbBytes = 1365;
constexpr uint64_t kLowZtbFnv1a = 1268868543072887777ull;
constexpr size_t kNumericLevelsZtbBytes = 3407;
constexpr uint64_t kNumericLevelsZtbFnv1a = 13176712421316185198ull;
constexpr size_t kEscapedLevelsZtbBytes = 3478;
constexpr uint64_t kEscapedLevelsZtbFnv1a = 9369731330840897644ull;
constexpr size_t kAdvZtbBytes = 573;
constexpr uint64_t kAdvZtbFnv1a = 7600988232793590304ull;
constexpr size_t kRecordsZtbBytes = 185;
constexpr uint64_t kRecordsZtbFnv1a = 10106790972940678949ull;

/// Size and FNV-1a checksum of the long export in JSONL, Chrome and ZTB.
constexpr size_t kLongBytes[] = {1574745, 1595901, 1479052};
constexpr uint64_t kLongFnv1a[] = {2395598286648910458ull,
                                   6690755742892774517ull,
                                   17280996878583182082ull};

/// The long export's variable name: each of its assignments is a record
/// longer than the encoders' first 4 KiB buffer.
constexpr size_t kLongNameBytes = 4500;

/// The run and the observers `zamc profile --trace-out` attaches.
struct GoldenRun {
  Program P = test::parseOrDie(kSource, lh());
  PolicySelection Policies;
  CostLedger Ledger;
  RunResult R;

  GoldenRun() {
    inferTimingLabels(P);
    // The inner mitigate (η = 1) runs a non-default schedule, so its
    // leak_budget span carries a "policy" arg.
    Policies.overrideSite(1, linearPolicy());
    LeakAudit Audit(lh(), std::nullopt, Policies);
    InterpreterOptions Opts;
    Opts.Mitigation = Policies;
    Opts.Provenance = &Ledger;
    Opts.RecordMisses = true;
    Opts.OnMitigateWindow = [&Audit](const MitigateRecord &M) {
      Audit.onWindow(M);
    };
    auto Env = createMachineEnv(HwKind::Partitioned, lh());
    R = runFull(P, *Env, [](Memory &M) { M.store("h", 40); }, Opts);
    Ledger.applyLeakage(Audit);
  }

  TraceExportOptions options(bool Projected) const {
    TraceExportOptions Opts;
    if (Projected)
      Opts.Adversary = TwoPointLattice::low();
    Opts.Ledger = &Ledger;
    Opts.Mitigation = Policies;
    Opts.SnapshotEveryWindows = 1;
    return Opts;
  }

  /// Exports the run with \p Lat naming the levels; any two-level total
  /// order prices the windows as lh() does.
  std::string exportAs(TraceFormat Format, bool Projected,
                       const SecurityLattice &Lat = lh()) const {
    StringByteSink Bytes;
    std::unique_ptr<TraceSink> Sink = makeTraceSink(Format, Bytes);
    exportTrace(*Sink, R.T, Lat, options(Projected));
    Sink->close();
    return Bytes.str();
  }
};

const GoldenRun &goldenRun() {
  static const GoldenRun Run;
  return Run;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream S;
  S << In.rdbuf();
  return S.str();
}

/// Compares \p Actual with tests/golden/\p Name, dumping it on mismatch.
void expectGolden(const std::string &Name, const std::string &Actual) {
  const std::string Want = readFile(std::string(ZAM_TRACE_GOLDEN_DIR) + "/" +
                                    Name);
  if (Actual == Want)
    return;
  std::ofstream(Name + ".actual", std::ios::binary) << Actual;
  size_t At = 0;
  while (At < Actual.size() && At < Want.size() && Actual[At] == Want[At])
    ++At;
  ADD_FAILURE() << Name << ": bytes differ from the golden at offset " << At
                << " (" << Actual.size() << " vs " << Want.size()
                << " bytes); wrote " << Name << ".actual";
}

/// Streams \p Produce's records through a \p Format sink over a
/// StringByteSink and returns the bytes.
template <typename Fn> std::string capture(TraceFormat Format, Fn Produce) {
  StringByteSink Bytes;
  std::unique_ptr<TraceSink> Sink = makeTraceSink(Format, Bytes);
  Produce(*Sink);
  Sink->close();
  return Bytes.str();
}

/// FNV-1a over \p Bytes, continuing from \p H.
uint64_t fnv1a(std::string_view Bytes, uint64_t H = 0xcbf29ce484222325ull) {
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

/// Checksums the bytes a sink writes and keeps the size of its largest
/// write.
class ChunkSink final : public ByteSink {
public:
  void write(const char *Data, size_t Size) override {
    Fnv = fnv1a({Data, Size}, Fnv);
    Bytes += Size;
    ++Writes;
    MaxWrite = std::max(MaxWrite, Size);
  }

  uint64_t Fnv = 0xcbf29ce484222325ull;
  size_t Bytes = 0, Writes = 0, MaxWrite = 0;
};

} // namespace

TEST(TraceGolden, ProgramReachesEveryStreamAndTie) {
  const GoldenRun &G = goldenRun();
  const Trace &T = G.R.T;
  // Nested mitigates: the inner window completes (and is recorded) first
  // but starts after the outer one.
  ASSERT_EQ(T.Mitigations.size(), 3u);
  EXPECT_EQ(T.Mitigations[0].Eta, 1u);
  EXPECT_EQ(T.Mitigations[1].Eta, 0u);
  EXPECT_GT(T.Mitigations[0].Start, T.Mitigations[1].Start);
  bool ArrayStore = false;
  for (const AssignEvent &E : T.Events)
    ArrayStore |= E.IsArrayStore;
  EXPECT_TRUE(ArrayStore);
  EXPECT_FALSE(T.Misses.empty());
  // The last assignment ties with the ledger's prof rows.
  ASSERT_FALSE(T.Events.empty());
  EXPECT_EQ(T.Events.back().Time, T.FinalTime);
  EXPECT_FALSE(G.Ledger.lines().empty());
  EXPECT_FALSE(G.Ledger.sites().empty());

  const std::string Jsonl = G.exportAs(TraceFormat::Jsonl, false);
  EXPECT_NE(Jsonl.find("\"policy\":\"linear\""), std::string::npos);
  EXPECT_NE(Jsonl.find("\"name\":\"snapshot\""), std::string::npos);
  EXPECT_NE(Jsonl.find("\"name\":\"prof_site#1\""), std::string::npos);
}

TEST(TraceGolden, FullExportMatchesGoldens) {
  const GoldenRun &G = goldenRun();
  expectGolden("export.jsonl", G.exportAs(TraceFormat::Jsonl, false));
  expectGolden("export.chrome.json", G.exportAs(TraceFormat::Chrome, false));
  const std::string Ztb = G.exportAs(TraceFormat::Ztb, false);
  EXPECT_EQ(Ztb.size(), kFullZtbBytes);
  EXPECT_EQ(fnv1a(Ztb), kFullZtbFnv1a);
}

TEST(TraceGolden, AdversaryProjectionMatchesGoldens) {
  const GoldenRun &G = goldenRun();
  expectGolden("export_low.jsonl", G.exportAs(TraceFormat::Jsonl, true));
  expectGolden("export_low.chrome.json",
               G.exportAs(TraceFormat::Chrome, true));
  const std::string Ztb = G.exportAs(TraceFormat::Ztb, true);
  EXPECT_EQ(Ztb.size(), kLowZtbBytes);
  EXPECT_EQ(fnv1a(Ztb), kLowZtbFnv1a);
}

/// Levels named "0" and "1" read as JSON numbers, so every level, pc and
/// label arg leaves bare.
TEST(TraceGolden, NumericLevelNamesEmitBare) {
  const TotalOrderLattice Numeric({"0", "1"});
  const GoldenRun &G = goldenRun();
  const std::string Jsonl = G.exportAs(TraceFormat::Jsonl, false, Numeric);
  EXPECT_NE(Jsonl.find("\"label\":0}"), std::string::npos);
  expectGolden("levels_numeric.jsonl", Jsonl);
  expectGolden("levels_numeric.chrome.json",
               G.exportAs(TraceFormat::Chrome, false, Numeric));
  const std::string Ztb = G.exportAs(TraceFormat::Ztb, false, Numeric);
  EXPECT_EQ(Ztb.size(), kNumericLevelsZtbBytes);
  EXPECT_EQ(fnv1a(Ztb), kNumericLevelsZtbFnv1a);
}

/// Level names with a quote, a backslash and a control byte are escaped
/// wherever they appear.
TEST(TraceGolden, EscapedLevelNames) {
  const TotalOrderLattice Escaped({"lo\"w", "h\\i\x01gh"});
  const GoldenRun &G = goldenRun();
  expectGolden("levels_escaped.jsonl",
               G.exportAs(TraceFormat::Jsonl, false, Escaped));
  expectGolden("levels_escaped.chrome.json",
               G.exportAs(TraceFormat::Chrome, false, Escaped));
  const std::string Ztb = G.exportAs(TraceFormat::Ztb, false, Escaped);
  EXPECT_EQ(Ztb.size(), kEscapedLevelsZtbBytes);
  EXPECT_EQ(fnv1a(Ztb), kEscapedLevelsZtbFnv1a);
}

/// The attack sample stream: a one-element window list reads as a number
/// and leaves bare, longer and empty lists are quoted text, class names
/// are escaped, an index past the names drops the "class" arg, and
/// non-finite bounds are quoted.
TEST(TraceGolden, AdvSampleStream) {
  const std::vector<std::string> Names = {"lo\"w", "h\\i\x02gh"};
  std::vector<Observation> Obs(6);
  Obs[0] = {0, 1200, {256}, 0};
  Obs[1] = {1, 4800, {256, 512, 1024}, 3.5849625007211563};
  Obs[2] = {0, 900, {}, 1e20};
  Obs[3] = {1, 0, {7}, std::numeric_limits<double>::infinity()};
  Obs[4] = {0, 18446744073709551615ull, {1, 2},
            std::numeric_limits<double>::quiet_NaN()};
  Obs[5] = {2, 77, {3}, -std::numeric_limits<double>::infinity()};
  auto Produce = [&](TraceSink &Sink) {
    Sink.header({{"tool", "zam"}, {"attack_classes", "lo\"w,h\\i\x02gh"}});
    EXPECT_EQ(exportObservations(Sink, Obs, Names), Obs.size());
  };
  const std::string Jsonl = capture(TraceFormat::Jsonl, Produce);
  EXPECT_NE(Jsonl.find("\"windows\":256,"), std::string::npos);
  EXPECT_NE(Jsonl.find("\"windows\":\"256,512,1024\""), std::string::npos);
  EXPECT_NE(Jsonl.find("\"bound_bits\":\"inf\""), std::string::npos);
  expectGolden("adv.jsonl", Jsonl);
  expectGolden("adv.chrome.json", capture(TraceFormat::Chrome, Produce));
  const std::string Ztb = capture(TraceFormat::Ztb, Produce);
  EXPECT_EQ(Ztb.size(), kAdvZtbBytes);
  EXPECT_EQ(fnv1a(Ztb), kAdvZtbFnv1a);
}

/// Records that arrive as TraceRecords: Counter values in %.17g (Chrome
/// carries only the value), a snapshot meta row, and text args that read
/// as numbers or booleans.
TEST(TraceGolden, RecordAdapter) {
  auto Produce = [](TraceSink &Sink) {
    Sink.header({{"tool", "zam"}, {"threads", "4"}});
    TraceRecord Counter;
    Counter.RecordKind = TraceRecord::Kind::Counter;
    Counter.Name = "bits";
    Counter.Category = "leak";
    Counter.Ts = 3;
    Counter.Value = 0.1;
    Sink.record(Counter);
    Counter.Ts = 4;
    Counter.Value = -1e300;
    Counter.Args.push_back(TraceArg::text("note", "dropped by chrome"));
    Sink.record(Counter);
    TraceRecord Snapshot;
    Snapshot.RecordKind = TraceRecord::Kind::Meta;
    Snapshot.Name = "snapshot";
    Snapshot.Category = "obs";
    Snapshot.Ts = 15;
    Snapshot.Args.push_back(TraceArg::u64("samples", 16));
    Snapshot.Args.push_back(TraceArg::u64("end_to_end_p50", 4711));
    Sink.record(Snapshot);
    TraceRecord Span;
    Span.RecordKind = TraceRecord::Kind::Span;
    Span.Name = "1";
    Span.Category = "c\"at";
    Span.Ts = 20;
    Span.Dur = 5;
    Span.Args = {TraceArg::text("true", "true"), TraceArg::text("n", "-0.5e-3"),
                 TraceArg::text("x", "1."), TraceArg::text("k\\", "0x1f")};
    Sink.record(Span);
  };
  const std::string Jsonl = capture(TraceFormat::Jsonl, Produce);
  EXPECT_NE(Jsonl.find("\"value\":0.10000000000000001"), std::string::npos);
  expectGolden("records.jsonl", Jsonl);
  expectGolden("records.chrome.json", capture(TraceFormat::Chrome, Produce));
  const std::string Ztb = capture(TraceFormat::Ztb, Produce);
  EXPECT_EQ(Ztb.size(), kRecordsZtbBytes);
  EXPECT_EQ(fnv1a(Ztb), kRecordsZtbFnv1a);
}

/// An export of more than 1 MiB in every format: 300 assignments to a
/// variable whose name is longer than the encoders' first 4 KiB buffer, a
/// mitigate per iteration under a per-site policy (a "policy" text arg on
/// each leak_budget span), misses, snapshots and the ledger rows. It must
/// leave in writes of at most 64 KiB plus one record, and keep its bytes.
TEST(TraceGolden, LongExportLeavesInChunks) {
  const std::string Name(kLongNameBytes, 'v');
  Program P = test::parseOrDie("var " + Name + " : L;\n"
                               "var i : L;\n"
                               "var h : H;\n"
                               "while (i < 300) do {\n"
                               "  " + Name + " := " + Name + " + i;\n"
                               "  mitigate (8, H) { sleep(h) @[H,H] };\n"
                               "  i := i + 1\n"
                               "}",
                               lh());
  inferTimingLabels(P);
  PolicySelection Policies;
  Policies.overrideSite(0, linearPolicy());
  LeakAudit Audit(lh(), std::nullopt, Policies);
  CostLedger Ledger;
  InterpreterOptions Opts;
  Opts.Mitigation = Policies;
  Opts.Provenance = &Ledger;
  Opts.RecordMisses = true;
  Opts.OnMitigateWindow = [&Audit](const MitigateRecord &M) {
    Audit.onWindow(M);
  };
  auto Env = createMachineEnv(HwKind::Partitioned, lh());
  const RunResult R =
      runFull(P, *Env, [](Memory &M) { M.store("h", 20); }, Opts);
  Ledger.applyLeakage(Audit);
  TraceExportOptions EOpts;
  EOpts.Ledger = &Ledger;
  EOpts.Mitigation = Policies;
  EOpts.SnapshotEveryWindows = 1;

  // Every record is shorter than this; the long ones are longer than
  // 4 KiB.
  const size_t kMaxRecord = kLongNameBytes + 512;
  const TraceFormat Formats[] = {TraceFormat::Jsonl, TraceFormat::Chrome,
                                 TraceFormat::Ztb};
  for (size_t F = 0; F != 3; ++F) {
    SCOPED_TRACE(traceFormatName(Formats[F]));
    ChunkSink Bytes;
    std::unique_ptr<TraceSink> Sink = makeTraceSink(Formats[F], Bytes);
    exportTrace(*Sink, R.T, lh(), EOpts);
    Sink->close();
    EXPECT_TRUE(Sink->ok());
    EXPECT_GT(Bytes.Bytes, size_t(1) << 20);
    EXPECT_GE(Bytes.Writes, Bytes.Bytes / (64 * 1024));
    EXPECT_LE(Bytes.MaxWrite, 64 * 1024 + kMaxRecord);
    std::printf("[          ] %s: %zu bytes, FNV-1a %llu, %zu writes\n",
                traceFormatName(Formats[F]), Bytes.Bytes,
                static_cast<unsigned long long>(Bytes.Fnv), Bytes.Writes);
    EXPECT_EQ(Bytes.Bytes, kLongBytes[F]);
    EXPECT_EQ(Bytes.Fnv, kLongFnv1a[F]);
  }
  // The records the pins cover.
  StringByteSink Text;
  std::unique_ptr<TraceSink> Sink = makeTraceSink(TraceFormat::Jsonl, Text);
  exportTrace(*Sink, R.T, lh(), EOpts);
  Sink->close();
  EXPECT_NE(Text.str().find("\"name\":\"assign " + Name + "\""),
            std::string::npos);
  EXPECT_NE(Text.str().find("\"policy\":\"linear\""), std::string::npos);
  EXPECT_NE(Text.str().find("\"name\":\"dmiss\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// The writers against the schema (obs/TraceSchema.h)
//===----------------------------------------------------------------------===//

namespace {

/// The records of \p Bytes, written to \p Path and read back in the format
/// the reader sniffs.
std::vector<TraceRecord> readBack(const std::string &Bytes,
                                  const std::string &Path) {
  std::ofstream(Path, std::ios::binary) << Bytes;
  std::string Err;
  std::unique_ptr<TraceReader> Reader = openTraceReader(Path, Err);
  EXPECT_NE(Reader, nullptr) << Err;
  std::vector<TraceRecord> Out;
  TraceRecord R;
  while (Reader && Reader->next(R))
    Out.push_back(R);
  EXPECT_TRUE(Reader && Reader->ok()) << (Reader ? Reader->error() : Err);
  return Out;
}

} // namespace

/// Every record every producer writes — the export of the golden run, in
/// full and projected, the attack sample stream and the attack's snapshot
/// rows, each behind its provenance header — matches a schema entry in
/// every format, with each arg declared by it, of its declared type and in
/// its declared order, and every entry is written by some producer. Written
/// back from its typed args through TraceSink::record(), each stream
/// reproduces its bytes: each writer call quotes its value as its type's
/// text does.
TEST(TraceSchema, WritersConformToTheTable) {
  const GoldenRun &G = goldenRun();
  const std::vector<std::string> Names = {"low", "high"};
  std::vector<Observation> Obs(3);
  Obs[0] = {0, 1200, {256}, 1.5};
  Obs[1] = {1, 4800, {256, 512}, 2};
  Obs[2] = {0, 900, {}, std::numeric_limits<double>::infinity()};
  const std::vector<std::function<void(TraceSink &)>> Producers = {
      [&](TraceSink &Sink) {
        Sink.header(provenanceArgs(4, G.Policies));
        exportTrace(Sink, G.R.T, lh(), G.options(false));
      },
      [&](TraceSink &Sink) {
        Sink.header(provenanceArgs(1));
        exportTrace(Sink, G.R.T, lh(), G.options(true));
      },
      [&](TraceSink &Sink) {
        auto Header = provenanceArgs(2);
        Header.insert(Header.end(), {{"attack_samples", "3"},
                                     {"attack_seed", "42"},
                                     {"attack_classes", "low,high"},
                                     {"adversary", "L"}});
        Sink.header(Header);
        ObservationExporter Exporter(Sink, Names);
        for (size_t I = 0; I != Obs.size(); ++I) {
          Exporter.write(Obs[I], I);
          Exporter.snapshot(I, Obs[I].EndToEnd);
        }
      }};
  std::set<TraceRecordType> Seen;
  for (TraceFormat F :
       {TraceFormat::Jsonl, TraceFormat::Chrome, TraceFormat::Ztb}) {
    for (size_t P = 0; P != Producers.size(); ++P) {
      SCOPED_TRACE(std::string(traceFormatName(F)) + " producer " +
                   std::to_string(P));
      const std::string Bytes = capture(F, Producers[P]);
      const std::vector<TraceRecord> Got =
          readBack(Bytes, testing::TempDir() + "/conform.trace");
      ASSERT_FALSE(Got.empty());
      ASSERT_EQ(Got[0].Type, TraceRecordType::Header);
      for (const TraceRecord &R : Got) {
        ASSERT_NE(R.Type, TraceRecordType::Unknown) << R.Name;
        Seen.insert(R.Type);
        const TraceRecordSpec &Spec =
            traceSchema()[static_cast<size_t>(R.Type)];
        EXPECT_EQ(R.Index.has_value(), Spec.Form == TraceNameForm::Index ||
                                           R.Name.ends_with("]"))
            << R.Name;
        size_t Declared = 0;
        for (const TraceArg &A : R.Args) {
          while (Declared != Spec.Args.size() &&
                 Spec.Args[Declared].Key != A.Key)
            ++Declared;
          ASSERT_NE(Declared, Spec.Args.size())
              << R.Name << " arg " << A.Key << " undeclared or out of order";
          EXPECT_EQ(A.Type, Spec.Args[Declared].Type)
              << R.Name << " arg " << A.Key << " = " << A.str();
        }
      }
      // The same records, written back.
      std::vector<std::pair<std::string, std::string>> Header;
      for (const TraceArg &A : Got[0].Args)
        Header.emplace_back(A.Key, A.str());
      EXPECT_TRUE(capture(F, [&](TraceSink &Sink) {
                    Sink.header(Header);
                    for (size_t I = 1; I != Got.size(); ++I)
                      Sink.record(Got[I]);
                  }) == Bytes);
    }
  }
  EXPECT_EQ(Seen.size(), traceSchema().size());
}

/// docs/OBSERVABILITY.md's record table lists exactly the schema's
/// entries: one row per entry, in its order, giving its kind, name,
/// category and args with their types.
TEST(TraceSchema, DocsTableListsTheSchema) {
  static constexpr const char *KindNames[] = {"instant", "span", "counter",
                                              "meta"};
  // In TraceArgType order.
  static constexpr const char *TypeNames[] = {"u64", "i64",  "f64",     "bool",
                                              "hex", "text", "u64 list"};
  std::vector<std::string> Want;
  for (const TraceRecordSpec &S : traceSchema()) {
    std::string Name = S.Name.empty() ? "(header)" : std::string(S.Name);
    if (S.Form == TraceNameForm::Index)
      Name += "N";
    else if (S.Form == TraceNameForm::Variable)
      Name += "VAR, " + std::string(S.Name) + "VAR[N]";
    std::string Args;
    for (const TraceArgSpec &A : S.Args)
      Args += (Args.empty() ? "" : ", ") + std::string(A.Key) + " " +
              TypeNames[static_cast<int>(A.Type)];
    Want.push_back("| " + std::string(KindNames[static_cast<int>(S.Kind)]) +
                   " | `" + Name + "` | " +
                   (S.Category.empty() ? "—" : "`" + std::string(S.Category) +
                                                   "`") +
                   " | " + Args + " |");
  }
  std::ifstream Doc(std::string(ZAM_DOCS_DIR) + "/OBSERVABILITY.md");
  ASSERT_TRUE(Doc) << "cannot read docs/OBSERVABILITY.md";
  std::vector<std::string> Got;
  bool InTable = false;
  for (std::string Line; std::getline(Doc, Line);) {
    if (Line == "<!-- record-schema-table -->") {
      InTable = true;
      continue;
    }
    if (InTable && Line.empty() && !Got.empty())
      break;
    if (InTable && Line.starts_with("| ") && !Line.starts_with("| Kind") &&
        !Line.starts_with("| ---"))
      Got.push_back(Line);
  }
  EXPECT_EQ(Got, Want);
}

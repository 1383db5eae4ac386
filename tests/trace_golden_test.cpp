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
// On a mismatch the actual bytes are written to <golden name>.actual in
// the test's working directory, for diffing against tests/golden/.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "obs/CostLedger.h"
#include "obs/LeakAudit.h"
#include "obs/Telemetry.h"
#include "obs/TraceSink.h"
#include "sem/FullInterpreter.h"
#include "types/LabelInference.h"

#include <fstream>
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

  std::string exportAs(TraceFormat Format, bool Projected) const {
    StringByteSink Bytes;
    std::unique_ptr<TraceSink> Sink = makeTraceSink(Format, Bytes);
    exportTrace(*Sink, R.T, lh(), options(Projected));
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

/// FNV-1a over \p Bytes.
uint64_t fnv1a(const std::string &Bytes) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

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

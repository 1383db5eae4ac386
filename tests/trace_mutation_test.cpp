//===- trace_mutation_test.cpp - Seeded byte mutations of trace inputs ----===//
//
// Feeds the three trace readers byte-mutated traces. The seeds are every
// file in tests/golden, as it stands and rewritten as ZTB, and a profile
// export of examples/programs/scan.zam in each format (22,704 records).
// Each mutation is a truncation, a run of byte flips, a splice of another
// seed's bytes or, for a ZTB seed, a preamble with a bad version, pair
// count or string length. Every input
// goes through the JSONL, Chrome and ZTB readers and through
// LeakAudit::replay on the format openTraceReader sniffs, and each must end
// in records or in error(): a crash or an out-of-bounds access fails the
// sanitizer build, a hang the ctest timeout, and a reader that yields more
// records than the input has bytes, or a peak RSS past 1 GiB, fails here.
//
// 150 mutations of each of the 24 golden seeds and 40 of each scan.zam
// seed make 3,720 inputs, read in about 1.5 s (5 s under ASan and
// UBSan) on a 4-vCPU Xeon; the ctest timeout is 120 s.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "obs/CostLedger.h"
#include "obs/LeakAudit.h"
#include "obs/Telemetry.h"
#include "obs/TraceReader.h"
#include "sem/FullInterpreter.h"
#include "types/LabelInference.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <sys/resource.h>

#include "gtest/gtest.h"

using namespace zam;

namespace {

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream S;
  S << In.rdbuf();
  return S.str();
}

/// splitmix64: a fixed stream of mutations.
struct Mutator {
  uint64_t State;
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  size_t below(size_t N) { return N ? next() % N : 0; }

  /// One mutation of \p Seed; \p Other is a splice's source.
  std::string mutate(std::string S, const std::string &Other) {
    switch (below(S.starts_with("ZTB1") ? 4 : 3)) {
    case 0: // Truncation.
      S.resize(below(S.size()));
      break;
    case 1: // Byte flips, in one place or all over.
      for (size_t N = 1 + below(8), At = below(S.size()); N-- && !S.empty();)
        S[below(2) ? (At + N) % S.size() : below(S.size())] =
            static_cast<char>(next());
      break;
    case 2: { // A splice: a run of another seed's bytes replaces a run.
      const size_t From = below(Other.size());
      const std::string Piece = Other.substr(From, below(4096));
      const size_t At = below(S.size());
      S.replace(At, below(S.size() - At), Piece);
      break;
    }
    default: // A bad preamble: the version, pair count or first length.
      S[4 + below(3)] = static_cast<char>(below(2) ? 0xFF : 0x80 | next());
      break;
    }
    return S;
  }
};

/// scan.zam's profile export, as `zamc profile --trace-out` writes it.
std::vector<std::string> scanExports() {
  Program P = test::parseOrDie(
      slurp(std::string(ZAM_EXAMPLES_DIR) + "/scan.zam"), test::lh());
  inferTimingLabels(P);
  CostLedger Ledger;
  InterpreterOptions Opts;
  Opts.Provenance = &Ledger;
  Opts.RecordMisses = true;
  auto Env = createMachineEnv(HwKind::Partitioned, test::lh());
  const RunResult R = runFull(P, *Env, nullptr, Opts);
  TraceExportOptions EOpts;
  EOpts.Ledger = &Ledger;
  std::vector<std::string> Out;
  for (TraceFormat F :
       {TraceFormat::Jsonl, TraceFormat::Chrome, TraceFormat::Ztb}) {
    auto Sink = makeTraceSink(F);
    Sink->header(provenanceArgs(1));
    exportTrace(*Sink, R.T, test::lh(), EOpts);
    Out.push_back(Sink->finish());
  }
  return Out;
}

/// The records of the trace at \p Path written again as ZTB: the goldens
/// are text, and the ZTB reader wants seeds of its own.
std::string asZtb(const std::string &Path) {
  std::string Err;
  std::unique_ptr<TraceReader> Reader = openTraceReader(Path, Err);
  EXPECT_NE(Reader, nullptr) << Err;
  auto Sink = makeTraceSink(TraceFormat::Ztb);
  TraceRecord R;
  while (Reader && Reader->next(R)) {
    if (R.Type != TraceRecordType::Header) {
      Sink->record(R);
      continue;
    }
    std::vector<std::pair<std::string, std::string>> Header;
    for (const TraceArg &A : R.Args)
      Header.emplace_back(A.Key, A.str());
    Sink->header(Header);
  }
  EXPECT_TRUE(Reader && Reader->ok());
  return Sink->finish();
}

/// Drains \p Reader: \returns the records, which must end in a clean end
/// of stream or an error and number at most one per input byte.
size_t drain(TraceReader &Reader, size_t Bytes) {
  TraceRecord R;
  size_t N = 0;
  while (Reader.next(R))
    if (++N > Bytes + 1) {
      ADD_FAILURE() << "a reader yields more records than bytes";
      break;
    }
  return N;
}

} // namespace

TEST(TraceMutation, EveryReaderEndsInRecordsOrAnError) {
  std::vector<std::string> Goldens;
  for (const auto &Entry :
       std::filesystem::directory_iterator(ZAM_TRACE_GOLDEN_DIR))
    Goldens.push_back(Entry.path().string());
  std::sort(Goldens.begin(), Goldens.end()); // A fixed mutation stream.
  std::vector<std::pair<std::string, size_t>> Seeds; // Bytes, mutations.
  for (const std::string &Golden : Goldens) {
    Seeds.emplace_back(slurp(Golden), 150);
    Seeds.emplace_back(asZtb(Golden), 150);
  }
  ASSERT_EQ(Seeds.size(), 24u);
  for (std::string &Export : scanExports())
    Seeds.emplace_back(std::move(Export), 40);

  const std::string Path = testing::TempDir() + "/mutated.trace";
  Mutator M{0x7AC3};
  size_t Inputs = 0, Errors = 0, Records = 0;
  for (const auto &[Seed, Count] : Seeds) {
    for (size_t I = 0; I != Count; ++I, ++Inputs) {
      const std::string Bytes =
          M.mutate(Seed, Seeds[M.below(Seeds.size())].first);
      std::ofstream(Path, std::ios::binary | std::ios::trunc) << Bytes;
      auto Open = [&](auto Tag) {
        using Reader = typename decltype(Tag)::type;
        return std::make_unique<Reader>(std::fopen(Path.c_str(), "rb"), true);
      };
      std::unique_ptr<TraceReader> Readers[] = {
          Open(std::type_identity<JsonlTraceReader>()),
          Open(std::type_identity<ChromeTraceReader>()),
          Open(std::type_identity<ZtbTraceReader>())};
      for (const std::unique_ptr<TraceReader> &R : Readers) {
        Records += drain(*R, Bytes.size());
        Errors += !R->ok();
      }
      std::string Err;
      std::unique_ptr<TraceReader> Sniffed = openTraceReader(Path, Err);
      ASSERT_NE(Sniffed, nullptr) << Err;
      LeakAudit Audit(test::lh());
      Audit.setRetainWindows(false);
      Audit.replay(*Sniffed, Err);
    }
  }
  std::printf("[          ] %zu inputs, %zu reads ended in an error, %zu "
              "records read\n",
              Inputs, Errors, Records);
  EXPECT_EQ(Inputs, 3720u);
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  EXPECT_LT(Usage.ru_maxrss, 1L << 20) << "peak RSS in KiB";
}

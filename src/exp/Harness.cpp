//===- Harness.cpp --------------------------------------------------------===//

#include "exp/Harness.h"

#include "exp/ParallelRunner.h"
#include "obs/Telemetry.h"

#include <cinttypes>
#include <cstdio>
#include <string>
#include <string_view>

using namespace zam;

namespace {
/// Each shared flag, the bit a bench honours it by, and its usage text.
struct HarnessFlagInfo {
  const char *Name;
  HarnessFlag Bit;
  const char *Usage;
};
constexpr HarnessFlagInfo kHarnessFlags[] = {
    {"--threads", TakesThreads, "[--threads N]"},
    {"--json", TakesJson, "[--json FILE]"},
    {"--trace-out", TakesTrace, "[--trace-out FILE]"},
    {"--trace-format", TakesTrace, "[--trace-format jsonl|chrome|ztb]"},
    {"--seed", TakesSeed, "[--seed S]"},
    {"--samples", TakesSamples, "[--samples N]"},
    {"--progress", TakesProgress, "[--progress]"},
};
} // namespace

HarnessOptions zam::parseHarnessArgs(int Argc, char **Argv, unsigned Takes) {
  HarnessOptions Opts;
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    const HarnessFlagInfo *Flag = nullptr;
    for (const HarnessFlagInfo &F : kHarnessFlags)
      if (std::string_view(Arg) == F.Name)
        Flag = &F;
    if (Flag && !(Takes & Flag->Bit))
      std::fprintf(stderr, "error: this bench does not take '%s'; ", Arg);
    else if (parseSharedFlag(Argc, Argv, I, Opts) == FlagParse::Parsed)
      continue;
    else
      std::fprintf(stderr, "unknown or malformed argument '%s'; ", Arg);
    std::string Expected;
    for (const HarnessFlagInfo &F : kHarnessFlags)
      if (Takes & F.Bit)
        Expected.append(Expected.empty() ? "" : " ").append(F.Usage);
    std::fprintf(stderr, "expected %s\n",
                 Expected.empty() ? "no arguments" : Expected.c_str());
    Opts.Ok = false;
    return Opts;
  }
  Opts.Ok = resolveTraceFormat(Opts);
  return Opts;
}

bool zam::emitReportJson(const Report &R, const HarnessOptions &Opts) {
  if (Opts.JsonPath.empty())
    return true;
  JsonValue Doc = R.toJson();
  Doc["meta"] = provenanceJson(resolveThreadCount(Opts.Threads));
  if (!writeFile(Opts.JsonPath, Doc.dump()))
    return false;
  std::printf("\nJSON report written to %s\n", Opts.JsonPath.c_str());
  return true;
}

bool zam::emitBenchTrace(const Trace &T, const SecurityLattice &Lat,
                         const HarnessOptions &Opts) {
  return Opts.TraceOutPath.empty() ||
         writeTraceFile(Opts, PolicySelection(), {}, [&](TraceSink &Sink) {
           return exportTrace(Sink, T, Lat);
         });
}

ProgressMeter::ProgressMeter(const char *What, uint64_t Total, bool Enabled)
    : What(What), Total(Total), Enabled(Enabled),
      Start(std::chrono::steady_clock::now()), Last(Start) {}

ProgressMeter::~ProgressMeter() { finish(); }

void ProgressMeter::finish() {
  if (!Enabled)
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  if (!Painted || NewlineEmitted)
    return;
  std::fprintf(stderr, "\n");
  std::fflush(stderr);
  NewlineEmitted = true;
}

void ProgressMeter::tick() {
  const uint64_t Done = Count.fetch_add(1, std::memory_order_relaxed) + 1;
  if (Enabled)
    paint(Done);
}

void ProgressMeter::update(uint64_t Done) {
  Count.store(Done, std::memory_order_relaxed);
  if (Enabled)
    paint(Done);
}

void ProgressMeter::paint(uint64_t Done) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (NewlineEmitted) // Already completed; nothing left to repaint.
    return;
  // Total == 0 is indeterminate, not "100% done": it never completes on
  // its own (finish()/the destructor close the line) and must not divide
  // by the total.
  const bool Complete = Total != 0 && Done >= Total;
  const auto Now = std::chrono::steady_clock::now();
  if (!Complete && Now - Last < std::chrono::milliseconds(100))
    return;
  Last = Now;
  if (Total == 0) {
    std::fprintf(stderr, "\r%s: %" PRIu64 "/?", What, Done);
  } else {
    const double Sec = std::chrono::duration<double>(Now - Start).count();
    char Eta[48] = "";
    if (Done > 0 && Done < Total && Sec > 0.5)
      std::snprintf(Eta, sizeof(Eta), " eta %.0fs",
                    Sec * static_cast<double>(Total - Done) /
                        static_cast<double>(Done));
    std::fprintf(stderr, "\r%s: %" PRIu64 "/%" PRIu64 " (%d%%)%s%s", What,
                 Done, Total, static_cast<int>(100 * Done / Total), Eta,
                 Complete ? "\n" : "");
  }
  Painted = true;
  NewlineEmitted = Complete;
  std::fflush(stderr);
}

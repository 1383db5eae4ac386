//===- Harness.cpp --------------------------------------------------------===//

#include "exp/Harness.h"

#include "exp/ParallelRunner.h"
#include "obs/Telemetry.h"
#include "support/ParseInt.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace zam;

HarnessOptions zam::parseHarnessArgs(int Argc, char **Argv) {
  HarnessOptions Opts;
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--threads") && I + 1 < Argc) {
      if (!parseInteger(Argv[++I], Opts.Threads) || Opts.Threads > 1024) {
        Opts.Ok = false;
        return Opts;
      }
    } else if (!std::strcmp(Argv[I], "--json") && I + 1 < Argc) {
      Opts.JsonPath = Argv[++I];
    } else if (!std::strcmp(Argv[I], "--trace-out") && I + 1 < Argc) {
      Opts.TraceOutPath = Argv[++I];
    } else if (!std::strcmp(Argv[I], "--seed") && I + 1 < Argc) {
      if (!parseInteger(Argv[++I], Opts.Seed)) {
        Opts.Ok = false;
        return Opts;
      }
    } else if (!std::strcmp(Argv[I], "--samples") && I + 1 < Argc) {
      if (!parseInteger(Argv[++I], Opts.Samples) || Opts.Samples < 1 ||
          Opts.Samples > 10000000) {
        Opts.Ok = false;
        return Opts;
      }
    } else if (!std::strcmp(Argv[I], "--progress")) {
      Opts.Progress = true;
    } else if (!std::strcmp(Argv[I], "--trace-format") && I + 1 < Argc) {
      Opts.TraceFormatName = Argv[++I];
      if (!parseTraceFormat(Opts.TraceFormatName)) {
        std::fprintf(stderr, "unknown trace format '%s'; expected "
                             "jsonl, chrome or ztb\n",
                     Opts.TraceFormatName.c_str());
        Opts.Ok = false;
        return Opts;
      }
    } else {
      std::fprintf(stderr,
                   "unknown argument '%s'; expected [--threads N] "
                   "[--json FILE] [--trace-out FILE] "
                   "[--trace-format jsonl|chrome|ztb] [--seed S] "
                   "[--samples N] [--progress]\n",
                   Argv[I]);
      Opts.Ok = false;
      return Opts;
    }
  }
  return Opts;
}

std::optional<TraceFormat>
zam::resolveBenchTraceFormat(const HarnessOptions &Opts) {
  if (!Opts.TraceFormatName.empty())
    return parseTraceFormat(Opts.TraceFormatName);
  std::optional<TraceFormat> F = inferTraceFormat(Opts.TraceOutPath);
  if (!F)
    std::fprintf(stderr,
                 "error: cannot infer a trace format from '%s' (expected a "
                 ".jsonl, .json or .ztb extension); pass --trace-format\n",
                 Opts.TraceOutPath.c_str());
  return F;
}

bool zam::emitReportJson(const Report &R, const HarnessOptions &Opts) {
  if (Opts.JsonPath.empty())
    return true;
  JsonValue Doc = R.toJson();
  Doc["meta"] = provenanceJson(resolveThreadCount(Opts.Threads));
  std::FILE *F = std::fopen(Opts.JsonPath.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "error: cannot write JSON report to '%s'\n",
                 Opts.JsonPath.c_str());
    return false;
  }
  std::string Text = Doc.dump();
  bool Ok = std::fwrite(Text.data(), 1, Text.size(), F) == Text.size();
  Ok &= std::fclose(F) == 0;
  if (!Ok) {
    std::fprintf(stderr, "error: cannot write JSON report to '%s'\n",
                 Opts.JsonPath.c_str());
    return false;
  }
  std::printf("\nJSON report written to %s\n", Opts.JsonPath.c_str());
  return true;
}

bool zam::emitBenchTrace(const Trace &T, const SecurityLattice &Lat,
                         const HarnessOptions &Opts) {
  if (Opts.TraceOutPath.empty())
    return true;
  std::optional<TraceFormat> Format = resolveBenchTraceFormat(Opts);
  if (!Format)
    return false;
  // Stream straight to disk: the trace is never buffered whole.
  std::FILE *F = std::fopen(Opts.TraceOutPath.c_str(), "wb");
  if (!F) {
    std::fprintf(stderr, "error: cannot write trace to '%s'\n",
                 Opts.TraceOutPath.c_str());
    return false;
  }
  FileByteSink Bytes(F);
  std::unique_ptr<TraceSink> Sink = makeTraceSink(*Format, Bytes);
  Sink->header(provenanceArgs(resolveThreadCount(Opts.Threads)));
  size_t Count = exportTrace(*Sink, T, Lat);
  Sink->close();
  bool Ok = Sink->ok();
  Ok &= std::fclose(F) == 0;
  if (!Ok) {
    std::fprintf(stderr, "error: cannot write trace to '%s'\n",
                 Opts.TraceOutPath.c_str());
    return false;
  }
  std::printf("wrote %zu trace records to %s\n", Count,
              Opts.TraceOutPath.c_str());
  return true;
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

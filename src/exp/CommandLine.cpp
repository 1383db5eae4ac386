//===- CommandLine.cpp ----------------------------------------------------===//

#include "exp/CommandLine.h"

#include "exp/ParallelRunner.h"
#include "obs/Telemetry.h"
#include "support/ParseInt.h"

#include <cstdio>

using namespace zam;

FlagParse zam::parseSharedFlag(int Argc, char **Argv, int &I,
                               SharedFlags &Out) {
  const std::string_view Arg = Argv[I];
  if (Arg == "--progress") {
    Out.Progress = true;
    return FlagParse::Parsed;
  }
  if (Arg != "--threads" && Arg != "--seed" && Arg != "--samples" &&
      Arg != "--json" && Arg != "--trace-out" && Arg != "--trace-format")
    return FlagParse::NotShared;
  if (I + 1 == Argc)
    return FlagParse::Malformed;
  const char *V = Argv[++I];
  if (Arg == "--threads") {
    unsigned N = 0;
    if (!parseInteger(V, N) || N > 1024)
      return FlagParse::Malformed;
    Out.Threads = N;
  } else if (Arg == "--seed") {
    uint64_t S = 0;
    if (!parseInteger(V, S))
      return FlagParse::Malformed;
    Out.Seed = S;
  } else if (Arg == "--samples") {
    unsigned N = 0;
    if (!parseInteger(V, N) || N == 0 || N > 10000000)
      return FlagParse::Malformed;
    Out.Samples = N;
  } else if (Arg == "--json") {
    Out.JsonPath = V;
  } else if (Arg == "--trace-out") {
    Out.TraceOutPath = V;
  } else {
    Out.TraceFmt = parseTraceFormat(V);
    if (!Out.TraceFmt) {
      std::fprintf(stderr,
                   "unknown trace format '%s'; expected jsonl, chrome or ztb\n",
                   V);
      return FlagParse::Malformed;
    }
  }
  return FlagParse::Parsed;
}

bool zam::resolveTraceFormat(SharedFlags &Flags) {
  if (Flags.TraceOutPath.empty() || Flags.TraceFmt)
    return true;
  Flags.TraceFmt = inferTraceFormat(Flags.TraceOutPath);
  if (!Flags.TraceFmt)
    std::fprintf(stderr,
                 "error: cannot infer a trace format from '%s' (expected a "
                 ".jsonl, .json or .ztb extension); pass --trace-format\n",
                 Flags.TraceOutPath.c_str());
  return Flags.TraceFmt.has_value();
}

std::optional<std::string> zam::readFile(const std::string &Path) {
  if (std::FILE *F = std::fopen(Path.c_str(), "rb")) {
    std::string Text;
    char Buf[1 << 16];
    while (size_t N = std::fread(Buf, 1, sizeof(Buf), F))
      Text.append(Buf, N);
    const bool Ok = !std::ferror(F);
    std::fclose(F);
    if (Ok)
      return Text;
  }
  std::fprintf(stderr, "error: cannot read '%s'\n", Path.c_str());
  return std::nullopt;
}

namespace {

std::FILE *openForWrite(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    std::fprintf(stderr, "error: cannot write '%s'\n", Path.c_str());
  return F;
}

/// Closes \p F, whose writes succeeded when \p Ok. \returns whether they
/// and the close did, after naming a failure.
bool closeWritten(std::FILE *F, bool Ok, const std::string &Path) {
  Ok &= std::fclose(F) == 0;
  if (!Ok)
    std::fprintf(stderr, "error: short write to '%s'\n", Path.c_str());
  return Ok;
}

} // namespace

bool zam::writeFile(const std::string &Path, std::string_view Text) {
  std::FILE *F = openForWrite(Path);
  return F && closeWritten(F,
                           std::fwrite(Text.data(), 1, Text.size(), F) ==
                               Text.size(),
                           Path);
}

bool zam::writeTraceFile(const SharedFlags &Flags,
                         const PolicySelection &Mitigation,
                         const TraceHeader &Extra,
                         const std::function<size_t(TraceSink &)> &Produce) {
  std::FILE *F = openForWrite(Flags.TraceOutPath);
  if (!F)
    return false;
  FileByteSink Bytes(F);
  std::unique_ptr<TraceSink> Sink = makeTraceSink(*Flags.TraceFmt, Bytes);
  TraceHeader Header =
      provenanceArgs(resolveThreadCount(Flags.Threads), Mitigation);
  Header.insert(Header.end(), Extra.begin(), Extra.end());
  Sink->header(Header);
  const size_t Records = Produce(*Sink);
  Sink->close();
  if (!closeWritten(F, Sink->ok(), Flags.TraceOutPath))
    return false;
  std::fprintf(stderr, "wrote %zu trace records to %s\n", Records,
               Flags.TraceOutPath.c_str());
  return true;
}

//===- zamc.cpp - Command-line driver for the zam language -------------------===//
//
// Usage:
//   zamc check  <file.zam> [options]   parse, infer labels, type-check
//   zamc print  <file.zam> [options]   pretty-print with inferred labels
//   zamc ir     <file.zam> [options]   lower to the flat timing-IR and dump
//                                      it (slots, code addresses, labels,
//                                      branch targets) — what the execution
//                                      core actually runs
//   zamc run    <file.zam> [options]   execute on simulated hardware
//   zamc trace  <file.zam> [options]   execute and print the event timeline
//   zamc leakage <file.zam> --vary var=v1,v2,... [options]
//                                      measure Q/V over secret variations
//   zamc audit  <file.zam> [options]   fuzz the selected hardware design
//                                      against Properties 5-7 using the
//                                      program's declarations
//   zamc profile <file.zam> [options]  execute with the source profiler:
//                                      annotate every line with the cycles,
//                                      misses, padding and leakage bits
//                                      charged to it, and each mitigate
//                                      site with its window sub-account
//   zamc hot    <file.zam> [options]   execute with the engine self-profiler
//                                      (the execution observatory): dump the
//                                      IR annotated with exact per-pc
//                                      dispatch counts, rank the hottest pcs
//                                      and opcode digrams, report per-branch
//                                      taken/not-taken splits and per-site
//                                      settle-epoch histograms; --folded
//                                      writes a collapsed-stack file for
//                                      flamegraph.pl / speedscope
//   zamc attack <file.zam> --class NAME:var=V|var=LO..HI[,...] ... [options]
//                                      run the empirical adversary: sample
//                                      secrets from two or more named
//                                      classes, measure the adversary-
//                                      visible timings over --samples seeded
//                                      runs, and report Welch's t / Cohen's
//                                      d / mutual information next to the
//                                      analytic Sec. 6 bound (adv.* metrics)
//   zamc policies                      list the registered mitigation
//                                      policies with their parameter syntax
//
// Options:
//   --levels L,M,H        use a total-order lattice with these level names
//                         (default: L,H)
//   --hw KIND             nopar | nofill | partitioned (default: partitioned)
//   --set var=value       override a variable's initial value (repeatable)
//   --adversary LEVEL     adversary level for `leakage` and for projecting
//                         exported traces (default: bottom / unprojected)
//   --mitigation SPEC     prediction schedule for every mitigate window:
//                         fast-doubling | linear | bucketed[:q=N] |
//                         seeded:est=N (default: fast-doubling, the paper's)
//   --mitigate-site E=SPEC  override the policy of mitigate site η=E only
//                         (repeatable; other sites keep --mitigation)
//   --recommend           with `profile`: suggest a per-site estimate and
//                         schedule from the observed body-time distribution
//   --top N               with `hot`: how many hot pcs and digrams to rank
//                         (default 10)
//   --folded FILE         with `hot`: write collapsed stacks (one
//                         "program;line L;op count" line per source-line/
//                         opcode pair) for flamegraph.pl or speedscope
//   --no-equal-labels     drop the commodity er=ew side condition
//   --threads N           worker threads for leakage/audit/attack fan-out
//                         (0 = auto via ZAM_THREADS / hardware)
//   --seed S              base Rng seed for the sampled commands (attack,
//                         audit); results are a pure function of the seed,
//                         independent of --threads/ZAM_THREADS
//   --samples N           attack: total sampled executions, spread
//                         round-robin over the classes (default 256)
//   --json FILE           also write the result as machine-readable JSON
//   --stats[=FILE]        print run counters and phase timings; with =FILE,
//                         write them as JSON instead
//   --trace-out FILE      export the run's timeline to FILE (for leakage:
//                         the first secret variation; for audit: one plain
//                         run of the program body); the format is inferred
//                         from the extension (.jsonl | .json → chrome |
//                         .ztb → compact binary) unless --trace-format
//                         overrides; any other extension is an error
//   --trace-format FMT    jsonl | chrome | ztb (default: infer from the
//                         --trace-out extension)
//   --progress            attack: stderr-only progress counter with ETA;
//                         never touches stdout, --json or trace bytes
//   --snapshot-every N    emit a metrics-snapshot meta row into the trace
//                         every N counted windows (attack: every N
//                         samples); 0 = off (the default, byte-stable)
//   --no-color            disable ANSI highlighting in `profile` output
//                         (also auto-disabled when stdout is not a tty,
//                         NO_COLOR is set, or TERM=dumb)
//   --version             print tool version and build provenance
//
// Stats files and exported traces carry a provenance block (git hash,
// compiler, build type, thread count); runs with telemetry also maintain
// the online leakage accountant, so --stats includes the leak.* namespace
// and traces include per-window leak_budget spans. A non-default
// --mitigation/--mitigate-site selection is recorded in that provenance
// ("mitigation", "mitigation_sites"), so tools/zamtrace prices the same
// schedules offline; the default selection adds no keys and default
// artifacts stay byte-identical.
//
//===----------------------------------------------------------------------===//

#include "adv/Adversary.h"
#include "analysis/Leakage.h"
#include "analysis/PropertyCheckers.h"
#include "analysis/RandomProgram.h"
#include "exp/Harness.h"
#include "exp/ParallelRunner.h"
#include "ir/IrPrinter.h"
#include "ir/Lowering.h"
#include "obs/CostLedger.h"
#include "obs/ExecProfile.h"
#include "obs/Histogram.h"
#include "obs/Json.h"
#include "obs/LeakAudit.h"
#include "obs/Metrics.h"
#include "obs/Phase.h"
#include "obs/Telemetry.h"
#include "support/BuildInfo.h"
#include "support/ParseInt.h"
#include "hw/HardwareModels.h"
#include "lang/Parser.h"
#include "lang/PrettyPrinter.h"
#include "sem/CompiledProgram.h"
#include "sem/FullInterpreter.h"
#include "sem/TraceDump.h"
#include "types/LabelInference.h"
#include "types/TypeChecker.h"

#include <cinttypes>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <algorithm>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(_WIN32)
#include <io.h>
#define ZAM_ISATTY_STDOUT() _isatty(_fileno(stdout))
#else
#include <unistd.h>
#define ZAM_ISATTY_STDOUT() isatty(fileno(stdout))
#endif

using namespace zam;

namespace {

struct Options {
  std::string Command;
  std::string File;
  std::vector<std::string> Levels = {"L", "H"};
  HwKind Hw = HwKind::Partitioned;
  bool EqualLabels = true;
  std::string Adversary;
  std::vector<std::pair<std::string, int64_t>> Overrides;
  std::vector<std::pair<std::string, std::vector<int64_t>>> Variations;
  unsigned Threads = 0; ///< 0: resolve from ZAM_THREADS / hardware.
  std::string JsonPath;
  bool Stats = false;
  std::string StatsPath;    ///< Empty: render --stats to stdout.
  std::string TraceOutPath; ///< Empty: no trace export.
  TraceFormat TraceFmt = TraceFormat::Jsonl;
  bool TraceFmtSet = false; ///< --trace-format given (beats inference).
  bool Progress = false;    ///< Stderr-only progress meter (attack).
  uint64_t SnapshotEvery = 0; ///< Snapshot meta-row period; 0 = off.
  bool NoColor = false;  ///< Force plain output regardless of the tty.
  bool Recommend = false; ///< `profile`: emit per-site policy suggestions.
  unsigned TopK = 10;     ///< `hot`: ranking depth for pcs and digrams.
  std::string FoldedPath; ///< `hot`: collapsed-stack output (empty: none).
  uint64_t Seed = 0;      ///< --seed: base Rng seed for sampled commands.
  bool SeedSet = false;   ///< Whether --seed was given explicitly.
  unsigned Samples = 256; ///< `attack`: total sampled executions.
  std::vector<std::string> ClassSpecs; ///< `attack`: raw --class specs.
  /// The run's mitigation-policy selection (--mitigation/--mitigate-site).
  /// Parsed policies are owned here; Mitigation borrows them, so this
  /// Options object must outlive every interpreter it configures.
  std::vector<MitigationPolicyPtr> OwnedPolicies;
  PolicySelection Mitigation;
  std::string BadArg; ///< The offending argument when parsing failed.
};

/// Whether `profile` may colorize: an interactive stdout, no --no-color,
/// no NO_COLOR in the environment, and a terminal that is not dumb.
bool wantColor(const Options &Opts) {
  if (Opts.NoColor || !ZAM_ISATTY_STDOUT() || std::getenv("NO_COLOR"))
    return false;
  const char *Term = std::getenv("TERM");
  return !Term || std::strcmp(Term, "dumb") != 0;
}

/// Wall-clock phase breakdown (--stats): load/parse/infer/typecheck/run.
PhaseProfiler Phases;

int usage(const std::string &BadArg = "") {
  if (!BadArg.empty())
    std::fprintf(stderr, "error: unknown or malformed argument '%s'\n",
                 BadArg.c_str());
  std::fprintf(
      stderr,
      "usage: zamc "
      "<check|print|ir|run|trace|profile|hot|leakage|audit|attack> "
      "<file.zam>\n"
      "  [--levels L,M,H] [--hw nopar|nofill|partitioned]\n"
      "  [--set var=value]... [--vary var=v1,v2,...]\n"
      "  [--adversary LEVEL] [--no-equal-labels]\n"
      "  [--mitigation SPEC] [--mitigate-site ETA=SPEC]...\n"
      "  [--recommend] [--top N] [--folded FILE]\n"
      "  [--threads N] [--seed S] [--json FILE]\n"
      "  [--stats[=FILE]] [--trace-out FILE]\n"
      "  [--trace-format jsonl|chrome|ztb] [--progress]\n"
      "  [--snapshot-every N] [--no-color]\n"
      "  attack only: --class NAME:var=V|var=LO..HI[,...] (two or more)\n"
      "               [--samples N]\n"
      "   zamc policies   (list mitigation policies and parameter syntax)\n"
      "   zamc --version\n");
  return 2;
}

/// Parses --adversary into a lattice level. Sets \p Err (with a message)
/// when the name does not resolve; nullopt without error means no
/// adversary was requested.
std::optional<Label> adversaryLabel(const Options &Opts,
                                    const SecurityLattice &Lat, bool &Err) {
  Err = false;
  if (Opts.Adversary.empty())
    return std::nullopt;
  std::optional<Label> L = Lat.byName(Opts.Adversary);
  if (!L) {
    std::fprintf(stderr, "error: unknown level '%s'\n",
                 Opts.Adversary.c_str());
    Err = true;
  }
  return L;
}

/// Writes \p Doc to \p Path when requested; true on success (or no-op).
bool writeJsonIfRequested(const Options &Opts, const JsonValue &Doc) {
  if (Opts.JsonPath.empty())
    return true;
  std::FILE *F = std::fopen(Opts.JsonPath.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "error: cannot write '%s'\n", Opts.JsonPath.c_str());
    return false;
  }
  std::string Text = Doc.dump();
  bool Ok = std::fwrite(Text.data(), 1, Text.size(), F) == Text.size();
  Ok &= std::fclose(F) == 0;
  if (!Ok)
    std::fprintf(stderr, "error: short write to '%s'\n",
                 Opts.JsonPath.c_str());
  return Ok;
}

std::vector<std::string> splitCommas(const std::string &S) {
  std::vector<std::string> Out;
  std::stringstream Ss(S);
  std::string Item;
  while (std::getline(Ss, Item, ','))
    Out.push_back(Item);
  return Out;
}

bool parseArgs(int Argc, char **Argv, Options &Opts) {
  if (Argc < 3)
    return false;
  Opts.Command = Argv[1];
  Opts.File = Argv[2];
  for (int I = 3; I < Argc; ++I) {
    std::string Arg = Argv[I];
    // Any early return below blames the argument under inspection.
    Opts.BadArg = Arg;
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    if (Arg == "--levels") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.Levels = splitCommas(V);
      if (*V && V[std::strlen(V) - 1] == ',')
        Opts.Levels.emplace_back(); // The empty name getline drops.
      const auto &Ls = Opts.Levels;
      std::string Why = *V ? "" : "names no level";
      if (Ls.size() > kMaxLatticeLevels)
        Why = "names " + std::to_string(Ls.size()) +
              " levels; a machine environment holds at most " +
              std::to_string(kMaxLatticeLevels) + " (kMaxLatticeLevels)";
      for (auto It = Ls.begin(); Why.empty() && It != Ls.end(); ++It)
        if (It->empty())
          Why = "has an empty level name";
        else if (std::find(Ls.begin(), It, *It) != It)
          Why = "names '" + *It + "' twice";
      if (!Why.empty()) {
        std::fprintf(stderr, "error: --levels %s\n", Why.c_str());
        return false;
      }
    } else if (Arg == "--hw") {
      const char *V = Next();
      if (!V)
        return false;
      if (!std::strcmp(V, "nopar"))
        Opts.Hw = HwKind::NoPartition;
      else if (!std::strcmp(V, "nofill"))
        Opts.Hw = HwKind::NoFill;
      else if (!std::strcmp(V, "partitioned"))
        Opts.Hw = HwKind::Partitioned;
      else
        return false;
    } else if (Arg == "--set" || Arg == "--vary") {
      const char *V = Next();
      if (!V)
        return false;
      std::string Assign = V;
      size_t Eq = Assign.find('=');
      if (Eq == std::string::npos)
        return false;
      std::string Var = Assign.substr(0, Eq);
      if (Arg == "--set") {
        int64_t Value = 0;
        if (!parseInteger(std::string_view(Assign).substr(Eq + 1), Value))
          return false;
        Opts.Overrides.emplace_back(Var, Value);
      } else {
        std::vector<int64_t> Values;
        for (const std::string &Piece : splitCommas(Assign.substr(Eq + 1)))
          if (!parseInteger(Piece, Values.emplace_back()))
            return false;
        Opts.Variations.emplace_back(Var, std::move(Values));
      }
    } else if (Arg == "--adversary") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.Adversary = V;
    } else if (Arg == "--no-equal-labels") {
      Opts.EqualLabels = false;
    } else if (Arg == "--threads") {
      const char *V = Next();
      if (!V)
        return false;
      unsigned N = 0;
      if (!parseInteger(V, N) || N > 1024)
        return false;
      Opts.Threads = N;
    } else if (Arg == "--json") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.JsonPath = V;
    } else if (Arg == "--stats" || Arg.rfind("--stats=", 0) == 0) {
      Opts.Stats = true;
      if (Arg.size() > std::strlen("--stats")) {
        Opts.StatsPath = Arg.substr(std::strlen("--stats="));
        if (Opts.StatsPath.empty())
          return false;
      }
    } else if (Arg == "--trace-out") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.TraceOutPath = V;
    } else if (Arg == "--no-color") {
      Opts.NoColor = true;
    } else if (Arg == "--recommend") {
      Opts.Recommend = true;
    } else if (Arg == "--top") {
      const char *V = Next();
      if (!V)
        return false;
      unsigned N = 0;
      if (!parseInteger(V, N) || N == 0 || N > 10000)
        return false;
      Opts.TopK = N;
    } else if (Arg == "--folded") {
      const char *V = Next();
      if (!V || !*V)
        return false;
      Opts.FoldedPath = V;
    } else if (Arg == "--mitigation" || Arg.rfind("--mitigation=", 0) == 0) {
      const char *V = Arg == "--mitigation"
                          ? Next()
                          : Arg.c_str() + std::strlen("--mitigation=");
      if (!V || !*V)
        return false;
      std::string Err;
      MitigationPolicyPtr P = parseMitigationPolicy(V, &Err);
      if (!P) {
        std::fprintf(stderr, "error: %s\n", Err.c_str());
        return false;
      }
      Opts.Mitigation.Default = P.get();
      Opts.OwnedPolicies.push_back(std::move(P));
    } else if (Arg == "--mitigate-site") {
      const char *V = Next();
      if (!V)
        return false;
      std::string Assign = V;
      size_t Eq = Assign.find('=');
      if (Eq == std::string::npos || Eq == 0)
        return false;
      unsigned Eta = 0;
      if (!parseInteger(std::string_view(Assign).substr(0, Eq), Eta))
        return false;
      std::string Err;
      MitigationPolicyPtr P = parseMitigationPolicy(Assign.substr(Eq + 1),
                                                    &Err);
      if (!P) {
        std::fprintf(stderr, "error: %s\n", Err.c_str());
        return false;
      }
      Opts.Mitigation.overrideSite(Eta, *P);
      Opts.OwnedPolicies.push_back(std::move(P));
    } else if (Arg == "--seed") {
      const char *V = Next();
      if (!V || !parseInteger(V, Opts.Seed))
        return false;
      Opts.SeedSet = true;
    } else if (Arg == "--samples") {
      const char *V = Next();
      if (!V)
        return false;
      unsigned N = 0;
      if (!parseInteger(V, N) || N == 0 || N > 10000000)
        return false;
      Opts.Samples = N;
    } else if (Arg == "--class") {
      const char *V = Next();
      if (!V || !*V)
        return false;
      Opts.ClassSpecs.emplace_back(V);
    } else if (Arg == "--trace-format") {
      const char *V = Next();
      if (!V)
        return false;
      std::optional<TraceFormat> F = parseTraceFormat(V);
      if (!F)
        return false;
      Opts.TraceFmt = *F;
      Opts.TraceFmtSet = true;
    } else if (Arg == "--progress") {
      Opts.Progress = true;
    } else if (Arg == "--snapshot-every") {
      const char *V = Next();
      if (!V || !*V)
        return false;
      if (!parseInteger(V, Opts.SnapshotEvery))
        return false;
    } else {
      return false;
    }
  }
  Opts.BadArg.clear();
  return true;
}

/// Collects the per-run counters when --stats or --trace-out asked for them.
bool wantsTelemetry(const Options &Opts) {
  return Opts.Stats || !Opts.TraceOutPath.empty();
}

/// Resolves the export format for --trace-out: an explicit --trace-format
/// wins; otherwise the path's extension decides (.jsonl → jsonl, .json →
/// chrome, .ztb → binary). Any other extension is an error — a silent
/// default would write bytes the reader then misclassifies.
bool resolveTraceFormat(Options &Opts) {
  if (Opts.TraceOutPath.empty() || Opts.TraceFmtSet)
    return true;
  std::optional<TraceFormat> F = inferTraceFormat(Opts.TraceOutPath);
  if (!F) {
    std::fprintf(stderr,
                 "error: cannot infer a trace format from '%s' (expected a "
                 ".jsonl, .json or .ztb extension); pass --trace-format\n",
                 Opts.TraceOutPath.c_str());
    return false;
  }
  Opts.TraceFmt = *F;
  return true;
}


/// Emits what --stats asked for: rendered counter/phase tables on stdout,
/// or a {"metrics": ..., "phases": ...} JSON file.
bool emitStatsIfRequested(const Options &Opts, const MetricsRegistry &Reg) {
  if (!Opts.Stats)
    return true;
  if (Opts.StatsPath.empty()) {
    std::printf("-- run counters --\n%s", Reg.render().c_str());
    std::printf("-- phases (wall clock) --\n%s", Phases.render().c_str());
    return true;
  }
  JsonValue Doc = JsonValue::object();
  Doc["meta"] =
      provenanceJson(resolveThreadCount(Opts.Threads), Opts.Mitigation);
  Doc["metrics"] = Reg.toJson();
  Doc["phases"] = Phases.toJson();
  std::FILE *F = std::fopen(Opts.StatsPath.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "error: cannot write '%s'\n", Opts.StatsPath.c_str());
    return false;
  }
  std::string Text = Doc.dump();
  bool Ok = std::fwrite(Text.data(), 1, Text.size(), F) == Text.size();
  Ok &= std::fclose(F) == 0;
  return Ok;
}

/// Exports \p T to --trace-out in the selected format, projected to
/// --adversary when one was named. \p Ledger (may be null) embeds the
/// source profile as prof_line#/prof_site# records.
bool emitTraceIfRequested(const Options &Opts, const Trace &T,
                          const SecurityLattice &Lat,
                          const CostLedger *Ledger = nullptr) {
  if (Opts.TraceOutPath.empty())
    return true;
  TraceExportOptions EOpts;
  bool AdvErr = false;
  EOpts.Adversary = adversaryLabel(Opts, Lat, AdvErr);
  if (AdvErr)
    return false;
  EOpts.Ledger = Ledger;
  EOpts.Mitigation = Opts.Mitigation;
  EOpts.SnapshotEveryWindows = Opts.SnapshotEvery;
  // Stream to disk: records leave the process in 64 KiB chunks as they
  // serialize, so exporting a million-window trace holds one chunk plus a
  // few 16-byte keys per mitigate window in memory.
  std::FILE *F = std::fopen(Opts.TraceOutPath.c_str(), "wb");
  if (!F) {
    std::fprintf(stderr, "error: cannot write '%s'\n",
                 Opts.TraceOutPath.c_str());
    return false;
  }
  FileByteSink Bytes(F);
  std::unique_ptr<TraceSink> Sink = makeTraceSink(Opts.TraceFmt, Bytes);
  Sink->header(
      provenanceArgs(resolveThreadCount(Opts.Threads), Opts.Mitigation));
  size_t Emitted = exportTrace(*Sink, T, Lat, EOpts);
  Sink->close();
  bool Ok = Sink->ok();
  Ok &= std::fclose(F) == 0;
  if (Ok)
    std::fprintf(stderr, "wrote %zu trace records to %s\n", Emitted,
                 Opts.TraceOutPath.c_str());
  else
    std::fprintf(stderr, "error: short write to '%s'\n",
                 Opts.TraceOutPath.c_str());
  return Ok;
}

/// Reports a run that a safety net stopped before it finished, naming the
/// limit (sem/Limits.h). \returns true when one did; the command then
/// exits 1 without reporting the unfinished run as a result.
bool reportLimitStop(bool HitEventLimit, bool HitStepLimit) {
  if (HitEventLimit)
    std::fprintf(stderr,
                 "error: event limit reached: the run retained %" PRIu64
                 " assignment events (kMaxRetainedEvents) and was stopped; "
                 "the program may not terminate, or runs too long to trace "
                 "in memory\n",
                 kMaxRetainedEvents);
  else if (HitStepLimit)
    std::fprintf(stderr,
                 "error: step limit reached: the run took %" PRIu64
                 " steps (kDefaultStepLimit) without terminating\n",
                 kDefaultStepLimit);
  return HitEventLimit || HitStepLimit;
}

bool reportLimitStop(const Trace &T) {
  return reportLimitStop(T.HitEventLimit, T.HitStepLimit);
}

std::unique_ptr<SecurityLattice> makeLattice(const Options &Opts) {
  return std::make_unique<TotalOrderLattice>(Opts.Levels);
}

bool loadFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::stringstream Buf;
  Buf << In.rdbuf();
  Out = Buf.str();
  return true;
}

int checkProgram(Program &P, const Options &Opts, bool Verbose) {
  auto Scope = Phases.scope("typecheck");
  DiagnosticEngine Diags;
  TypeCheckOptions TOpts;
  TOpts.RequireEqualTimingLabels = Opts.EqualLabels;
  if (!typeCheck(P, Diags, TOpts)) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return 1;
  }
  if (Verbose)
    std::printf("%s: OK — well-typed; timing leakage is bounded by its "
                "mitigate commands\n",
                Opts.File.c_str());
  return 0;
}

/// The declaration of \p Var when it names a scalar of \p P: the only
/// variables a command-line value (--set, --vary, --class) can write.
/// Otherwise prints "error: <Prefix>no variable 'v'<Suffix>" or "error:
/// <Prefix>'v' is an array, not a scalar<Suffix>" and returns null.
const VarDecl *findScalarInput(const Program &P, const std::string &Var,
                               const std::string &Prefix,
                               const char *Suffix) {
  const VarDecl *D = P.findVar(Var);
  if (!D)
    std::fprintf(stderr, "error: %sno variable '%s'%s\n", Prefix.c_str(),
                 Var.c_str(), Suffix);
  else if (D->IsArray)
    std::fprintf(stderr, "error: %s'%s' is an array, not a scalar%s\n",
                 Prefix.c_str(), Var.c_str(), Suffix);
  else
    return D;
  return nullptr;
}

/// Stores the --set overrides into \p M; false after a diagnostic when one
/// names no scalar of \p P.
bool applyOverrides(const Program &P, const Options &Opts, Memory &M) {
  for (const auto &[Var, Value] : Opts.Overrides) {
    if (!findScalarInput(P, Var, "", " to set"))
      return false;
    M.store(Var, Value);
  }
  return true;
}

int cmdRun(Program &P, const Options &Opts, bool Timeline) {
  if (int Rc = checkProgram(P, Opts, /*Verbose=*/false))
    return Rc;
  auto Env = createMachineEnv(Opts.Hw, P.lattice());
  bool AdvErr = false;
  std::optional<Label> Adv = adversaryLabel(Opts, P.lattice(), AdvErr);
  if (AdvErr)
    return 1;
  // The online accountant: windows are priced as they settle, through the
  // interpreter hook — the same projection the trace exporter applies.
  LeakAudit Audit(P.lattice(), Adv, Opts.Mitigation);
  ExecProfile Prof;
  InterpreterOptions IOpts;
  IOpts.Mitigation = Opts.Mitigation;
  IOpts.RecordMisses = !Opts.TraceOutPath.empty();
  // Only the timeline and the trace export read the events; a plain run
  // keeps none and is bounded by the step limit alone.
  IOpts.RetainEvents = Timeline || !Opts.TraceOutPath.empty();
  if (wantsTelemetry(Opts)) {
    IOpts.OnMitigateWindow = [&Audit](const MitigateRecord &R) {
      Audit.onWindow(R);
    };
    IOpts.Probe = &Prof;
  }
  FullInterpreter Interp(P, *Env, IOpts);
  if (!applyOverrides(P, Opts, Interp.memory()))
    return 1;
  RunResult R = [&] {
    auto Scope = Phases.scope("run");
    return Interp.run();
  }();
  if (reportLimitStop(R.T))
    return 1;

  if (wantsTelemetry(Opts)) {
    std::string ProfErr;
    if (!Prof.selfCheck(ProfErr)) {
      std::fprintf(stderr, "error: %s\n", ProfErr.c_str());
      return 1;
    }
    MetricsRegistry Reg;
    collectRunMetrics(Reg, R.T, R.Hw, P.lattice());
    Audit.exportMetrics(Reg);
    Prof.exportMetrics(Reg);
    if (!emitTraceIfRequested(Opts, R.T, P.lattice()) ||
        !emitStatsIfRequested(Opts, Reg))
      return 1;
  }

  if (Timeline) {
    std::printf("t=%-10s %s\n", "(cycles)", "event");
    std::printf("%s", dumpEvents(R.T, P.lattice()).c_str());
    std::printf("%s", dumpMitigations(R.T, P.lattice()).c_str());
  }

  std::printf("terminated at G = %" PRIu64 " cycles after %" PRIu64
              " steps on %s hardware\n",
              R.T.FinalTime, R.T.Steps, hwKindName(Opts.Hw));
  std::printf("final memory:\n");
  for (size_t I = 0; I != R.FinalMemory.slotCount(); ++I) {
    const MemorySlot &S = R.FinalMemory.slotAt(I);
    std::printf("  %-12s [%s] = ", R.FinalMemory.slotName(I).c_str(),
                P.lattice().name(S.SecLabel).c_str());
    if (S.IsArray) {
      std::printf("{");
      for (size_t I = 0; I != S.Data.size() && I < 8; ++I)
        std::printf("%s%" PRId64, I ? ", " : "", S.Data[I]);
      if (S.Data.size() > 8)
        std::printf(", ...");
      std::printf("}\n");
    } else {
      std::printf("%" PRId64 "\n", S.Data[0]);
    }
  }

  JsonValue Doc = JsonValue::object();
  Doc["command"] = JsonValue("run");
  Doc["file"] = JsonValue(Opts.File);
  Doc["hw"] = JsonValue(hwKindName(Opts.Hw));
  Doc["final_time"] = JsonValue(R.T.FinalTime);
  Doc["steps"] = JsonValue(R.T.Steps);
  JsonValue Mem = JsonValue::object();
  for (size_t I = 0; I != R.FinalMemory.slotCount(); ++I) {
    const MemorySlot &S = R.FinalMemory.slotAt(I);
    const std::string &Name = R.FinalMemory.slotName(I);
    if (S.IsArray) {
      JsonValue Arr = JsonValue::array();
      for (int64_t V : S.Data)
        Arr.push(JsonValue(V));
      Mem[Name] = std::move(Arr);
    } else {
      Mem[Name] = JsonValue(S.Data[0]);
    }
  }
  Doc["memory"] = std::move(Mem);
  return writeJsonIfRequested(Opts, Doc) ? 0 : 1;
}

/// The profiler's conservation check: every cycle, access and leak bit of
/// the run must be attributed somewhere in the ledger. A drift here means
/// the attribution cursor lost an event, so it is a hard error.
bool checkLedgerConservation(const CostLedger &Ledger, const RunResult &R,
                             const LeakAudit &Audit) {
  bool Ok = true;
  auto Fail = [&Ok](const char *What, uint64_t Got, uint64_t Want) {
    std::fprintf(stderr,
                 "error: profile self-check failed: %s: ledger has %" PRIu64
                 ", run has %" PRIu64 "\n",
                 What, Got, Want);
    Ok = false;
  };

  if (Ledger.totalCycles() != R.T.FinalTime)
    Fail("total cycles", Ledger.totalCycles(), R.T.FinalTime);

  uint64_t PaddedIdle = 0;
  for (const MitigateRecord &M : R.T.Mitigations)
    if (M.Duration > M.BodyTime)
      PaddedIdle += M.Duration - M.BodyTime;
  if (Ledger.totalPadCycles() != PaddedIdle)
    Fail("padding cycles", Ledger.totalPadCycles(), PaddedIdle);
  if (Ledger.totalWindows() != R.T.Mitigations.size())
    Fail("mitigate windows", Ledger.totalWindows(), R.T.Mitigations.size());

  const CacheLevelStats *HwSide[CostLedger::kStructures] = {
      &R.Hw.L1D, &R.Hw.L2D, &R.Hw.L1I, &R.Hw.L2I, &R.Hw.DTlb, &R.Hw.ITlb};
  for (unsigned I = 0; I != CostLedger::kStructures; ++I) {
    LineHwStats T = Ledger.structureTotals(I);
    const CacheLevelStats &H = *HwSide[I];
    const std::string Name = CostLedger::structureName(I);
    if (T.Hits != H.Hits)
      Fail((Name + " hits").c_str(), T.Hits, H.Hits);
    if (T.Misses != H.Misses)
      Fail((Name + " misses").c_str(), T.Misses, H.Misses);
    if (T.Evictions != H.Evictions)
      Fail((Name + " evictions").c_str(), T.Evictions, H.Evictions);
    if (T.Writebacks != H.Writebacks)
      Fail((Name + " writebacks").c_str(), T.Writebacks, H.Writebacks);
    if (T.LineFills != H.LineFills)
      Fail((Name + " line fills").c_str(), T.LineFills, H.LineFills);
  }

  // Bit-for-bit: the ledger replays the audit's per-level summation order.
  if (Ledger.totalLeakBits() != Audit.totalBitsBound()) {
    std::fprintf(stderr,
                 "error: profile self-check failed: leak bits: ledger has "
                 "%.17g, audit has %.17g\n",
                 Ledger.totalLeakBits(), Audit.totalBitsBound());
    Ok = false;
  }
  return Ok;
}

/// One mitigate site's observed body-time distribution, for --recommend.
struct SiteProfile {
  uint32_t Line = 0;
  int64_t Estimate = 0;
  uint64_t Windows = 0;
  uint64_t MinBody = UINT64_MAX;
  uint64_t MaxBody = 0;
};

/// `zamc profile --recommend`: from the per-site body-time distributions,
/// suggest the initial estimate and schedule a developer should configure.
/// The heuristic mirrors the Pareto sweep's findings (bench/pareto_sweep):
///   - near-constant bodies → a calibrated seeded schedule never doubles,
///     so it pads least while keeping the doubling closed form;
///   - moderate spread → bucketed:q=4 climbs in quarter-octaves, trading
///     a little bound for most of linear's padding savings;
///   - wide spread → fast-doubling, the paper's schedule, reaches any
///     body in log steps and keeps the strongest log-shaped bound.
/// The estimate is 1.1x the largest observed body (rounded up), so the
/// first window of a rerun absorbs jitter without an immediate miss.
void emitRecommendations(const Trace &T, const PolicySelection &Mitigation,
                         JsonValue &Doc) {
  std::map<unsigned, SiteProfile> Sites;
  for (const MitigateRecord &R : T.Mitigations) {
    SiteProfile &S = Sites[R.Eta];
    S.Line = R.Line;
    S.Estimate = R.Estimate;
    ++S.Windows;
    S.MinBody = std::min(S.MinBody, R.BodyTime);
    S.MaxBody = std::max(S.MaxBody, R.BodyTime);
  }
  if (Sites.empty()) {
    // Zero mitigate sites is a fine answer, not a failure: say so plainly,
    // skip the table, and leave an empty recommendations array so --json
    // consumers see the key either way.
    std::printf("\nthis run executed no mitigate windows; nothing to "
                "recommend (add mitigate blocks around secret-dependent "
                "timing first)\n");
    Doc["recommendations"] = JsonValue::array();
    return;
  }

  std::printf("\nrecommended per-site mitigation (from this run's body"
              " times):\n");
  JsonValue Rows = JsonValue::array();
  for (const auto &[Eta, S] : Sites) {
    const uint64_t SuggestedEst =
        std::max<uint64_t>(1, S.MaxBody + (S.MaxBody + 9) / 10);
    const double Spread =
        S.MinBody == 0 ? std::numeric_limits<double>::infinity()
                       : static_cast<double>(S.MaxBody) /
                             static_cast<double>(S.MinBody);
    char Spec[64];
    if (Spread <= 1.1)
      std::snprintf(Spec, sizeof(Spec), "seeded:est=%" PRIu64, SuggestedEst);
    else if (Spread <= 4.0)
      std::snprintf(Spec, sizeof(Spec), "bucketed:q=4");
    else
      std::snprintf(Spec, sizeof(Spec), "fast-doubling");
    std::printf("  mitigate #%u (line %u): bodies %" PRIu64 "..%" PRIu64
                " over %" PRIu64 " window%s -> --mitigate-site %u=%s\n",
                Eta, S.Line, S.MinBody == UINT64_MAX ? 0 : S.MinBody,
                S.MaxBody, S.Windows, S.Windows == 1 ? "" : "s", Eta, Spec);
    const MitigationPolicy &Cur = Mitigation.forSite(Eta);
    if (Cur.spec() != Spec)
      std::printf("    (currently %s; source estimate %" PRId64 ")\n",
                  Cur.spec().c_str(), S.Estimate);

    JsonValue Row = JsonValue::object();
    Row["eta"] = JsonValue(static_cast<uint64_t>(Eta));
    Row["line"] = JsonValue(static_cast<uint64_t>(S.Line));
    Row["windows"] = JsonValue(S.Windows);
    Row["body_min"] = JsonValue(S.MinBody == UINT64_MAX ? 0 : S.MinBody);
    Row["body_max"] = JsonValue(S.MaxBody);
    Row["estimate"] = JsonValue(SuggestedEst);
    Row["policy"] = JsonValue(std::string(Spec));
    Row["current_policy"] = JsonValue(Cur.spec());
    Rows.push(std::move(Row));
  }
  Doc["recommendations"] = std::move(Rows);
}

int cmdProfile(Program &P, const Options &Opts, const std::string &Source) {
  if (int Rc = checkProgram(P, Opts, /*Verbose=*/false))
    return Rc;
  auto Env = createMachineEnv(Opts.Hw, P.lattice());
  bool AdvErr = false;
  std::optional<Label> Adv = adversaryLabel(Opts, P.lattice(), AdvErr);
  if (AdvErr)
    return 1;

  // The profiler's data feed: the ledger rides the interpreter as the
  // provenance sink, the audit prices windows online, and the windows'
  // bits are folded into the ledger after the run settles.
  CostLedger Ledger;
  LeakAudit Audit(P.lattice(), Adv, Opts.Mitigation);
  ExecProfile Prof;
  InterpreterOptions IOpts;
  IOpts.Mitigation = Opts.Mitigation;
  IOpts.Provenance = &Ledger;
  if (wantsTelemetry(Opts))
    IOpts.Probe = &Prof;
  IOpts.RecordMisses = !Opts.TraceOutPath.empty();
  IOpts.OnMitigateWindow = [&Audit](const MitigateRecord &R) {
    Audit.onWindow(R);
  };
  FullInterpreter Interp(P, *Env, IOpts);
  if (!applyOverrides(P, Opts, Interp.memory()))
    return 1;
  RunResult R = [&] {
    auto Scope = Phases.scope("run");
    return Interp.run();
  }();
  if (reportLimitStop(R.T))
    return 1;
  Ledger.applyLeakage(Audit);

  if (!checkLedgerConservation(Ledger, R, Audit))
    return 1;

  std::printf("%s", Ledger.renderAnnotated(Source, wantColor(Opts)).c_str());
  std::printf("\nterminated at G = %" PRIu64 " cycles after %" PRIu64
              " steps on %s hardware; %.3f leak-bits bound\n",
              R.T.FinalTime, R.T.Steps, hwKindName(Opts.Hw),
              Audit.totalBitsBound());

  JsonValue Doc = JsonValue::object();
  if (Opts.Recommend)
    emitRecommendations(R.T, Opts.Mitigation, Doc);

  if (Opts.Stats || !Opts.TraceOutPath.empty()) {
    std::string ProfErr;
    if (!Prof.selfCheck(ProfErr)) {
      std::fprintf(stderr, "error: %s\n", ProfErr.c_str());
      return 1;
    }
    MetricsRegistry Reg;
    collectRunMetrics(Reg, R.T, R.Hw, P.lattice());
    Audit.exportMetrics(Reg);
    Ledger.exportMetrics(Reg);
    Prof.exportMetrics(Reg);
    // Sketch the per-line cost distribution (total cycles per source
    // line) the same dist.* way attack sketches its timings, so profile
    // stats scale to any program size with a fixed-shape document.
    LogLinearHistogram LineDist;
    for (const auto &[Line, C] : Ledger.lines())
      LineDist.add(C.totalCycles());
    LineDist.exportMetrics(Reg, "line_cost");
    if (!emitTraceIfRequested(Opts, R.T, P.lattice(), &Ledger) ||
        !emitStatsIfRequested(Opts, Reg))
      return 1;
  }

  Doc["command"] = JsonValue("profile");
  Doc["file"] = JsonValue(Opts.File);
  Doc["hw"] = JsonValue(hwKindName(Opts.Hw));
  Doc["final_time"] = JsonValue(R.T.FinalTime);
  Doc["steps"] = JsonValue(R.T.Steps);
  Doc["ledger"] = Ledger.toJson();
  return writeJsonIfRequested(Opts, Doc) ? 0 : 1;
}

/// `zamc hot`: the execution observatory. One deterministic run with the
/// engine self-profiler attached; reports where the *interpreter* spends
/// its dispatches (per-pc counts, opcode totals, opcode digrams, branch
/// splits, settle-epoch histograms). Everything on stdout derives
/// from exact dispatch counts — byte-stable and golden-diffable; the host
/// wall-clock sample summary goes to stderr like other non-deterministic
/// chatter.
int cmdHot(Program &P, const Options &Opts) {
  if (int Rc = checkProgram(P, Opts, /*Verbose=*/false))
    return Rc;
  auto Env = createMachineEnv(Opts.Hw, P.lattice());
  bool AdvErr = false;
  std::optional<Label> Adv = adversaryLabel(Opts, P.lattice(), AdvErr);
  if (AdvErr)
    return 1;
  LeakAudit Audit(P.lattice(), Adv, Opts.Mitigation);
  ExecProfile Prof;
  InterpreterOptions IOpts;
  IOpts.Mitigation = Opts.Mitigation;
  IOpts.Probe = &Prof;
  IOpts.RecordMisses = !Opts.TraceOutPath.empty();
  if (wantsTelemetry(Opts))
    IOpts.OnMitigateWindow = [&Audit](const MitigateRecord &R) {
      Audit.onWindow(R);
    };
  // One compiled form serves the run and the annotated listing; the probe
  // checks that it saw the same shape.
  const CompiledProgram C = [&] {
    auto Scope = Phases.scope("lower");
    return CompiledProgram(P, IOpts);
  }();
  const IrProgram &IR = C.ir();
  FullInterpreter Interp(C, *Env, IOpts);
  if (!applyOverrides(P, Opts, Interp.memory()))
    return 1;
  RunResult R = [&] {
    auto Scope = Phases.scope("run");
    return Interp.run();
  }();
  if (reportLimitStop(R.T))
    return 1;

  // The observatory's books must balance before anything is reported —
  // a drift means the probe missed a dispatch, so it is a hard error
  // (the checkLedgerConservation discipline).
  std::string ProfErr;
  if (!Prof.selfCheck(ProfErr)) {
    std::fprintf(stderr, "error: %s\n", ProfErr.c_str());
    return 1;
  }
  if (Prof.pcs().size() != IR.Instrs.size()) {
    std::fprintf(stderr,
                 "error: lowered IR and profiled IR disagree on shape\n");
    return 1;
  }

  const uint64_t Total = Prof.dispatches();
  auto Share = [&](uint64_t N) {
    return Total ? 100.0 * static_cast<double>(N) /
                       static_cast<double>(Total)
                 : 0.0;
  };

  std::printf("hot: %" PRIu64 " dispatches over %" PRIu64 " steps, G = %"
              PRIu64 " cycles on %s hardware\n",
              Total, R.T.Steps, R.T.FinalTime, hwKindName(Opts.Hw));

  std::printf("\nannotated IR (dispatches per pc):\n");
  for (uint32_t I = 0; I != IR.Instrs.size(); ++I) {
    const ExecProfile::PcStat &S = Prof.pcs()[I];
    std::printf("  %3u: %10" PRIu64 "  %s", I, S.Count,
                printIrInstr(IR, I, P.lattice()).c_str());
    if (S.K == IrInstr::Op::Branch)
      std::printf("  (taken %" PRIu64 ", not-taken %" PRIu64 ")", S.Taken,
                  S.NotTaken);
    std::printf("\n");
  }

  // Hottest pcs, highest count first; pc order breaks ties so the ranking
  // is deterministic.
  std::vector<uint32_t> ByHeat(IR.Instrs.size());
  for (uint32_t I = 0; I != ByHeat.size(); ++I)
    ByHeat[I] = I;
  std::stable_sort(ByHeat.begin(), ByHeat.end(),
                   [&](uint32_t A, uint32_t B) {
                     return Prof.pcs()[A].Count > Prof.pcs()[B].Count;
                   });
  std::printf("\ntop %u hot pcs:\n", Opts.TopK);
  for (unsigned I = 0; I != Opts.TopK && I != ByHeat.size(); ++I) {
    const uint32_t Pc = ByHeat[I];
    const ExecProfile::PcStat &S = Prof.pcs()[Pc];
    if (!S.Count)
      break;
    std::printf("  #%-2u pc %3u: %10" PRIu64 " (%5.1f%%)  %s", I + 1, Pc,
                S.Count, Share(S.Count), irOpName(S.K));
    if (S.Line)
      std::printf(" line %u", S.Line);
    std::printf("\n");
  }

  std::vector<ExecProfile::DigramRank> Digrams = Prof.rankedDigrams();
  std::printf("\nopcode digrams (consecutive dispatches):\n");
  for (unsigned I = 0; I != Opts.TopK && I != Digrams.size(); ++I) {
    const ExecProfile::DigramRank &D = Digrams[I];
    const std::string Pair =
        std::string(irOpName(D.A)) + ";" + irOpName(D.B) + ":";
    std::printf("  #%-2u %-18s %10" PRIu64 " (%5.1f%%)\n", I + 1,
                Pair.c_str(), D.Count, Share(D.Count));
  }

  std::printf("\nbranches: %" PRIu64 " taken, %" PRIu64 " not taken\n",
              Prof.branchTaken(), Prof.branchNotTaken());

  if (!Prof.sites().empty()) {
    std::printf("mitigate sites (settle epochs = scheduler doublings per "
                "window):\n");
    for (const ExecProfile::SiteStat &S : Prof.sites()) {
      const LogLinearHistogram &H = S.SettleEpochs;
      std::printf("  m%u: %" PRIu64 " settles, epochs min/p50/p90/max = %"
                  PRIu64 "/%" PRIu64 "/%" PRIu64 "/%" PRIu64 "\n",
                  S.Eta, H.total(), H.min(), H.quantile(0.5),
                  H.quantile(0.9), H.max());
    }
  } else {
    std::printf("mitigate sites: none\n");
  }

  // Host throughput is real but non-deterministic: stderr only, so the
  // stdout report stays golden-diffable.
  const ExecProfile::WallStats &W = Prof.wall();
  if (W.Epochs)
    std::fprintf(stderr,
                 "wall: %" PRIu64 " sample epochs, %.2f ms, %.1f "
                 "dispatches/us\n",
                 W.Epochs, static_cast<double>(W.ElapsedNs) / 1e6,
                 W.dispatchesPerUs());
  else
    std::fprintf(stderr,
                 "wall: no complete sampling epoch (run shorter than %" PRIu64
                 " dispatches)\n",
                 ExecProfile::kDefaultWallEpoch);

  if (!Opts.FoldedPath.empty()) {
    std::string Root = Opts.File;
    size_t Slash = Root.find_last_of("/\\");
    if (Slash != std::string::npos)
      Root = Root.substr(Slash + 1);
    std::FILE *F = std::fopen(Opts.FoldedPath.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   Opts.FoldedPath.c_str());
      return 1;
    }
    const std::string Text = Prof.foldedStacks(Root);
    bool Ok = std::fwrite(Text.data(), 1, Text.size(), F) == Text.size();
    Ok &= std::fclose(F) == 0;
    if (!Ok) {
      std::fprintf(stderr, "error: short write to '%s'\n",
                   Opts.FoldedPath.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote folded stacks to %s\n",
                 Opts.FoldedPath.c_str());
  }

  if (wantsTelemetry(Opts)) {
    MetricsRegistry Reg;
    collectRunMetrics(Reg, R.T, R.Hw, P.lattice());
    Audit.exportMetrics(Reg);
    Prof.exportMetrics(Reg);
    if (!emitTraceIfRequested(Opts, R.T, P.lattice()) ||
        !emitStatsIfRequested(Opts, Reg))
      return 1;
  }

  JsonValue Doc = JsonValue::object();
  Doc["command"] = JsonValue("hot");
  Doc["file"] = JsonValue(Opts.File);
  Doc["hw"] = JsonValue(hwKindName(Opts.Hw));
  Doc["final_time"] = JsonValue(R.T.FinalTime);
  Doc["steps"] = JsonValue(R.T.Steps);
  Doc["dispatches"] = JsonValue(Total);
  Doc["runs"] = JsonValue(Prof.runs());
  Doc["heads"] = JsonValue(Prof.heads());
  JsonValue Ops = JsonValue::object();
  for (unsigned I = 0; I != ExecProfile::kNumOps; ++I)
    Ops[irOpName(static_cast<IrInstr::Op>(I))] =
        JsonValue(Prof.opCount(static_cast<IrInstr::Op>(I)));
  Doc["ops"] = std::move(Ops);
  JsonValue Br = JsonValue::object();
  Br["taken"] = JsonValue(Prof.branchTaken());
  Br["not_taken"] = JsonValue(Prof.branchNotTaken());
  Doc["branch"] = std::move(Br);
  JsonValue DigArr = JsonValue::array();
  for (const ExecProfile::DigramRank &D : Digrams) {
    JsonValue Row = JsonValue::object();
    Row["a"] = JsonValue(std::string(irOpName(D.A)));
    Row["b"] = JsonValue(std::string(irOpName(D.B)));
    Row["count"] = JsonValue(D.Count);
    DigArr.push(std::move(Row));
  }
  Doc["digrams"] = std::move(DigArr);
  JsonValue PcArr = JsonValue::array();
  for (uint32_t I = 0; I != Prof.pcs().size(); ++I) {
    const ExecProfile::PcStat &S = Prof.pcs()[I];
    JsonValue Row = JsonValue::object();
    Row["pc"] = JsonValue(static_cast<uint64_t>(I));
    Row["op"] = JsonValue(std::string(irOpName(S.K)));
    Row["line"] = JsonValue(static_cast<uint64_t>(S.Line));
    Row["count"] = JsonValue(S.Count);
    if (S.K == IrInstr::Op::Branch) {
      Row["taken"] = JsonValue(S.Taken);
      Row["not_taken"] = JsonValue(S.NotTaken);
    }
    PcArr.push(std::move(Row));
  }
  Doc["pcs"] = std::move(PcArr);
  JsonValue SiteArr = JsonValue::array();
  for (const ExecProfile::SiteStat &S : Prof.sites()) {
    JsonValue Row = JsonValue::object();
    Row["eta"] = JsonValue(static_cast<uint64_t>(S.Eta));
    Row["settles"] = JsonValue(S.SettleEpochs.total());
    Row["epochs_min"] = JsonValue(S.SettleEpochs.min());
    Row["epochs_p50"] = JsonValue(S.SettleEpochs.quantile(0.5));
    Row["epochs_p90"] = JsonValue(S.SettleEpochs.quantile(0.9));
    Row["epochs_max"] = JsonValue(S.SettleEpochs.max());
    SiteArr.push(std::move(Row));
  }
  Doc["sites"] = std::move(SiteArr);
  JsonValue Wall = JsonValue::object();
  Wall["sample_epochs"] = JsonValue(W.Epochs);
  Wall["sampled_dispatches"] = JsonValue(W.SampledDispatches);
  Wall["elapsed_ms"] = JsonValue(static_cast<double>(W.ElapsedNs) / 1e6);
  Wall["dispatch_per_us"] = JsonValue(W.dispatchesPerUs());
  Doc["wall"] = std::move(Wall);
  return writeJsonIfRequested(Opts, Doc) ? 0 : 1;
}

int cmdLeakage(Program &P, const Options &Opts) {
  const SecurityLattice &Lat = P.lattice();
  if (Opts.Variations.empty()) {
    std::fprintf(stderr, "leakage requires at least one --vary var=v1,v2\n");
    return 2;
  }
  Label Adversary = Lat.bottom();
  if (!Opts.Adversary.empty()) {
    std::optional<Label> L = Lat.byName(Opts.Adversary);
    if (!L) {
      std::fprintf(stderr, "error: unknown level '%s'\n",
                   Opts.Adversary.c_str());
      return 2;
    }
    Adversary = *L;
  }

  LeakageSpec Spec;
  Spec.Adversary = Adversary;
  LabelSet Sources(Lat);
  size_t MaxLen = 0;
  for (const auto &[Var, Values] : Opts.Variations) {
    const VarDecl *D = findScalarInput(P, Var, "", " to vary");
    if (!D)
      return 2;
    // Definition 1 quantifies over secrets the adversary cannot see: a
    // variation of a variable it observes is a usage error, not a run.
    if (Lat.flowsTo(D->SecLabel, Adversary)) {
      std::fprintf(stderr,
                   "%s: error: --vary %s: '%s' is at level %s, which the "
                   "adversary at %s observes; vary only variables the "
                   "adversary cannot observe\n",
                   Opts.File.c_str(), Var.c_str(), Var.c_str(),
                   Lat.name(D->SecLabel).c_str(),
                   Lat.name(Adversary).c_str());
      return 2;
    }
    Sources.insert(D->SecLabel);
    MaxLen = std::max(MaxLen, Values.size());
  }
  Spec.SourceLevels = Sources;
  for (size_t I = 0; I != MaxLen; ++I) {
    SecretAssignment A;
    for (const auto &[Var, Values] : Opts.Variations)
      A.Scalars.emplace_back(Var, Values[I % Values.size()]);
    Spec.Variations.push_back(std::move(A));
  }

  auto Env = createMachineEnv(Opts.Hw, Lat);
  InterpreterOptions MOpts;
  MOpts.Mitigation = Opts.Mitigation;
  LeakageResult R = measureLeakage(P, *Env, Spec, MOpts, Opts.Threads);
  if (reportLimitStop(R.HitEventLimit, R.HitStepLimit))
    return 1;

  if (wantsTelemetry(Opts)) {
    // Counters and timeline of one representative run: the first secret
    // variation on a fresh environment.
    auto StatsEnv = createMachineEnv(Opts.Hw, Lat);
    bool AdvErr = false;
    LeakAudit Audit(Lat, adversaryLabel(Opts, Lat, AdvErr),
                    Opts.Mitigation);
    InterpreterOptions IOpts;
    IOpts.Mitigation = Opts.Mitigation;
    IOpts.RecordMisses = !Opts.TraceOutPath.empty();
    IOpts.OnMitigateWindow = [&Audit](const MitigateRecord &MR) {
      Audit.onWindow(MR);
    };
    RunResult Rep = [&] {
      auto Scope = Phases.scope("run");
      return runFull(
          P, *StatsEnv,
          [&](Memory &M) {
            for (const auto &[Var, Value] : Spec.Variations.front().Scalars)
              M.store(Var, Value);
          },
          IOpts);
    }();
    if (reportLimitStop(Rep.T))
      return 1;
    MetricsRegistry Reg;
    collectRunMetrics(Reg, Rep.T, Rep.Hw, Lat);
    Audit.exportMetrics(Reg);
    if (!emitTraceIfRequested(Opts, Rep.T, Lat) ||
        !emitStatsIfRequested(Opts, Reg))
      return 1;
  }

  std::printf("adversary at %s; %zu secret variations from levels %s\n",
              Lat.name(Adversary).c_str(), Spec.Variations.size(),
              Sources.str(Lat).c_str());
  std::printf("distinguishable observations: %u  (Q = %.2f bits)\n",
              R.DistinctObservations, R.QBits);
  std::printf("Shannon leakage %.2f bits, min-entropy leakage %.2f bits\n",
              R.ShannonBits, R.MinEntropyBits);
  std::printf("distinct mitigate timing vectors: %u  (log2|V| = %.2f bits)\n",
              R.DistinctTimingVectors, R.VBits);
  std::printf("Theorem 2 (Q <= log|V|): %s\n",
              R.TheoremTwoHolds ? "holds" : "VIOLATED");
  std::printf("Sec. 7 closed-form bound: %.2f bits (K=%" PRIu64
              ", T=%" PRIu64 ")\n",
              R.ClosedFormBoundBits, R.RelevantMitigates, R.MaxFinalTime);

  JsonValue Doc = JsonValue::object();
  Doc["command"] = JsonValue("leakage");
  Doc["file"] = JsonValue(Opts.File);
  Doc["hw"] = JsonValue(hwKindName(Opts.Hw));
  Doc["adversary"] = JsonValue(Lat.name(Adversary));
  Doc["variations"] = JsonValue(Spec.Variations.size());
  Doc["distinct_observations"] = JsonValue(R.DistinctObservations);
  Doc["q_bits"] = JsonValue(R.QBits);
  Doc["shannon_bits"] = JsonValue(R.ShannonBits);
  Doc["min_entropy_bits"] = JsonValue(R.MinEntropyBits);
  Doc["distinct_timing_vectors"] = JsonValue(R.DistinctTimingVectors);
  Doc["v_bits"] = JsonValue(R.VBits);
  Doc["theorem2_holds"] = JsonValue(R.TheoremTwoHolds);
  Doc["mitigates_low_deterministic"] =
      JsonValue(R.MitigatesLowDeterministic);
  Doc["relevant_mitigates"] = JsonValue(R.RelevantMitigates);
  Doc["max_final_time"] = JsonValue(R.MaxFinalTime);
  Doc["closed_form_bound_bits"] = JsonValue(R.ClosedFormBoundBits);
  return writeJsonIfRequested(Opts, Doc) ? 0 : 1;
}

int cmdAudit(Program &P, const Options &Opts) {
  const SecurityLattice &Lat = P.lattice();
  auto Env = createMachineEnv(Opts.Hw, Lat);

  if (wantsTelemetry(Opts)) {
    // The audit itself runs random single commands, not the program; the
    // telemetry of record is one plain run of the program body.
    auto StatsEnv = createMachineEnv(Opts.Hw, Lat);
    bool AdvErr = false;
    LeakAudit Audit(Lat, adversaryLabel(Opts, Lat, AdvErr),
                    Opts.Mitigation);
    InterpreterOptions IOpts;
    IOpts.Mitigation = Opts.Mitigation;
    IOpts.RecordMisses = !Opts.TraceOutPath.empty();
    IOpts.OnMitigateWindow = [&Audit](const MitigateRecord &MR) {
      Audit.onWindow(MR);
    };
    RunResult Rep = [&] {
      auto Scope = Phases.scope("run");
      return runFull(P, *StatsEnv, IOpts);
    }();
    if (reportLimitStop(Rep.T))
      return 1;
    MetricsRegistry Reg;
    collectRunMetrics(Reg, Rep.T, Rep.Hw, Lat);
    Audit.exportMetrics(Reg);
    if (!emitTraceIfRequested(Opts, Rep.T, Lat) ||
        !emitStatsIfRequested(Opts, Reg))
      return 1;
  }

  RandomProgramOptions O;
  O.MaxDepth = 2;
  O.EqualTimingLabels = false;

  // Random commands over the *program's own* declarations. Every trial
  // derives its own Rng from the trial index, so the trials are independent
  // deterministic tasks: they fan out over the worker pool and the verdict
  // is identical for any thread count.
  const unsigned Trials = 150;
  struct TrialResult {
    bool V5 = false, V6 = false, V7 = false;
  };
  ParallelRunner Runner(Opts.Threads);
  std::vector<TrialResult> Results = Runner.map(Trials, [&](size_t I) {
    // --seed folds in at zero cost: the default of 0 reproduces the
    // historical trial streams byte-for-byte.
    Rng R(0xA0D17 ^ Opts.Seed ^ (0x9E3779B97F4A7C15ULL * (I + 1)));
    TrialResult Out;
    CmdPtr C = randomCommand(P, R, O);
    Memory M = Memory::fromProgram(P, CostModel().DataBase);
    randomizeMemoryValues(M, R);
    auto E = Env->clone();
    E->randomize(R);
    Out.V5 = !checkWriteLabel(P, *C, M, *E).Holds;

    Label Er = *activeCommand(*C).labels().Read;
    Memory M2 = M;
    auto E2 = E->clone();
    E2->perturbAbove(Er, R);
    Out.V6 = !checkReadLabel(P, *C, M, M2, *E, *E2).Holds;

    for (Label Level : Lat.allLabels()) {
      Memory M3 = M;
      perturbMemoryAbove(M3, Level, Lat, R);
      auto E3 = E->clone();
      E3->perturbAbove(Level, R);
      if (!checkSingleStepNI(P, *C, M, M3, *E, *E3, Level).Holds) {
        Out.V7 = true;
        break;
      }
    }
    return Out;
  });

  unsigned Violations5 = 0, Violations6 = 0, Violations7 = 0;
  for (const TrialResult &T : Results) {
    Violations5 += T.V5;
    Violations6 += T.V6;
    Violations7 += T.V7;
  }

  std::printf("auditing %s against the software/hardware contract"
              " (%u random steps over this program's declarations):\n",
              Env->describe().c_str(), Trials);
  auto Report = [&](const char *Name, unsigned V) {
    std::printf("  %-28s %s", Name, V ? "FAIL" : "PASS");
    if (V)
      std::printf(" (%u/%u violations)", V, Trials);
    std::printf("\n");
  };
  Report("Property 5 (write label)", Violations5);
  Report("Property 6 (read label)", Violations6);
  Report("Property 7 (single-step NI)", Violations7);

  bool Pass = !(Violations5 || Violations6 || Violations7);
  JsonValue Doc = JsonValue::object();
  Doc["command"] = JsonValue("audit");
  Doc["file"] = JsonValue(Opts.File);
  Doc["hw"] = JsonValue(hwKindName(Opts.Hw));
  Doc["trials"] = JsonValue(Trials);
  JsonValue V = JsonValue::object();
  V["property5_write_label"] = JsonValue(Violations5);
  V["property6_read_label"] = JsonValue(Violations6);
  V["property7_single_step_ni"] = JsonValue(Violations7);
  Doc["violations"] = std::move(V);
  Doc["pass"] = JsonValue(Pass);
  if (!writeJsonIfRequested(Opts, Doc))
    return 1;
  return Pass ? 0 : 1;
}

/// Parses one --class spec "NAME:var=V[,var=LO..HI]..." against the
/// program's declarations. Diagnoses and returns false on any malformed
/// piece or unknown variable.
bool parseClassSpec(const std::string &Raw, const Program &P,
                    SecretClassSpec &Out) {
  auto Complain = [&](const char *Why) {
    std::fprintf(stderr,
                 "error: --class expects NAME:var=value|var=lo..hi[,...], "
                 "got '%s' (%s)\n",
                 Raw.c_str(), Why);
    return false;
  };
  size_t Colon = Raw.find(':');
  if (Colon == std::string::npos || Colon == 0)
    return Complain("missing NAME:");
  Out.Name = Raw.substr(0, Colon);
  for (const std::string &Item : splitCommas(Raw.substr(Colon + 1))) {
    size_t Eq = Item.find('=');
    if (Eq == std::string::npos || Eq == 0)
      return Complain("assignment without '='");
    std::string Var = Item.substr(0, Eq);
    if (!findScalarInput(P, Var, "--class " + Out.Name + ": ", ""))
      return false;
    std::string Val = Item.substr(Eq + 1);
    size_t Dots = Val.find("..");
    if (Dots == std::string::npos) {
      int64_t V;
      if (!parseInteger(Val, V))
        return Complain("value is not an integer");
      Out.Fixed.emplace_back(Var, V);
    } else {
      SecretClassSpec::Range Rg;
      Rg.Var = Var;
      if (!parseInteger(Val.substr(0, Dots), Rg.Lo) ||
          !parseInteger(Val.substr(Dots + 2), Rg.Hi) || Rg.Lo > Rg.Hi)
        return Complain("range is not lo..hi with lo <= hi");
      Out.Ranges.push_back(std::move(Rg));
    }
  }
  if (Out.Fixed.empty() && Out.Ranges.empty())
    return Complain("class needs at least one assignment");
  return true;
}

/// `zamc attack`: the empirical adversary. Samples secrets from the
/// --class specs, measures the adversary-visible timings over N seeded
/// runs, and reports the detector's statistics next to the analytic
/// Sec. 6 bound. Deliberately does NOT type-check first: the attacker
/// measures insecure programs too — that is the point.
int cmdAttack(Program &P, const Options &Opts) {
  const SecurityLattice &Lat = P.lattice();
  if (Opts.ClassSpecs.size() < 2) {
    std::fprintf(stderr,
                 "error: attack needs at least two --class specs, e.g. "
                 "--class lo:h=5 --class hi:h=700\n");
    return 2;
  }
  std::vector<SecretClassSpec> Classes;
  std::vector<std::string> Names;
  for (const std::string &Raw : Opts.ClassSpecs) {
    SecretClassSpec Spec;
    if (!parseClassSpec(Raw, P, Spec))
      return 2;
    for (const std::string &Seen : Names)
      if (Seen == Spec.Name) {
        std::fprintf(stderr, "error: duplicate --class name '%s'\n",
                     Seen.c_str());
        return 2;
      }
    // Global --set overrides apply to every class, before its own stores.
    for (const auto &[Var, Value] : Opts.Overrides) {
      if (!findScalarInput(P, Var, "", " to set"))
        return 2;
      Spec.Fixed.insert(Spec.Fixed.begin(), {Var, Value});
    }
    Names.push_back(Spec.Name);
    Classes.push_back(std::move(Spec));
  }
  if (Opts.Samples < 2 * Classes.size()) {
    std::fprintf(stderr,
                 "error: --samples %u is too few for %zu classes "
                 "(need at least two per class)\n",
                 Opts.Samples, Classes.size());
    return 2;
  }
  bool AdvErr = false;
  std::optional<Label> Adv = adversaryLabel(Opts, Lat, AdvErr);
  if (AdvErr)
    return 1;

  auto Env = createMachineEnv(Opts.Hw, Lat);
  AttackOptions AOpts;
  AOpts.Samples = Opts.Samples;
  if (Opts.SeedSet)
    AOpts.Seed = Opts.Seed;
  AOpts.Adversary = Adv;
  InterpreterOptions IOpts;
  IOpts.Mitigation = Opts.Mitigation;
  ParallelRunner Runner(Opts.Threads);

  // The bounded-memory collection pipeline: observations stream out of the
  // chunked collector in strict sample order, each one folded into (a) the
  // detector's compact rows, (b) the dist.* online sketches, and (c) the
  // trace file, then dropped. Nothing retains the per-sample window lists,
  // so 10^6 samples cost ~24 MB of rows plus a few KB of histogram.
  std::vector<CompactObservation> Compact;
  Compact.reserve(AOpts.Samples);
  LogLinearHistogram EndToEndDist, WindowDist;

  std::FILE *TraceFile = nullptr;
  std::unique_ptr<FileByteSink> TraceBytes;
  std::unique_ptr<TraceSink> Sink;
  size_t Emitted = 0;
  if (!Opts.TraceOutPath.empty()) {
    TraceFile = std::fopen(Opts.TraceOutPath.c_str(), "wb");
    if (!TraceFile) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   Opts.TraceOutPath.c_str());
      return 1;
    }
    TraceBytes = std::make_unique<FileByteSink>(TraceFile);
    Sink = makeTraceSink(Opts.TraceFmt, *TraceBytes);
    auto Meta =
        provenanceArgs(resolveThreadCount(Opts.Threads), Opts.Mitigation);
    Meta.emplace_back("attack_samples", std::to_string(AOpts.Samples));
    Meta.emplace_back("attack_seed", std::to_string(AOpts.Seed));
    std::string Joined;
    for (const std::string &N : Names) {
      if (!Joined.empty())
        Joined += ',';
      Joined += N;
    }
    Meta.emplace_back("attack_classes", Joined);
    if (Adv)
      Meta.emplace_back("adversary", Lat.name(*Adv));
    Sink->header(Meta);
  }

  ProgressMeter Progress("attack", AOpts.Samples, Opts.Progress);
  {
    auto Scope = Phases.scope("run");
    streamObservations(
        P, *Env, Classes, AOpts, IOpts, Runner,
        [&](const Observation &O, size_t I) {
          Compact.push_back({O.ClassIndex, O.EndToEnd, O.BoundBits});
          EndToEndDist.add(O.EndToEnd);
          for (uint64_t W : O.Windows)
            WindowDist.add(W);
          if (Sink) {
            Emitted += exportObservation(*Sink, O, I, Names);
            if (Opts.SnapshotEvery != 0 &&
                (I + 1) % Opts.SnapshotEvery == 0) {
              // A deterministic running-state row: Ts rides the sample
              // axis like the observation records around it.
              TraceRecord R;
              R.RecordKind = TraceRecord::Kind::Meta;
              R.Name = "snapshot";
              R.Category = "obs";
              R.Ts = I;
              R.Args.emplace_back("samples", std::to_string(I + 1));
              R.Args.emplace_back("end_to_end_p50",
                                  std::to_string(EndToEndDist.quantile(0.5)));
              Sink->record(R);
              ++Emitted;
            }
          }
          Progress.update(I + 1);
        });
  }
  if (Sink) {
    Sink->close();
    bool Ok = Sink->ok();
    Ok &= std::fclose(TraceFile) == 0;
    if (!Ok) {
      std::fprintf(stderr, "error: short write to '%s'\n",
                   Opts.TraceOutPath.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %zu trace records to %s\n", Emitted,
                 Opts.TraceOutPath.c_str());
  }
  DetectorResult D = detectLeak(Compact, Names);

  std::printf("attack: %" PRIu64 " samples over %zu classes on %s hardware"
              " (seed %" PRIu64 "%s)\n",
              D.Samples, Classes.size(), hwKindName(Opts.Hw), AOpts.Seed,
              Adv ? (", adversary " + Lat.name(*Adv)).c_str() : "");
  for (const ClassSummary &S : D.Classes)
    std::printf("  class %-12s n=%-5" PRIu64 " mean=%.1f sd=%.1f "
                "range=[%" PRIu64 ", %" PRIu64 "]\n",
                S.Name.c_str(), S.Count, S.Mean, std::sqrt(S.Variance),
                S.Min, S.Max);
  std::printf("  Welch t=%.6g (df=%.6g, %s vs %s)  Cohen's d=%.6g  "
              "log10(p)=%.6g\n",
              D.TStat, D.Df, Names[D.PairA].c_str(), Names[D.PairB].c_str(),
              D.CohensD, D.PValueLog10);
  std::printf("  mutual information: %.6g bits (plug-in %.6g, %" PRIu64
              " distinct timings); analytic bound %.6g bits\n",
              D.MiBits, D.MiPluginBits, D.DistinctTimings,
              D.AnalyticBoundBits);
  if (D.LeakDetected)
    std::printf("  verdict: TIMING LEAK DETECTED (p <= 1e%d)\n",
                static_cast<int>(kDetectPValueLog10));
  else
    std::printf("  verdict: no leak detected at p <= 1e%d\n",
                static_cast<int>(kDetectPValueLog10));
  if (D.MiBits > D.AnalyticBoundBits)
    std::printf("  WARNING: empirical MI exceeds the analytic bound — "
                "mitigation accounting and measurement disagree\n");

  if (wantsTelemetry(Opts)) {
    MetricsRegistry Reg;
    exportDetectorMetrics(Reg, D);
    // The dist.* sketches ride the stats document next to adv.*; zamtrace
    // recomputes both offline from the trace and cross-checks bit-for-bit.
    EndToEndDist.exportMetrics(Reg, "end_to_end");
    WindowDist.exportMetrics(Reg, "window_duration");
    if (!emitStatsIfRequested(Opts, Reg))
      return 1;
  }

  // The deterministic result document: everything below derives from
  // cycle counts and the seed, never from wall clock or thread count, so
  // the bytes are identical at any --threads value.
  JsonValue Doc = JsonValue::object();
  Doc["command"] = JsonValue("attack");
  Doc["file"] = JsonValue(Opts.File);
  Doc["hw"] = JsonValue(hwKindName(Opts.Hw));
  if (Adv)
    Doc["adversary"] = JsonValue(Lat.name(*Adv));
  Doc["samples"] = JsonValue(D.Samples);
  Doc["seed"] = JsonValue(AOpts.Seed);
  JsonValue ClassArr = JsonValue::array();
  for (const ClassSummary &S : D.Classes) {
    JsonValue Row = JsonValue::object();
    Row["name"] = JsonValue(S.Name);
    Row["samples"] = JsonValue(S.Count);
    Row["mean"] = JsonValue(S.Mean);
    Row["variance"] = JsonValue(S.Variance);
    Row["min"] = JsonValue(S.Min);
    Row["max"] = JsonValue(S.Max);
    ClassArr.push(std::move(Row));
  }
  Doc["classes"] = std::move(ClassArr);
  JsonValue Det = JsonValue::object();
  Det["t_stat"] = JsonValue(D.TStat);
  Det["df"] = JsonValue(D.Df);
  Det["pair"] = JsonValue(Names[D.PairA] + "/" + Names[D.PairB]);
  Det["cohens_d"] = JsonValue(D.CohensD);
  Det["p_value_log10"] = JsonValue(D.PValueLog10);
  Det["mi_plugin_bits"] = JsonValue(D.MiPluginBits);
  Det["mi_bits"] = JsonValue(D.MiBits);
  Det["distinct_timings"] = JsonValue(D.DistinctTimings);
  Det["analytic_bound_bits"] = JsonValue(D.AnalyticBoundBits);
  Det["leak_detected"] = JsonValue(D.LeakDetected);
  Doc["detector"] = std::move(Det);
  return writeJsonIfRequested(Opts, Doc) ? 0 : 1;
}

/// Reports running out of memory in \p Command, naming what outgrew it.
/// \returns the exit status.
int outOfMemory(const std::string &Command) {
  if (Command == "attack")
    std::fprintf(stderr,
                 "error: out of memory: the sample set outgrew memory; stream "
                 "to the binary trace format instead (--trace-out out.ztb) "
                 "or reduce --samples\n");
  else if (Command == "run" || Command == "trace" || Command == "profile" ||
           Command == "hot" || Command == "leakage" || Command == "audit")
    std::fprintf(stderr,
                 "error: out of memory: the retained run trace (one event "
                 "per executed assignment) outgrew memory before the event "
                 "limit; the program may not terminate, or runs too long to "
                 "trace in memory\n");
  else
    std::fprintf(stderr, "error: out of memory in 'zamc %s'\n",
                 Command.c_str());
  return 1;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc == 2 && !std::strcmp(Argv[1], "--version")) {
    std::printf("%s\n", buildSummary().c_str());
    return 0;
  }
  if (Argc == 2 && !std::strcmp(Argv[1], "policies")) {
    std::printf("registered mitigation policies (--mitigation SPEC,"
                " --mitigate-site ETA=SPEC):\n");
    for (const MitigationPolicyInfo &Info : mitigationPolicyRegistry())
      std::printf("  %-22s %s\n", Info.ParamSyntax, Info.Summary);
    std::printf("the default is fast-doubling, the paper's Sec. 7"
                " schedule.\n");
    return 0;
  }

  Options Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return usage(Opts.BadArg);
  if (!resolveTraceFormat(Opts))
    return 2;

  std::string Source;
  {
    auto Scope = Phases.scope("load");
    if (!loadFile(Opts.File, Source)) {
      std::fprintf(stderr, "error: cannot read '%s'\n", Opts.File.c_str());
      return 2;
    }
  }

  std::unique_ptr<SecurityLattice> Lat = makeLattice(Opts);
  DiagnosticEngine Diags;
  std::optional<Program> P = [&] {
    auto Scope = Phases.scope("parse");
    return parseProgram(Source, *Lat, Diags);
  }();
  if (!P) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return 1;
  }
  {
    auto Scope = Phases.scope("infer");
    // Inference computes guard labels from the declarations, so an
    // undeclared variable must be the checker's diagnostic first.
    if (!TypeChecker(*P, Diags).checkDeclarations()) {
      std::fprintf(stderr, "%s", Diags.str().c_str());
      return 1;
    }
    inferTimingLabels(*P);
  }

  // Allocation failure on a huge workload is an answer, not a crash: name
  // what outgrew memory instead of dying on an uncaught bad_alloc.
  try {
    if (Opts.Command == "check")
      return checkProgram(*P, Opts, /*Verbose=*/true);
    if (Opts.Command == "print") {
      std::printf("%s", printProgram(*P).c_str());
      return 0;
    }
    if (Opts.Command == "ir") {
      IrProgram IR = [&] {
        auto Scope = Phases.scope("lower");
        return lowerProgram(*P, CostModel(), Opts.Mitigation);
      }();
      std::string Err;
      if (!verifyIr(IR, Err)) {
        std::fprintf(stderr, "error: %s\n", Err.c_str());
        return 1;
      }
      std::printf("%s", printIr(IR, P->lattice()).c_str());
      return 0;
    }
    if (Opts.Command == "run")
      return cmdRun(*P, Opts, /*Timeline=*/false);
    if (Opts.Command == "trace")
      return cmdRun(*P, Opts, /*Timeline=*/true);
    if (Opts.Command == "profile")
      return cmdProfile(*P, Opts, Source);
    if (Opts.Command == "hot")
      return cmdHot(*P, Opts);
    if (Opts.Command == "leakage")
      return cmdLeakage(*P, Opts);
    if (Opts.Command == "audit")
      return cmdAudit(*P, Opts);
    if (Opts.Command == "attack")
      return cmdAttack(*P, Opts);
  } catch (const std::bad_alloc &) {
    return outOfMemory(Opts.Command);
  } catch (const std::length_error &) {
    return outOfMemory(Opts.Command);
  }
  return usage();
}

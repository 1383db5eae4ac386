//===- zam_perf.cpp - End-to-end and per-layer host-time benchmark --------===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
//
// Usage:
//   zam_perf [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//            [--runs N] [--json|--append FILE] [--trace-out FILE]
//   zam_perf compare PARENT.json CHANGE.json
//
// One workload runs in this process and prints its metrics, the last line
// being one JSON object {correct, attempted, failed, metrics}. Without
// --workload every workload runs, each in its own process and one after
// another, --runs times (run r uses seed + r); --json writes all results
// as a set file that `compare` reads, and --append adds them to one (to
// take a parent's and a change's sets alternately, a seed at a time).
//
// The end-to-end metrics are best-of-100-reps, each rep on the next CPU in
// turn: the host's noise only ever slows a rep, by an amount that depends
// on the core and changes over seconds, so the fastest short rep is the
// steadiest estimate of what the code costs (README.md has the
// measurements). setup_s is the median of 25 setups spread over the run.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"
#include "Stats.h"
#include "Workloads.h"

#include "obs/Json.h"
#include "support/BuildInfo.h"

#include <sched.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

using namespace zam;
using namespace zam::perf;

namespace {

constexpr uint64_t kDefaultSeed = 2254078;
constexpr unsigned kReps = 100;
/// A setup runs before every fourth rep, so the 25 setups whose median is
/// setup_s sample the whole run's noise rather than one moment of it.
constexpr unsigned kRepsPerSetup = 4;
/// Setups before a traced run, for the setup-phase split.
constexpr unsigned kTraceSetups = 9;
/// Traced mode: untraced and traced reps of half a rep's ops alternate,
/// and each per-layer measurement repeats about five reps' worth of runs.
constexpr unsigned kTraceReps = 3;
constexpr size_t kLayerRunsPerOp = 5;

/// An end-to-end metric and the rule `compare` applies to it: a change
/// regresses when its median is worse than the parent's by more than
/// max(Bound × parent median, Floor). BENCHMARK.json declares the same
/// names, units and bounds.
struct E2EMetric {
  const char *Name;
  const char *Unit;
  bool HigherIsBetter;
  double Bound;
  double Floor;
};

constexpr E2EMetric kE2E[] = {
    {"runs_per_s", "runs/s", true, 0.25, 0},
    {"run_us_p50", "us", false, 0.25, 0},
    {"setup_s", "s", false, 0.25, 0.005},
    {"peak_rss_kib", "KiB", false, 0.1, 256},
};

/// The per-layer metrics BENCHMARK.json declares: the ones every workload
/// has. The traced run prints more (setup phases, adv.detect_us, ...) for
/// the workloads where those layers run.
constexpr const char *kDeclaredLayers[] = {
    "types.check_us",
    "ir.lower_us",
    "sem.construct_us",
    "sem.run_us",
    "sem.engine_us",
    "sem.dispatches",
    "sem.ns_per_dispatch",
    "hw.accesses",
    "hw.l1d_hit_ratio",
    "hw.l1i_hit_ratio",
    "hw.ns_per_access",
    "hw.ns_per_access.nopar",
    "hw.ns_per_access.nofill",
    "hw.ns_per_access.partitioned",
    "hw.clone_us",
    "obs.probe_pct",
    "obs.ledger_pct",
    "obs.misses_pct",
    "obs.audit_us",
    "obs.export_us",
    "obs.trace_bytes",
    "adv.audit_us",
    "exp.runner_overhead_pct",
    "trace.overhead_pct",
};

struct Options {
  std::string Workload = "all";
  uint64_t Seed = kDefaultSeed;
  double Seconds = 10;
  bool Trace = false;
  unsigned Runs = 1;
  std::string JsonPath;
  bool Append = false;
  std::string TraceOut = "perf.trace.json";
};

int usage() {
  std::fprintf(stderr,
               "usage: zam_perf [--workload NAME|all] [--seed N] "
               "[--seconds S] [--trace 0|1]\n"
               "                [--runs N] [--json|--append FILE] [--trace-out FILE]\n"
               "       zam_perf compare PARENT.json CHANGE.json\n");
  return 2;
}

bool parseUnsigned(const char *S, uint64_t &Out) {
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (errno || End == S || *End || S[0] == '-')
    return false;
  Out = V;
  return true;
}

bool parseOptions(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    const std::string A = Argv[I];
    if (I + 1 == Argc)
      return false;
    const char *V = Argv[++I];
    uint64_t N = 0;
    if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      if (!parseUnsigned(V, O.Seed))
        return false;
    } else if (A == "--seconds") {
      char *End = nullptr;
      O.Seconds = std::strtod(V, &End);
      if (End == V || *End || !(O.Seconds > 0) || O.Seconds > 3600)
        return false;
    } else if (A == "--trace") {
      if (std::strcmp(V, "0") && std::strcmp(V, "1"))
        return false;
      O.Trace = V[0] == '1';
    } else if (A == "--runs") {
      if (!parseUnsigned(V, N) || N == 0 || N > 1000)
        return false;
      O.Runs = static_cast<unsigned>(N);
    } else if (A == "--json" || A == "--append") {
      O.JsonPath = V;
      O.Append = A == "--append";
    } else if (A == "--trace-out") {
      O.TraceOut = V;
    } else {
      return false;
    }
  }
  return O.Workload == "all" || makeWorkload(O.Workload) != nullptr;
}

/// The process's peak resident set (VmHWM). Unlike getrusage's ru_maxrss,
/// it covers only this program image: Linux carries the peak of the image
/// an exec replaced (the launcher's forked copy) into ru_maxrss.
double peakRssKib() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr);
  return 0;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

std::string hex(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "0x%016" PRIx64, V);
  return Buf;
}

/// A speed-only change must leave simulated results bit-identical: at the
/// committed seed, the digest of each workload's first runs must equal
/// expected.json's. \returns false on a mismatch.
bool checkDigest(const Workload &W, uint64_t Seed) {
  std::printf("  %-14s digest %s over its first %u runs\n", W.name(),
              hex(W.digest()).c_str(), Workload::kDigestRuns);
  std::optional<JsonValue> Doc =
      JsonValue::parse(readFile(ZAM_PERF_DIR "/expected.json"));
  const JsonValue *S = Doc ? Doc->find("seed") : nullptr;
  if (!S || static_cast<uint64_t>(S->asNumber()) != Seed)
    return true;
  if (!W.digestComplete()) {
    std::printf("  %-14s digest not checked: fewer than %u runs\n", W.name(),
                Workload::kDigestRuns);
    return true;
  }
  const JsonValue *D = Doc->find("digests");
  const JsonValue *Want = D ? D->find(W.name()) : nullptr;
  if (Want && Want->asString() == hex(W.digest()))
    return true;
  std::printf("  %-14s DIGEST MISMATCH: expected %s\n", W.name(),
              Want ? Want->asString().c_str() : "(none committed)");
  return false;
}

void printMetric(const char *Workload, const Metric &M) {
  std::printf("  %-14s %-30s %14.4f %s\n", Workload, M.Name.c_str(), M.Value,
              M.Unit.c_str());
}

/// The shortest text that reads back as \p V, in plain decimal where that
/// is no longer (11260, not 1.126e+04).
std::string number(double V) {
  char Buf[32];
  return std::string(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
}

/// The result line: exactly the keys correct, attempted, failed, metrics.
void printResult(const Tally &T, const MetricList &Metrics) {
  std::string S = "{\"correct\": ";
  S += T.Failed == 0 ? "true" : "false";
  S += ", \"attempted\": " + std::to_string(T.Attempted);
  S += ", \"failed\": " + std::to_string(T.Failed);
  S += ", \"metrics\": {";
  for (size_t I = 0; I != Metrics.size(); ++I) {
    S += I ? ", " : "";
    S += "\"" + Metrics[I].Name + "\": {\"value\": " +
         number(Metrics[I].Value) + ", \"unit\": \"" +
         Metrics[I].Unit + "\"}";
  }
  S += "}}";
  std::printf("%s\n", S.c_str());
}

/// pin(I) moves the process to the I-th CPU it may run on (modulo their
/// count), so a best-of over consecutive I samples every core: the host's
/// noise depends on the core. Restores the original CPU mask on
/// destruction.
class CoreRotation {
public:
  CoreRotation() {
    CPU_ZERO(&Original);
    if (sched_getaffinity(0, sizeof(Original), &Original) == 0)
      for (int C = 0; C != CPU_SETSIZE; ++C)
        if (CPU_ISSET(C, &Original))
          Cpus.push_back(C);
  }
  ~CoreRotation() {
    if (!Cpus.empty())
      sched_setaffinity(0, sizeof(Original), &Original);
  }
  CoreRotation(const CoreRotation &) = delete;
  CoreRotation &operator=(const CoreRotation &) = delete;

  void pin(size_t I) {
    if (Cpus.empty())
      return;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpus[I % Cpus.size()], &One);
    sched_setaffinity(0, sizeof(One), &One);
  }

private:
  cpu_set_t Original;
  std::vector<int> Cpus;
};

size_t scaledOps(const Workload &W, double Seconds) {
  return std::max<size_t>(
      1, static_cast<size_t>(std::llround(
             static_cast<double>(W.opsPerRep()) * Seconds / 10)));
}

/// The run_us percentile with at least ten samples beyond it.
void printTail(const char *Name, const std::vector<double> &Lat) {
  for (double P : {0.999, 0.99, 0.9, 0.5}) {
    const double Beyond = (1 - P) * static_cast<double>(Lat.size());
    if (Beyond < 10)
      continue;
    std::printf("  %-14s run_us_p%-5g %14.4f us (n=%zu, %.0f beyond; "
                "diagnostic)\n",
                Name, P * 100, quantile(Lat, P), Lat.size(), Beyond);
    return;
  }
}

int runEndToEnd(Workload &W, const Options &O, Tally &T) {
  const size_t Ops = scaledOps(W, O.Seconds);
  // Reserved up front so the latency log's growth adds nothing to the
  // peak RSS the workload reports.
  std::vector<double> Rates, P50s, AllLat, SetupS;
  AllLat.reserve(Ops * kReps);
  CoreRotation Cores;
  for (unsigned R = 0; R != kReps; ++R) {
    if (R % kRepsPerSetup == 0) {
      // The setups take their turn over the cores too.
      Cores.pin(R / kRepsPerSetup);
      SetupS.push_back(W.setup(O.Seed).TotalS);
    }
    Cores.pin(R);
    std::vector<double> Lat;
    Lat.reserve(Ops);
    auto T0 = Clock::now();
    W.runOps(Ops, Lat, T);
    const double Us = elapsedUs(T0, Clock::now());
    Rates.push_back(static_cast<double>(Ops) * 1e6 / Us);
    P50s.push_back(median(Lat));
    AllLat.insert(AllLat.end(), Lat.begin(), Lat.end());
  }
  const bool DigestOk = checkDigest(W, O.Seed);
  if (!DigestOk)
    T.Failed = T.Attempted;

  const double Values[] = {*std::max_element(Rates.begin(), Rates.end()),
                            *std::min_element(P50s.begin(), P50s.end()),
                            median(SetupS), peakRssKib()};
  static_assert(std::size(Values) == std::size(kE2E));
  MetricList M;
  for (size_t I = 0; I != std::size(kE2E); ++I)
    M.push_back({kE2E[I].Name, Values[I], kE2E[I].Unit});
  for (const Metric &X : M)
    printMetric(W.name(), X);
  const double RateMed = median(Rates);
  std::printf("  %-14s runs_per_s median over reps %.4f, IQR %.2f%% "
              "(%zu runs per rep; diagnostic)\n",
              W.name(), RateMed, iqr(Rates) / RateMed * 100, Ops);
  printTail(W.name(), AllLat);
  std::printf("  %-14s fail_frac %" PRIu64 "/%" PRIu64 "\n", W.name(),
              T.Failed, T.Attempted);
  printResult(T, M);
  return T.Failed == 0 ? 0 : 1;
}

int runTraced(Workload &W, const Options &O, Tally &T,
              const std::vector<SetupSplit> &Splits) {
  const size_t Ops = scaledOps(W, O.Seconds);
  const size_t RepOps = std::max<size_t>(1, Ops / 2);
  SpanRecorder Spans;
  const uint32_t Root = Spans.begin("workload", 0);
  std::vector<double> Untraced, Traced;
  CoreRotation Cores;
  for (unsigned R = 0; R != kTraceReps; ++R) {
    Cores.pin(R);
    std::vector<double> Lat;
    auto T0 = Clock::now();
    W.runOps(RepOps, Lat, T);
    Untraced.push_back(static_cast<double>(RepOps) * 1e6 /
                       elapsedUs(T0, Clock::now()));
    SpanScope Rep(&Spans, "rep", Root);
    T0 = Clock::now();
    W.runOpsTraced(RepOps, Spans, Rep.id(), T);
    Traced.push_back(static_cast<double>(RepOps) * 1e6 /
                     elapsedUs(T0, Clock::now()));
  }
  Spans.end(Root);
  if (!checkDigest(W, O.Seed))
    T.Failed = T.Attempted;

  MetricList M;
  auto setupMedian = [&](double SetupSplit::*Field, const char *Name) {
    std::vector<double> V;
    for (const SetupSplit &S : Splits)
      if (S.*Field >= 0)
        V.push_back(S.*Field);
    if (!V.empty())
      M.push_back({Name, median(V), "us"});
  };
  setupMedian(&SetupSplit::BuildUs, "apps.build_us");
  setupMedian(&SetupSplit::CalibrateUs, "apps.calibrate_us");
  setupMedian(&SetupSplit::ParseUs, "lang.parse_us");
  setupMedian(&SetupSplit::CheckUs, "types.check_us");
  measureLayers(W, kLayerRunsPerOp * Ops, M, T);
  W.extraLayers(O.Seconds, M, T);
  const double Best = *std::max_element(Untraced.begin(), Untraced.end());
  const double BestTraced = *std::max_element(Traced.begin(), Traced.end());
  M.push_back({"trace.overhead_pct", (Best / BestTraced - 1) * 100, "%"});
  for (const Metric &X : M)
    printMetric(W.name(), X);

  std::printf("  %-14s span self time (µs):\n", W.name());
  for (const auto &[Name, S] : Spans.selfTimes())
    std::printf("  %-14s   %-14s n=%-8" PRIu64 " total %12.1f  self %12.1f\n",
                W.name(), Name.c_str(), S.Count, S.TotalUs, S.SelfUs);
  if (!Spans.writeChrome(O.TraceOut, W.name())) {
    std::fprintf(stderr, "error: cannot write '%s'\n", O.TraceOut.c_str());
    return 1;
  }
  std::printf("  %-14s wrote %zu spans to %s\n", W.name(),
              Spans.spans().size(), O.TraceOut.c_str());
  std::printf("  %-14s fail_frac %" PRIu64 "/%" PRIu64 "\n", W.name(),
              T.Failed, T.Attempted);

  MetricList Declared;
  for (const char *Name : kDeclaredLayers)
    for (const Metric &X : M)
      if (X.Name == Name)
        Declared.push_back(X);
  printResult(T, Declared);
  return T.Failed == 0 ? 0 : 1;
}

int runOne(const Options &O) {
  std::unique_ptr<Workload> W = makeWorkload(O.Workload);
  std::printf("%s (seed %" PRIu64 ", %g s budget, %s)\n", W->name(), O.Seed,
              O.Seconds, O.Trace ? "traced" : "untraced");
  Tally T;
  if (!O.Trace)
    return runEndToEnd(*W, O, T);
  std::vector<SetupSplit> Splits;
  {
    CoreRotation Cores;
    for (unsigned I = 0; I != kTraceSetups; ++I) {
      Cores.pin(I);
      Splits.push_back(W->setup(O.Seed));
    }
  }
  return runTraced(*W, O, T, Splits);
}

std::string shellQuote(const std::string &S) {
  std::string Out = "'";
  for (char C : S)
    Out += C == '\'' ? std::string("'\\''") : std::string(1, C);
  return Out + "'";
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0)
      return Line.substr(Line.find(':') + 2);
  return "unknown";
}

/// `<stem>.<workload><ext>`: one trace file per workload process.
std::string perWorkloadPath(const std::string &Path, const std::string &W) {
  size_t Dot = Path.rfind('.');
  size_t Slash = Path.rfind('/');
  if (Dot == std::string::npos || (Slash != std::string::npos && Dot < Slash))
    return Path + "." + W;
  return Path.substr(0, Dot) + "." + W + Path.substr(Dot);
}

std::optional<JsonValue> loadSet(const char *Path) {
  std::optional<JsonValue> Doc = JsonValue::parse(readFile(Path));
  if (!Doc || !Doc->find("runs"))
    std::fprintf(stderr, "error: '%s' is not a zam_perf set file\n", Path);
  return Doc && Doc->find("runs") ? Doc : std::nullopt;
}

/// Runs every workload in its own process, one after another.
int runAll(const Options &O) {
  char Self[4096];
  ssize_t Len = readlink("/proc/self/exe", Self, sizeof(Self) - 1);
  if (Len <= 0) {
    std::fprintf(stderr, "error: cannot locate the zam_perf binary\n");
    return 1;
  }
  Self[Len] = 0;

  JsonValue Set = JsonValue::object();
  if (O.Append && std::ifstream(O.JsonPath)) {
    std::optional<JsonValue> Old = loadSet(O.JsonPath.c_str());
    if (!Old)
      return 1;
    Set = std::move(*Old);
  } else {
    JsonValue Host = JsonValue::object();
    Host["nproc"] = JsonValue(std::thread::hardware_concurrency());
    Host["cpu"] = JsonValue(cpuModel());
    Host["git"] = JsonValue(buildGitHash());
    Host["compiler"] = JsonValue(buildCompiler());
    Host["build_type"] = JsonValue(buildType());
    Set["host"] = std::move(Host);
    Set["seconds"] = JsonValue(O.Seconds);
    Set["trace"] = JsonValue(O.Trace);
    Set["runs"] = JsonValue::object();
  }
  JsonValue &Runs = Set["runs"];
  bool Ok = true;

  for (unsigned R = 0; R != O.Runs; ++R)
    for (const std::string &Name : workloadNames()) {
      char Args[256];
      std::snprintf(Args, sizeof(Args),
                    " --workload %s --seed %" PRIu64 " --seconds %.17g "
                    "--trace %d",
                    Name.c_str(), O.Seed + R, O.Seconds, O.Trace ? 1 : 0);
      std::string Cmd = shellQuote(Self) + Args;
      if (O.Trace)
        Cmd += " --trace-out " + shellQuote(perWorkloadPath(O.TraceOut, Name));
      std::fflush(stdout);
      std::FILE *P = popen(Cmd.c_str(), "r");
      if (!P) {
        std::fprintf(stderr, "error: cannot start '%s'\n", Cmd.c_str());
        return 1;
      }
      std::string Last;
      char Buf[4096];
      while (std::fgets(Buf, sizeof(Buf), P)) {
        std::fputs(Buf, stdout);
        if (Buf[0] != '\n')
          Last = Buf;
      }
      const int Status = pclose(P);
      std::optional<JsonValue> Result = JsonValue::parse(Last);
      if (Status != 0 || !Result || !Result->find("metrics")) {
        std::fprintf(stderr, "error: %s run %u failed\n", Name.c_str(), R);
        Ok = false;
        if (!Result)
          continue;
      }
      (*Result)["seed"] = JsonValue(O.Seed + R);
      JsonValue &List = Runs[Name];
      if (List.isNull())
        List = JsonValue::array();
      List.push(std::move(*Result));
    }

  if (!O.JsonPath.empty()) {
    std::FILE *F = std::fopen(O.JsonPath.c_str(), "w");
    std::string Text = Set.dump();
    if (!F || std::fwrite(Text.data(), 1, Text.size(), F) != Text.size() ||
        std::fclose(F) != 0) {
      std::fprintf(stderr, "error: cannot write '%s'\n", O.JsonPath.c_str());
      return 1;
    }
  }
  return Ok ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// compare
//===----------------------------------------------------------------------===//

/// One run's value of a metric and the seed it ran with.
struct Sample {
  uint64_t Seed = 0;
  double Value = 0;
};

/// \p Metric over the runs of one workload (runs missing it are skipped);
/// fail_frac is each run's failed / attempted.
std::vector<Sample> samplesOf(const JsonValue &Runs, const std::string &Metric) {
  std::vector<Sample> Out;
  for (size_t I = 0; I != Runs.size(); ++I) {
    const JsonValue &R = Runs.at(I);
    const JsonValue *Seed = R.find("seed");
    const uint64_t S = Seed ? static_cast<uint64_t>(Seed->asNumber()) : 0;
    if (Metric == "fail_frac") {
      const JsonValue *A = R.find("attempted"), *F = R.find("failed");
      if (A && F && A->asNumber() > 0)
        Out.push_back({S, F->asNumber() / A->asNumber()});
      continue;
    }
    const JsonValue *Ms = R.find("metrics");
    const JsonValue *M = Ms ? Ms->find(Metric) : nullptr;
    const JsonValue *V = M ? M->find("value") : nullptr;
    if (V)
      Out.push_back({S, V->asNumber()});
  }
  return Out;
}

std::vector<double> valuesOf(const std::vector<Sample> &S) {
  std::vector<double> Out;
  for (const Sample &X : S)
    Out.push_back(X.Value);
  return Out;
}

double mean(const std::vector<double> &V) {
  return std::accumulate(V.begin(), V.end(), 0.0) /
         static_cast<double>(V.size());
}

/// Pairs every change run with an unused parent run of the same seed.
/// \returns {pairs, pairs the change won}; ties count for neither.
std::pair<size_t, size_t> pairWins(const std::vector<Sample> &A,
                                   const std::vector<Sample> &B,
                                   bool HigherIsBetter) {
  std::vector<bool> Used(A.size());
  size_t Pairs = 0, Wins = 0;
  for (const Sample &Y : B)
    for (size_t I = 0; I != A.size(); ++I) {
      if (Used[I] || A[I].Seed != Y.Seed)
        continue;
      Used[I] = true;
      ++Pairs;
      Wins += HigherIsBetter ? Y.Value > A[I].Value : Y.Value < A[I].Value;
      break;
    }
  return {Pairs, Wins};
}

/// The verdict for one workload × metric. A gain needs at least ten pairs,
/// the change winning at least nine tenths of them, and medians further
/// apart than the parent's IQR. A spread wider than the bound leaves the
/// metric unresolved unless every change run beats every parent run.
/// Otherwise a median worse by more than the bound is a regression.
const char *verdict(const E2EMetric &M, const std::vector<double> &A,
                    const std::vector<double> &B, size_t Pairs, size_t Wins) {
  auto better = [&M](double X, double Y) {
    return M.HigherIsBetter ? X > Y : X < Y;
  };
  const double MedA = median(A), MedB = median(B);
  if (Pairs >= 10 && Wins * 10 >= Pairs * 9 &&
      std::fabs(MedB - MedA) > iqr(A) && better(MedB, MedA))
    return "improved";
  const double Allowed = std::max(M.Bound * std::fabs(MedA), M.Floor);
  if (std::max(iqr(A), iqr(B)) > Allowed) {
    bool AllBetter = true;
    for (double X : B)
      for (double Y : A)
        AllBetter &= better(X, Y);
    return AllBetter ? "unchanged" : "unresolved";
  }
  const double Worse = M.HigherIsBetter ? MedA - MedB : MedB - MedA;
  return Worse > Allowed ? "regressed" : "unchanged";
}

int compare(const char *ParentPath, const char *ChangePath) {
  std::optional<JsonValue> Parent = loadSet(ParentPath);
  std::optional<JsonValue> Change = loadSet(ChangePath);
  if (!Parent || !Change)
    return 2;
  std::printf("%-14s %-13s %14s %9s %14s %9s %7s  %s\n", "workload", "metric",
              "parent p50", "IQR%", "change p50", "delta%", "wins",
              "verdict");
  bool Regressed = false;
  for (const auto &[Name, RunsA] : Parent->find("runs")->members()) {
    const JsonValue *RunsB = Change->find("runs")->find(Name);
    if (!RunsB)
      continue;
    // Rule is null for fail_frac, where any increase of the mean regresses.
    auto row = [&](const char *Metric, const E2EMetric *Rule) {
      const std::vector<Sample> SA = samplesOf(RunsA, Metric);
      const std::vector<Sample> SB = samplesOf(*RunsB, Metric);
      if (SA.empty() || SB.empty())
        return;
      const std::vector<double> A = valuesOf(SA), B = valuesOf(SB);
      const auto [Pairs, Wins] =
          pairWins(SA, SB, Rule ? Rule->HigherIsBetter : false);
      const char *V = Rule ? verdict(*Rule, A, B, Pairs, Wins)
                      : mean(B) > mean(A) ? "regressed"
                                          : "unchanged";
      const double MedA = median(A), MedB = median(B);
      std::printf("%-14s %-13s %14.4f %9.2f %14.4f %9.2f %3zu/%-3zu  %s\n",
                  Name.c_str(), Metric, MedA,
                  MedA ? iqr(A) / MedA * 100 : 0.0, MedB,
                  MedA ? (MedB / MedA - 1) * 100 : 0.0, Wins, Pairs, V);
      Regressed |= std::strcmp(V, "regressed") == 0;
    };
    for (const E2EMetric &M : kE2E)
      row(M.Name, &M);
    row("fail_frac", nullptr);
  }
  return Regressed ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc >= 2 && std::strcmp(Argv[1], "compare") == 0) {
    if (Argc != 4)
      return usage();
    return compare(Argv[2], Argv[3]);
  }
  Options O;
  if (!parseOptions(Argc, Argv, O))
    return usage();
  if (O.Workload == "all")
    return runAll(O);
  return runOne(O);
}

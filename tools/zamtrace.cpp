//===- zamtrace.cpp - Offline trace analysis and regression gate ----------===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The offline half of the leakage-observability story. `zamtrace report`
/// streams a telemetry trace (JSONL, Chrome trace-event or ZTB binary, as
/// written by `zamc --trace-out` or a bench's `--trace-out`) through the
/// pull-based TraceReader in a single pass — the file is never loaded
/// whole, so million-window ZTB traces analyze in bounded memory — and
/// produces
///
///   * the adversary-observed timing histogram over mitigate windows
///     (exportable as CSV via `--csv <file>` for outside tooling),
///   * a mitigation overhead attribution (consumed vs padded cycles, per
///     window and aggregate, with mispredicted windows called out), and
///   * an offline recomputation of the Sec. 6 leakage bound from the
///     `leak_budget` spans. The recompute is priced by the mitigation
///     policy the producer recorded — the meta "mitigation" /
///     "mitigation_sites" keys plus any per-span "policy" args (absent
///     keys mean the paper's fast-doubling), so every registered schedule
///     round-trips bit for bit. With `--stats <file>` the recomputed
///     figures are cross-checked bit-for-bit against the online `leak.*`
///     metrics the run exported; any drift is a hard error (exit 1), and
///   * with `--by-line`, the source-attribution profile: per-line windows,
///     padding, leakage bits and sampled misses are rebuilt from the event
///     stream alone (mitigate spans, leak_budget spans, dmiss/imiss
///     instants carrying `loc` args) and checked bit-for-bit against the
///     prof_line#/prof_site# rows the producer embedded (cat "prof");
///     `--check-ledger <file>` additionally compares those rows against a
///     `zamc profile --json` ledger document. Any drift is a hard error.
///     Per-line *cycles* are not reconstructible offline (cache hits are
///     never sampled), so the embedded rows are the ground truth for them.
///
/// Attack observation traces (`zamc attack --trace-out`, cat "adv"
/// records) take a parallel path: the per-sample observations are decoded
/// in record order and the full statistical detector (Welch's t, Cohen's
/// d, Miller–Madow mutual information — src/adv) is rerun offline; with
/// `--stats` the recomputed statistics must match the online `adv.*`
/// metrics bit for bit, and `--csv` exports the per-class end-to-end
/// timing histogram instead of the window histogram. The streaming pass
/// also rebuilds the bounded-memory `dist.*` sketches (obs/Histogram.h) —
/// end-to-end times and window durations for attack traces, per-line
/// costs from the embedded prof rows — and cross-checks any dist.*
/// figures the stats document exports; periodic metrics-snapshot rows
/// (kind "meta", name "snapshot") render as a textual sparkline of the
/// run's trajectory.
///
/// `zamtrace diff A B` compares two runs (traces or stats/report JSON
/// documents). It first demands that both sides recorded the same
/// mitigation-policy selection — a bound that moved because the schedule
/// changed is not a regression signal, so a mismatch is its own loud
/// failure (exit 1) — then exits nonzero when B regresses beyond budget:
/// `--budget-bits X` allows the total leakage bound to grow by at most X
/// bits (default 0), `--budget-pct P` additionally caps the relative
/// growth of mitigation overhead (mit.padded_idle_cycles,
/// mit.mispredictions). CI runs this against committed BENCH_*.json
/// baselines. Only the `metrics` object participates in a diff — `meta`
/// provenance and wall-clock tails never affect the verdict.
///
/// Exit codes: 0 ok, 1 cross-check failure or budget regression, 2 usage
/// or input error.
///
//===----------------------------------------------------------------------===//

#include "adv/LeakDetector.h"
#include "exp/CommandLine.h"
#include "obs/Histogram.h"
#include "obs/Json.h"
#include "obs/LeakAudit.h"
#include "obs/Metrics.h"
#include "obs/TraceReader.h"
#include "sem/Mitigation.h"
#include "support/BuildInfo.h"

#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

using namespace zam;

namespace {

//===----------------------------------------------------------------------===//
// Input classification: traces stream through TraceReader; stats/report
// documents (small by construction) still load whole.
//===----------------------------------------------------------------------===//

/// A parsed stats/report document: the `metrics` object plus the `meta`
/// provenance block when the document had one.
struct StatsDoc {
  JsonValue Meta;
  JsonValue Metrics;
};

/// Prints "error: " and the printf-formatted message to stderr. \returns
/// false.
[[gnu::format(printf, 1, 2)]] bool error(const char *Fmt, ...) {
  std::va_list Args;
  va_start(Args, Fmt);
  std::fputs("error: ", stderr);
  std::vfprintf(stderr, Fmt, Args);
  va_end(Args);
  return false;
}

/// An input that is not what a producer writes: a trace that does not
/// decode, or a record or ledger field that does not hold its type or
/// passes a stated limit. Analysis stops at the first one; main() reports
/// it as an input error (exit 2).
struct BadInput : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] void malformed(const TraceRecord &R, const std::string &What) {
  throw BadInput("record '" + R.Name + "' (cat '" + R.Category + "'): " +
                 What);
}

/// Integer arg \p Key of \p R: 0 when absent; present, it must hold an
/// \p Int.
template <typename Int = uint64_t>
Int intArg(const TraceRecord &R, const char *Key) {
  Int Out = 0;
  if (!R.read(Key, Out))
    malformed(R, std::string("arg '") + Key + "' is '" + R.arg(Key)->str() +
                     "', not an integer in range");
  return Out;
}

/// Field \p Key of row \p Row of a ledger document: 0 when absent; present,
/// it must be an integer a uint64_t holds.
uint64_t numField(const JsonValue &Obj, const char *Key, const char *Row,
                  size_t I) {
  const JsonValue *V = Obj.find(Key);
  if (!V)
    return 0;
  const double D = V->asNumber();
  if (V->isInt() && V->asInt() >= 0)
    return static_cast<uint64_t>(V->asInt());
  if (V->kind() == JsonValue::Kind::Number && D >= 0 && D < 0x1p64 &&
      D == std::floor(D))
    return static_cast<uint64_t>(D);
  throw BadInput("ledger " + std::string(Row) + "[" + std::to_string(I) +
                 "]: field '" + Key + "' is " +
                 (V->kind() == JsonValue::Kind::Number
                      ? jsonNumberString(D)
                      : std::string("not a number")) +
                 ", not an integer in range");
}

std::string strField(const JsonValue &Obj, const char *Key) {
  const JsonValue *V = Obj.find(Key);
  return V && V->kind() == JsonValue::Kind::String ? V->asString()
                                                   : std::string();
}

enum class InputKind { Trace, Stats };

/// A trace (obs/TraceReader.h's sniffTraceFormat says which format) or,
/// for anything else, a stats/report document.
std::optional<InputKind> classifyInput(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    std::fprintf(stderr, "error: cannot read '%s'\n", Path.c_str());
    return std::nullopt;
  }
  const bool Trace = sniffTraceFormat(F).has_value();
  std::fclose(F);
  return Trace ? InputKind::Trace : InputKind::Stats;
}

/// Loads a stats/report document (a JSON object with a `metrics` member).
std::optional<StatsDoc> loadStats(const std::string &Path) {
  std::optional<std::string> Text = readFile(Path);
  if (!Text)
    return std::nullopt;
  std::optional<JsonValue> Whole = JsonValue::parse(*Text);
  if (!Whole || Whole->kind() != JsonValue::Kind::Object ||
      !Whole->find("metrics")) {
    std::fprintf(stderr, "error: '%s' has no metrics object\n",
                 Path.c_str());
    return std::nullopt;
  }
  StatsDoc Doc;
  Doc.Metrics = *Whole->find("metrics");
  if (const JsonValue *Meta = Whole->find("meta"))
    Doc.Meta = *Meta;
  return Doc;
}

//===----------------------------------------------------------------------===//
// Report: histogram, overhead attribution, offline leakage recompute.
//===----------------------------------------------------------------------===//

/// One mitigate window's cost split, from a `mit` span.
struct WindowCost {
  std::string Name;
  uint64_t Ts = 0;
  uint64_t Dur = 0;
  uint64_t Consumed = 0;
  uint64_t Padded = 0;
  bool Mispredicted = false;
};

/// Per-level offline leakage account, rebuilt from `leak_budget` spans in
/// trace order so the double sums match the online accountant bit for bit.
struct LevelRecompute {
  uint64_t Windows = 0;
  unsigned Misses = 0;
  double BitsBound = 0;
};

/// One source line's profile, as seen offline: the independently
/// rebuildable slice (windows, padding, leak bits, sampled misses) plus
/// the embedded prof_line# row when the producer attached one.
struct LineRebuild {
  uint64_t Windows = 0;
  uint64_t PadCycles = 0;
  uint64_t Misses = 0;
  double LeakBits = 0;
  bool HasEmbedded = false;
  uint64_t EmbCycles = 0;
  uint64_t EmbStepCycles = 0;
  uint64_t EmbSleepCycles = 0;
  uint64_t EmbPadCycles = 0;
  uint64_t EmbAccesses = 0;
  uint64_t EmbMisses = 0;
  uint64_t EmbWindows = 0;
  double EmbLeakBits = 0;
};

/// One mitigate site's profile, rebuilt from its spans.
struct SiteRebuild {
  uint64_t Line = 0;
  uint64_t Windows = 0;
  uint64_t PadCycles = 0;
  double LeakBits = 0;
  bool HasEmbedded = false;
  uint64_t EmbLine = 0;
  uint64_t EmbWindows = 0;
  uint64_t EmbPadCycles = 0;
  double EmbLeakBits = 0;
};

/// The mitigation-policy selection a trace recorded: the meta
/// "mitigation"/"mitigation_sites" keys plus any per-span "policy" args.
/// Owns every parsed policy for the analysis' lifetime; absent keys
/// resolve to the paper's fast-doubling, so pre-policy traces and
/// default-run traces price identically.
struct PolicyResolver {
  std::map<std::string, MitigationPolicyPtr, std::less<>> BySpec;
  std::vector<MitigationPolicyPtr> SiteOverrides;
  PolicySelection Sel;

  /// Parses \p Spec once and caches it, so repeated per-span "policy"
  /// args don't re-parse.
  const MitigationPolicy *intern(std::string_view Spec, std::string *Err) {
    auto It = BySpec.find(Spec);
    if (It == BySpec.end()) {
      MitigationPolicyPtr P = parseMitigationPolicy(std::string(Spec), Err);
      if (!P)
        return nullptr;
      It = BySpec.emplace(Spec, std::move(P)).first;
    }
    return It->second.get();
  }

  /// Loads the run-wide selection from a trace/stats meta block.
  bool loadMeta(const JsonValue &Meta) {
    std::string Err;
    const std::string Def = strField(Meta, "mitigation");
    if (!Def.empty()) {
      const MitigationPolicy *P = intern(Def, &Err);
      if (!P)
        return error("trace meta 'mitigation': %s\n", Err.c_str());
      Sel.Default = P;
    }
    const std::string Sites = strField(Meta, "mitigation_sites");
    for (size_t Pos = 0; Pos < Sites.size();) {
      const size_t Comma = std::min(Sites.find(',', Pos), Sites.size());
      const std::string Item = Sites.substr(Pos, Comma - Pos);
      Pos = Comma + 1;
      std::optional<SiteOverride> Site = parseSiteOverride(Item, Err);
      if (!Site && Err.empty())
        return error("trace meta 'mitigation_sites' entry '%s' is not "
                     "ETA=SPEC\n",
                     Item.c_str());
      if (!Site)
        return error("trace meta 'mitigation_sites': %s\n", Err.c_str());
      Sel.overrideSite(Site->Eta, *Site->Policy);
      SiteOverrides.push_back(std::move(Site->Policy));
    }
    return true;
  }

  /// The policy pricing one leak span: its own "policy" arg wins, then
  /// the meta selection (per-site override, then run default, then
  /// fast-doubling).
  const MitigationPolicy *resolve(std::string_view SpanPolicy, uint64_t Eta,
                                  std::string *Err) {
    if (!SpanPolicy.empty())
      return intern(SpanPolicy, Err);
    return &Sel.forSite(static_cast<unsigned>(Eta));
  }

  /// One-line description for reports and the diff gate.
  std::string description() const {
    std::string Out = Sel.base().spec();
    if (!Sel.PerSite.empty())
      Out += " [" + formatSiteOverrides(Sel) + "]";
    return Out;
  }
};

struct Analysis {
  PolicyResolver Policies;
  /// The provenance header (the stream's leading nameless meta record),
  /// rebuilt as a JSON object for reports.
  JsonValue Meta;
  std::vector<WindowCost> Windows;
  std::map<uint64_t, uint64_t> DurationHistogram;
  uint64_t TotalCycles = 0;
  uint64_t ConsumedCycles = 0;
  uint64_t PaddedCycles = 0;
  uint64_t MispredictedWindows = 0;
  uint64_t MispredictedCycles = 0;
  /// Level name -> account, insertion-ordered by first appearance.
  std::vector<std::pair<std::string, LevelRecompute>> Levels;
  uint64_t LeakWindows = 0;
  /// The per-line / per-site source profile (--by-line).
  std::map<uint64_t, LineRebuild> Lines;
  std::map<uint64_t, SiteRebuild> Sites;
  bool HasProf = false; ///< The trace embedded prof_line#/prof_site# rows.
  bool SawHwInstants = false; ///< The trace sampled misses (loc-tagged).
  /// Attack observations (cat "adv" instants) in record order — the
  /// collector's drain order, so detector sums replay bit-for-bit. The
  /// compact form retains only what the detector needs (~24 bytes per
  /// sample), so a million-sample trace analyzes in bounded memory.
  std::vector<CompactObservation> AdvObs;
  std::vector<std::string> AdvClassNames; ///< ClassIndex -> display name.
  /// Offline rebuilds of the online dist.* sketches, fed during the
  /// streaming pass: end-to-end times and per-sample window durations
  /// (attack traces only; both are order-free integer sums).
  LogLinearHistogram EndToEndDist;
  LogLinearHistogram WindowDist;
  /// Periodic metrics-snapshot rows (kind "meta", name "snapshot"), in
  /// stream order: the arg key the sparkline plots plus one value per row.
  std::string SnapshotKey;
  std::vector<double> SnapshotValues;
};

/// The index of "mitigate#3" / "leak_budget#3" / "prof_site#3" (the line
/// of "prof_line#3").
uint64_t indexOf(const TraceRecord &R) {
  if (!R.Index)
    malformed(R, "the index after '#' is not an integer in range");
  return *R.Index;
}

/// Attack traces name their classes by index; a larger index is not one
/// `zamc attack` writes, and would size the class table to it.
constexpr uint32_t kMaxClassIndex = 65535;

LevelRecompute &levelAccount(Analysis &A, std::string_view Name) {
  for (auto &[N, Acc] : A.Levels)
    if (N == Name)
      return Acc;
  A.Levels.emplace_back(Name, LevelRecompute{});
  return A.Levels.back().second;
}

/// Streams the trace once through \p Reader: mit spans feed the histogram
/// and the overhead attribution; leak spans are re-priced with the shared
/// bound core and checked against the online figures the producer embedded
/// in the span args; adv instants feed the compact detector rows and the
/// dist.* sketches. Only aggregates are retained, so the pass runs in
/// memory proportional to the analysis, not the trace. \returns false
/// (after a diagnostic) on any drift; throws BadInput on a trace that does
/// not decode.
bool analyzeTrace(TraceReader &Reader, Analysis &A) {
  TraceRecord R;
  auto flag = [&R](const char *Key) {
    return R.get<bool>(Key).value_or(false);
  };
  while (Reader.next(R)) {
    switch (R.Type) {
    case TraceRecordType::Header:
      // Load the mitigation-policy selection now, before any leak span
      // needs pricing.
      A.Meta = R.argsJson();
      if (!A.Policies.loadMeta(A.Meta))
        return false;
      break;
    case TraceRecordType::Snapshot:
    case TraceRecordType::AttackSnapshot: {
      // A periodic metrics snapshot. The first row picks the series the
      // sparkline plots: the attack collector's running median, else the
      // leak accountant's running bound, else any numeric arg.
      if (A.SnapshotKey.empty()) {
        for (const char *K : {"end_to_end_p50", "total_bits_bound"})
          if (R.arg(K)) {
            A.SnapshotKey = K;
            break;
          }
        for (const TraceArg &Arg : R.Args)
          if (A.SnapshotKey.empty() && Arg.as<double>())
            A.SnapshotKey = Arg.Key;
      }
      if (const std::optional<double> V = R.get<double>(A.SnapshotKey))
        A.SnapshotValues.push_back(*V);
      break;
    }
    case TraceRecordType::DMiss:
    case TraceRecordType::IMiss:
      // One sampled access; each structure it missed in contributes one
      // per-structure miss, the same tally the online ledger keeps.
      A.SawHwInstants = true;
      A.Lines[intArg(R, "loc")].Misses +=
          flag("tlb_miss") + flag("l1_miss") + flag("memory");
      break;
    case TraceRecordType::Sample: {
      // One attack sample. bound_bits comes back as the exact double the
      // collector recorded.
      CompactObservation O;
      const uint64_t Class = intArg(R, "class_index");
      if (Class > kMaxClassIndex)
        malformed(R, "arg 'class_index' is " + std::to_string(Class) +
                         ", above the limit of " +
                         std::to_string(kMaxClassIndex));
      O.ClassIndex = static_cast<uint32_t>(Class);
      O.EndToEnd = intArg(R, "end_to_end");
      O.BoundBits = R.get<double>("bound_bits").value_or(O.BoundBits);
      if (A.AdvClassNames.size() <= O.ClassIndex)
        A.AdvClassNames.resize(O.ClassIndex + 1);
      const std::string_view Cls =
          R.get<std::string_view>("class").value_or("");
      if (!Cls.empty())
        A.AdvClassNames[O.ClassIndex] = Cls;
      A.EndToEndDist.add(O.EndToEnd);
      if (const TraceArg *W = R.arg("windows")) {
        if (W->Type != TraceArgType::U64List)
          malformed(R, "arg 'windows' is '" + W->str() +
                           "', not a list of integers");
        for (const uint64_t D : W->List)
          A.WindowDist.add(D);
      }
      A.AdvObs.push_back(O);
      break;
    }
    case TraceRecordType::ProfLine: {
      A.HasProf = true;
      LineRebuild &L = A.Lines[indexOf(R)];
      L.HasEmbedded = true;
      L.EmbCycles = intArg(R, "cycles");
      L.EmbStepCycles = intArg(R, "step_cycles");
      L.EmbSleepCycles = intArg(R, "sleep_cycles");
      L.EmbPadCycles = intArg(R, "pad_cycles");
      L.EmbAccesses = intArg(R, "accesses");
      L.EmbMisses = intArg(R, "misses");
      L.EmbWindows = intArg(R, "windows");
      L.EmbLeakBits = R.get<double>("leak_bits").value_or(L.EmbLeakBits);
      break;
    }
    case TraceRecordType::ProfSite: {
      A.HasProf = true;
      SiteRebuild &S = A.Sites[indexOf(R)];
      S.HasEmbedded = true;
      S.EmbLine = intArg(R, "loc");
      S.EmbWindows = intArg(R, "windows");
      S.EmbPadCycles = intArg(R, "pad_cycles");
      S.EmbLeakBits = R.get<double>("leak_bits").value_or(S.EmbLeakBits);
      break;
    }
    case TraceRecordType::Mitigate: {
      WindowCost W;
      W.Name = R.Name;
      W.Ts = R.Ts;
      W.Dur = R.Dur;
      W.Consumed = intArg(R, "consumed");
      W.Padded = intArg(R, "padded");
      W.Mispredicted = flag("mispredicted");
      A.TotalCycles += W.Dur;
      A.ConsumedCycles += W.Consumed;
      A.PaddedCycles += W.Padded;
      if (W.Mispredicted) {
        ++A.MispredictedWindows;
        A.MispredictedCycles += W.Dur;
      }
      ++A.DurationHistogram[W.Dur];
      const uint64_t Loc = intArg(R, "loc");
      LineRebuild &L = A.Lines[Loc];
      ++L.Windows;
      L.PadCycles += W.Padded;
      SiteRebuild &S = A.Sites[indexOf(R)];
      S.Line = Loc;
      ++S.Windows;
      S.PadCycles += W.Padded;
      A.Windows.push_back(std::move(W));
      break;
    }
    case TraceRecordType::LeakBudget: {
      const std::string_view Level =
          R.get<std::string_view>("level").value_or("");
      const int64_t Estimate = intArg<int64_t>(R, "estimate");
      const uint64_t Attainable = intArg(R, "attainable");
      const std::optional<double> WindowBits = R.get<double>("window_bits");
      const std::optional<double> CumBits = R.get<double>("cum_level_bits");
      if (Level.empty() || !WindowBits || !CumBits)
        return error("leak span '%s' is missing args\n", R.Name.c_str());
      const uint64_t Completed = R.Ts + R.Dur;
      std::string PErr;
      const MitigationPolicy *Pol = A.Policies.resolve(
          R.get<std::string_view>("policy").value_or(""), indexOf(R), &PErr);
      if (!Pol)
        return error("leak span '%s' policy arg: %s\n", R.Name.c_str(),
                     PErr.c_str());
      const uint64_t WantAttainable =
          Pol->attainableValues(Estimate, Completed);
      const double WantBits = Pol->windowBoundBits(Estimate, Completed);
      if (Attainable != WantAttainable || *WindowBits != WantBits)
        return error("leak span '%s' drifted from the bound core: "
                     "attainable %" PRIu64 " (recomputed %" PRIu64
                     "), window_bits %s (recomputed %s)\n",
                     R.Name.c_str(), Attainable, WantAttainable,
                     jsonNumberString(*WindowBits).c_str(),
                     jsonNumberString(WantBits).c_str());
      LevelRecompute &Acc = levelAccount(A, Level);
      ++Acc.Windows;
      Acc.Misses = intArg<unsigned>(R, "misses_after");
      Acc.BitsBound += WantBits;
      if (*CumBits != Acc.BitsBound)
        return error("leak span '%s' cumulative bound drifted: "
                     "cum_level_bits %s, recomputed %s\n",
                     R.Name.c_str(), jsonNumberString(*CumBits).c_str(),
                     jsonNumberString(Acc.BitsBound).c_str());
      // Per-line / per-site replay for --by-line: trace order is the
      // accountant's arrival order, so these double sums are bit-exact.
      A.Lines[intArg(R, "loc")].LeakBits += WantBits;
      A.Sites[indexOf(R)].LeakBits += WantBits;
      ++A.LeakWindows;
      break;
    }
    default:
      break;
    }
  }
  if (!Reader.ok())
    throw BadInput("trace decode: " + Reader.error());
  return true;
}

/// Verifies the independently-rebuilt per-line/per-site figures against the
/// embedded prof rows: windows, padding and leak bits always; sampled
/// misses when the trace carries hw instants. Any drift is a hard error.
bool checkProfAgainstRebuild(const Analysis &A) {
  if (!A.HasProf)
    return error("trace has no prof_line#/prof_site# rows (produce one "
                 "with `zamc profile --trace-out`)\n");
  bool Ok = true;
  auto Fail = [&Ok](const char *Scope, uint64_t Id, const char *What,
                    const std::string &Rebuilt, const std::string &Embedded) {
    std::fprintf(stderr,
                 "error: by-line drift at %s %" PRIu64 ": %s rebuilt %s, "
                 "embedded %s\n",
                 Scope, Id, What, Rebuilt.c_str(), Embedded.c_str());
    Ok = false;
  };
  auto U = [](uint64_t V) { return std::to_string(V); };
  for (const auto &[Line, L] : A.Lines) {
    if (!L.HasEmbedded) {
      Fail("line", Line, "row", "present", "missing");
      continue;
    }
    if (L.Windows != L.EmbWindows)
      Fail("line", Line, "windows", U(L.Windows), U(L.EmbWindows));
    if (L.PadCycles != L.EmbPadCycles)
      Fail("line", Line, "pad_cycles", U(L.PadCycles), U(L.EmbPadCycles));
    if (L.LeakBits != L.EmbLeakBits)
      Fail("line", Line, "leak_bits", jsonNumberString(L.LeakBits),
           jsonNumberString(L.EmbLeakBits));
    if (A.SawHwInstants || L.EmbMisses == 0)
      if (L.Misses != L.EmbMisses)
        Fail("line", Line, "misses", U(L.Misses), U(L.EmbMisses));
  }
  for (const auto &[Eta, S] : A.Sites) {
    if (!S.HasEmbedded) {
      Fail("site", Eta, "row", "present", "missing");
      continue;
    }
    if (S.Line != S.EmbLine)
      Fail("site", Eta, "loc", U(S.Line), U(S.EmbLine));
    if (S.Windows != S.EmbWindows)
      Fail("site", Eta, "windows", U(S.Windows), U(S.EmbWindows));
    if (S.PadCycles != S.EmbPadCycles)
      Fail("site", Eta, "pad_cycles", U(S.PadCycles), U(S.EmbPadCycles));
    if (S.LeakBits != S.EmbLeakBits)
      Fail("site", Eta, "leak_bits", jsonNumberString(S.LeakBits),
           jsonNumberString(S.EmbLeakBits));
  }
  return Ok;
}

/// Compares the embedded prof rows against a `zamc profile --json`
/// document's "ledger" object. Exact equality on every shared field.
bool checkLedgerDocument(const Analysis &A, const std::string &Path) {
  std::optional<std::string> Text = readFile(Path);
  if (!Text)
    return false;
  std::optional<JsonValue> Doc = JsonValue::parse(*Text);
  const JsonValue *Ledger =
      Doc && Doc->kind() == JsonValue::Kind::Object ? Doc->find("ledger")
                                                    : nullptr;
  if (!Ledger)
    return error("'%s' has no ledger object (write one with `zamc profile "
                 "--json`)\n",
                 Path.c_str());
  bool Ok = true;
  auto Fail = [&Ok, &Path](const char *Scope, uint64_t Id, const char *What,
                           const std::string &Trace,
                           const std::string &File) {
    std::fprintf(stderr,
                 "error: ledger mismatch at %s %" PRIu64
                 ": %s is %s in the trace, %s in %s\n",
                 Scope, Id, What, Trace.c_str(), File.c_str(), Path.c_str());
    Ok = false;
  };
  auto U = [](uint64_t V) { return std::to_string(V); };

  const JsonValue *LineArr = Ledger->find("lines");
  const JsonValue *SiteArr = Ledger->find("sites");
  size_t FileLines = 0, FileSites = 0;
  if (LineArr && LineArr->kind() == JsonValue::Kind::Array) {
    FileLines = LineArr->size();
    for (size_t I = 0; I != LineArr->size(); ++I) {
      const JsonValue &O = LineArr->at(I);
      auto Num = [&](const char *Key) { return numField(O, Key, "lines", I); };
      const uint64_t Line = Num("line");
      auto It = A.Lines.find(Line);
      if (It == A.Lines.end() || !It->second.HasEmbedded) {
        Fail("line", Line, "row", "missing", "present");
        continue;
      }
      const LineRebuild &L = It->second;
      for (const auto &[Key, Emb] :
           {std::pair{"cycles", L.EmbCycles}, {"step_cycles", L.EmbStepCycles},
            {"sleep_cycles", L.EmbSleepCycles}, {"pad_cycles", L.EmbPadCycles},
            {"accesses", L.EmbAccesses}, {"windows", L.EmbWindows}})
        if (Emb != Num(Key))
          Fail("line", Line, Key, U(Emb), U(Num(Key)));
      const JsonValue *Bits = O.find("leak_bits");
      if (!Bits || L.EmbLeakBits != Bits->asNumber())
        Fail("line", Line, "leak_bits", jsonNumberString(L.EmbLeakBits),
             Bits ? jsonNumberString(Bits->asNumber()) : "absent");
    }
  }
  if (SiteArr && SiteArr->kind() == JsonValue::Kind::Array) {
    FileSites = SiteArr->size();
    for (size_t I = 0; I != SiteArr->size(); ++I) {
      const JsonValue &O = SiteArr->at(I);
      auto Num = [&](const char *Key) { return numField(O, Key, "sites", I); };
      const uint64_t Eta = Num("eta");
      auto It = A.Sites.find(Eta);
      if (It == A.Sites.end() || !It->second.HasEmbedded) {
        Fail("site", Eta, "row", "missing", "present");
        continue;
      }
      const SiteRebuild &S = It->second;
      for (const auto &[Key, Emb] :
           {std::pair{"line", S.EmbLine}, {"windows", S.EmbWindows},
            {"pad_cycles", S.EmbPadCycles}})
        if (Emb != Num(Key))
          Fail("site", Eta, Key, U(Emb), U(Num(Key)));
      const JsonValue *Bits = O.find("leak_bits");
      if (!Bits || S.EmbLeakBits != Bits->asNumber())
        Fail("site", Eta, "leak_bits", jsonNumberString(S.EmbLeakBits),
             Bits ? jsonNumberString(Bits->asNumber()) : "absent");
    }
  }
  size_t TraceLines = 0, TraceSites = 0;
  for (const auto &[Line, L] : A.Lines)
    TraceLines += L.HasEmbedded;
  for (const auto &[Eta, S] : A.Sites)
    TraceSites += S.HasEmbedded;
  if (TraceLines != FileLines)
    Fail("ledger", 0, "line count", U(TraceLines), U(FileLines));
  if (TraceSites != FileSites)
    Fail("ledger", 0, "site count", U(TraceSites), U(FileSites));
  return Ok;
}

/// The --by-line view: the per-line table (embedded rows are the cycle
/// ground truth; everything else was independently rebuilt and verified)
/// followed by the site table.
void printByLine(const Analysis &A) {
  std::printf("\nper-line profile (offline rebuild, verified against "
              "embedded rows):\n");
  std::printf("  %4s %12s %8s %8s %8s %10s\n", "line", "cycles", "misses",
              "pad", "windows", "leak-bits");
  for (const auto &[Line, L] : A.Lines) {
    std::printf("  %4s %12" PRIu64 " %8" PRIu64 " %8" PRIu64 " %8" PRIu64
                " %10s\n",
                Line == 0 ? "?" : std::to_string(Line).c_str(), L.EmbCycles,
                L.EmbMisses, L.PadCycles, L.Windows,
                jsonNumberString(L.LeakBits).c_str());
  }
  if (!A.Sites.empty()) {
    std::printf("  mitigate sites:\n");
    for (const auto &[Eta, S] : A.Sites)
      std::printf("    m%-3" PRIu64 " line %-4" PRIu64 " %8" PRIu64
                  " windows %10" PRIu64 " pad-cycles %10s leak-bits\n",
                  Eta, S.Line, S.Windows, S.PadCycles,
                  jsonNumberString(S.LeakBits).c_str());
  }
}

const LevelRecompute *findLevel(const Analysis &A, const std::string &Name) {
  for (const auto &[N, Acc] : A.Levels)
    if (N == Name)
      return &Acc;
  return nullptr;
}

/// Cross-checks the offline recompute against the online `leak.*` metrics
/// in \p Metrics. Equality is exact double equality: the producer
/// serializes with shortest-round-trip formatting and both sides sum in
/// the same order, so any difference is a real divergence. The total is
/// re-summed in stats-key order to mirror the online lattice-order sum.
bool crossCheck(const Analysis &A, const JsonValue &Metrics) {
  bool SawAny = false;
  double TotalBits = 0;
  bool Ok = true;
  for (const auto &[Key, Val] : Metrics.members()) {
    if (Key.rfind("leak.", 0) != 0 ||
        Val.kind() != JsonValue::Kind::Number)
      continue;
    SawAny = true;
    const size_t Dot = Key.rfind('.');
    const LevelRecompute *Acc = findLevel(A, Key.substr(5, Dot - 5));
    const std::string Field = Key.substr(Dot + 1);
    // Levels absent from the trace contribute exactly 0, so summing
    // bits_bound in stats-key order reproduces the online lattice-order
    // total.
    std::optional<double> Want;
    if (Key == "leak.windows")
      Want = static_cast<double>(A.LeakWindows);
    else if (Key == "leak.total_bits_bound")
      Want = TotalBits;
    else if (Field == "windows")
      Want = Acc ? static_cast<double>(Acc->Windows) : 0.0;
    else if (Field == "bits_bound") {
      Want = Acc ? Acc->BitsBound : 0.0;
      TotalBits += *Want;
    } else if (Field == "mispredict_penalty_bits")
      Want = Acc ? mispredictPenaltyBits(Acc->Misses) : 0.0;
    if (Want && Val.asNumber() != *Want)
      Ok = error("cross-check failed on %s: stats %s, offline %s\n",
                 Key.c_str(), jsonNumberString(Val.asNumber()).c_str(),
                 jsonNumberString(*Want).c_str());
  }
  if (!SawAny)
    return error("stats document has no leak.* metrics to check\n");
  return Ok;
}

/// Reruns the statistical detector over the decoded attack observations.
/// Fills unnamed class slots with "class<i>" so hand-edited traces still
/// analyze.
DetectorResult recomputeDetector(Analysis &A) {
  for (size_t I = 0; I != A.AdvClassNames.size(); ++I)
    if (A.AdvClassNames[I].empty())
      A.AdvClassNames[I] = "class" + std::to_string(I);
  return detectLeak(A.AdvObs, A.AdvClassNames);
}

/// Cross-checks every figure of \p Reg, recomputed offline, against the
/// same key of the stats document's \p Metrics. Both sides run the same
/// code over the same inputs, so equality is exact — any difference is a
/// real divergence. A key the document lacks fails when \p Required (the
/// adv.* figures), and is skipped otherwise (dist.* figures, which
/// pre-sketch documents lack).
bool registryCrossCheck(const MetricsRegistry &Reg, const JsonValue &Metrics,
                        bool Required) {
  bool Ok = true;
  for (const MetricsRegistry::Entry &E : Reg.entries()) {
    const JsonValue *V = Metrics.find(E.Name);
    if (!V || V->kind() != JsonValue::Kind::Number) {
      if (Required)
        std::fprintf(stderr, "error: stats document is missing %s\n",
                     E.Name.c_str());
      Ok &= !Required;
      continue;
    }
    const double Want = E.IsGauge ? E.Gauge : static_cast<double>(E.Counter);
    if (V->asNumber() != Want) {
      std::fprintf(stderr,
                   "error: cross-check failed on %s: stats %s, offline %s\n",
                   E.Name.c_str(), jsonNumberString(V->asNumber()).c_str(),
                   jsonNumberString(Want).c_str());
      Ok = false;
    }
  }
  return Ok;
}

/// Prints one rebuilt dist.* sketch as a quantile summary line.
void printDistLine(const char *Name, const LogLinearHistogram &H) {
  std::printf("  dist %-16s n=%-8" PRIu64 " min=%" PRIu64 " p50=%" PRIu64
              " p90=%" PRIu64 " p99=%" PRIu64 " p999=%" PRIu64
              " max=%" PRIu64 "\n",
              Name, H.total(), H.min(), H.quantile(0.5), H.quantile(0.9),
              H.quantile(0.99), H.quantile(0.999), H.max());
}

/// Renders the snapshot series as a textual sparkline (at most 64
/// columns; longer series are bucket-averaged down). Silent when the
/// trace carried no snapshot rows.
void printSnapshots(const Analysis &A) {
  if (A.SnapshotValues.empty())
    return;
  static const char *const Blocks[] = {"▁", "▂", "▃",
                                       "▄", "▅", "▆",
                                       "▇", "█"};
  const size_t N = A.SnapshotValues.size();
  const size_t Cols = N < 64 ? N : 64;
  std::vector<double> Series(Cols);
  for (size_t C = 0; C != Cols; ++C) {
    const size_t Lo = C * N / Cols, Hi = (C + 1) * N / Cols;
    double Sum = 0;
    for (size_t I = Lo; I != Hi; ++I)
      Sum += A.SnapshotValues[I];
    Series[C] = Sum / static_cast<double>(Hi - Lo);
  }
  double Min = Series[0], Max = Series[0];
  for (double V : Series) {
    Min = V < Min ? V : Min;
    Max = V > Max ? V : Max;
  }
  std::string Spark;
  for (double V : Series) {
    const double T = Max > Min ? (V - Min) / (Max - Min) : 0.5;
    const int Level = static_cast<int>(T * 7.0 + 0.5);
    Spark += Blocks[Level < 0 ? 0 : Level > 7 ? 7 : Level];
  }
  std::printf("\nmetrics snapshots (%zu rows, %s): min %s, max %s\n  %s\n",
              N, A.SnapshotKey.c_str(), jsonNumberString(Min).c_str(),
              jsonNumberString(Max).c_str(), Spark.c_str());
}

void printProducer(const Analysis &A) {
  if (!A.Meta.isNull())
    std::printf("trace producer: %s %s (git %s)\n",
                strField(A.Meta, "tool").c_str(),
                strField(A.Meta, "version").c_str(),
                strField(A.Meta, "git").c_str());
}

void printAdvReport(const Analysis &A, const DetectorResult &D) {
  printProducer(A);
  std::printf("\nattack observations: %" PRIu64 " samples over %zu classes"
              "\n",
              D.Samples, D.Classes.size());
  for (const ClassSummary &S : D.Classes)
    std::printf("  class %-12s n=%-5" PRIu64 " mean=%.1f sd=%.1f "
                "range=[%" PRIu64 ", %" PRIu64 "]\n",
                S.Name.c_str(), S.Count, S.Mean, std::sqrt(S.Variance),
                S.Min, S.Max);
  std::printf("\nbounded-memory timing sketches (offline rebuild):\n");
  printDistLine("end_to_end", A.EndToEndDist);
  if (!A.WindowDist.empty())
    printDistLine("window_duration", A.WindowDist);
  std::printf("\nadversary-observed end-to-end timing histogram:\n");
  std::printf("  %-12s %12s %8s\n", "class", "end_to_end", "samples");
  std::map<std::pair<uint32_t, uint64_t>, uint64_t> Hist;
  for (const CompactObservation &O : A.AdvObs)
    ++Hist[{O.ClassIndex, O.EndToEnd}];
  for (const auto &[Key, Count] : Hist)
    std::printf("  %-12s %12" PRIu64 " %8" PRIu64 "\n",
                A.AdvClassNames[Key.first].c_str(), Key.second, Count);
  std::printf("\noffline detector rerun:\n");
  std::printf("  Welch t=%.6g (df=%.6g)  Cohen's d=%.6g  log10(p)=%.6g\n",
              D.TStat, D.Df, D.CohensD, D.PValueLog10);
  std::printf("  mutual information %.6g bits (plug-in %.6g, %" PRIu64
              " distinct timings); analytic bound %.6g bits\n",
              D.MiBits, D.MiPluginBits, D.DistinctTimings,
              D.AnalyticBoundBits);
  std::printf("  verdict: %s\n", D.LeakDetected ? "TIMING LEAK DETECTED"
                                                : "no leak detected");
}

JsonValue advJson(const DetectorResult &D) {
  JsonValue Doc = JsonValue::object();
  Doc["samples"] = JsonValue(D.Samples);
  JsonValue &ClassArr = Doc["classes"] = JsonValue::array();
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
  Doc["t_stat"] = JsonValue(D.TStat);
  Doc["df"] = JsonValue(D.Df);
  Doc["cohens_d"] = JsonValue(D.CohensD);
  Doc["p_value_log10"] = JsonValue(D.PValueLog10);
  Doc["mi_plugin_bits"] = JsonValue(D.MiPluginBits);
  Doc["mi_bits"] = JsonValue(D.MiBits);
  Doc["distinct_timings"] = JsonValue(D.DistinctTimings);
  Doc["analytic_bound_bits"] = JsonValue(D.AnalyticBoundBits);
  Doc["leak_detected"] = JsonValue(D.LeakDetected);
  return Doc;
}

/// One CSV field, quoted per RFC 4180 only when it needs to be.
std::string csvField(const std::string &S) {
  if (S.find_first_of(",\"\n") == std::string::npos)
    return S;
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"')
      Out += '"';
    Out += C;
  }
  Out += '"';
  return Out;
}

/// --csv: the adversary-observed timing histogram as a flat table. Attack
/// traces export class,end_to_end,count; run traces export the mitigate-
/// window duration,windows histogram.
bool writeCsv(const Analysis &A, const std::string &Path) {
  std::string Text;
  if (!A.AdvObs.empty()) {
    Text = "class,end_to_end,count\n";
    std::map<std::pair<uint32_t, uint64_t>, uint64_t> Hist;
    for (const CompactObservation &O : A.AdvObs)
      ++Hist[{O.ClassIndex, O.EndToEnd}];
    for (const auto &[Key, Count] : Hist)
      Text += csvField(A.AdvClassNames[Key.first]) + "," +
              std::to_string(Key.second) + "," + std::to_string(Count) +
              "\n";
  } else {
    Text = "duration,windows\n";
    for (const auto &[Dur, Count] : A.DurationHistogram)
      Text += std::to_string(Dur) + "," + std::to_string(Count) + "\n";
  }
  if (!writeFile(Path, Text))
    return false;
  std::fprintf(stderr, "wrote timing-histogram CSV to %s\n", Path.c_str());
  return true;
}

JsonValue analysisJson(const Analysis &A) {
  JsonValue Doc = JsonValue::object();
  if (!A.Meta.isNull())
    Doc["meta"] = A.Meta;
  JsonValue &Hist = Doc["histogram"] = JsonValue::array();
  for (const auto &[Dur, Count] : A.DurationHistogram) {
    JsonValue Bin = JsonValue::object();
    Bin["duration"] = Dur;
    Bin["windows"] = Count;
    Hist.push(std::move(Bin));
  }
  JsonValue &Wins = Doc["windows"] = JsonValue::array();
  for (const WindowCost &W : A.Windows) {
    JsonValue Obj = JsonValue::object();
    Obj["name"] = W.Name;
    Obj["ts"] = W.Ts;
    Obj["duration"] = W.Dur;
    Obj["consumed"] = W.Consumed;
    Obj["padded"] = W.Padded;
    Obj["mispredicted"] = W.Mispredicted;
    Wins.push(std::move(Obj));
  }
  JsonValue &Over = Doc["overhead"];
  Over["windows"] = static_cast<uint64_t>(A.Windows.size());
  Over["window_cycles"] = A.TotalCycles;
  Over["consumed_cycles"] = A.ConsumedCycles;
  Over["padded_cycles"] = A.PaddedCycles;
  Over["mispredicted_windows"] = A.MispredictedWindows;
  Over["mispredicted_cycles"] = A.MispredictedCycles;
  // A reference into Doc lasts until Doc gains a member: "leak" is last.
  JsonValue &Leak = Doc["leak"];
  double Total = 0;
  for (const auto &[Name, Acc] : A.Levels) {
    JsonValue &Level = Leak["levels"][Name];
    Level["windows"] = Acc.Windows;
    Level["bits_bound"] = Acc.BitsBound;
    Level["mispredict_penalty_bits"] = mispredictPenaltyBits(Acc.Misses);
    Total += Acc.BitsBound;
  }
  if (A.Levels.empty())
    Leak["levels"] = JsonValue::object();
  Leak["windows"] = A.LeakWindows;
  Leak["total_bits_bound"] = Total;
  return Doc;
}

/// Renders the engine self-profile (the exec.* namespace that `zamc hot`
/// and telemetry runs export) when the stats document carries one. Purely
/// presentational: exec.* profiles the engine, not the run, so there is no
/// trace-side recomputation to cross-check it against — the report trusts
/// the document (its internal conservation was enforced at export time).
void printExecSection(const JsonValue &Metrics) {
  const JsonValue *Dispatches = Metrics.find("exec.dispatches");
  if (!Dispatches || Dispatches->kind() != JsonValue::Kind::Number)
    return;
  auto Num = [&](const char *Key) {
    const JsonValue *V = Metrics.find(Key);
    return V && V->kind() == JsonValue::Kind::Number ? V->asNumber() : 0.0;
  };
  std::printf("\nengine self-profile (exec.*):\n");
  std::printf("  %.0f dispatches over %.0f run(s); branches %.0f taken / "
              "%.0f not taken\n",
              Dispatches->asNumber(), Num("exec.runs"),
              Num("exec.branch.taken"), Num("exec.branch.not_taken"));
  static const char *const OpNames[] = {"skip",  "assign",   "store",
                                        "branch", "sleep",   "mitenter",
                                        "mitend", "halt"};
  std::printf("  opcodes:");
  for (const char *Op : OpNames) {
    const double N = Num(("exec.op." + std::string(Op)).c_str());
    if (N != 0)
      std::printf(" %s=%.0f", Op, N);
  }
  std::printf("\n");
  // Digram ranking, highest count first (document order breaks ties —
  // it is the exporter's deterministic row-major order).
  std::vector<std::pair<std::string, double>> Digrams;
  for (const auto &[Key, Val] : Metrics.members())
    if (Key.rfind("exec.digram.", 0) == 0 &&
        Val.kind() == JsonValue::Kind::Number)
      Digrams.emplace_back(Key.substr(std::strlen("exec.digram.")),
                           Val.asNumber());
  std::stable_sort(Digrams.begin(), Digrams.end(),
                   [](const auto &A, const auto &B) {
                     return A.second > B.second;
                   });
  if (!Digrams.empty()) {
    std::printf("  hot digrams:");
    for (size_t I = 0; I != Digrams.size() && I < 5; ++I)
      std::printf(" %s=%.0f", Digrams[I].first.c_str(), Digrams[I].second);
    std::printf("\n");
  }
  const double Sites = Num("exec.sites");
  if (Sites != 0)
    std::printf("  %.0f mitigate site(s) with settle-epoch histograms "
                "(exec.site.m*.dist.settle_epochs.*)\n",
                Sites);
}

void printReport(const Analysis &A) {
  printProducer(A);
  std::printf("\nadversary-observed timing histogram (%zu windows):\n",
              A.Windows.size());
  std::printf("  %12s  %8s\n", "duration", "windows");
  for (const auto &[Dur, Count] : A.DurationHistogram)
    std::printf("  %12" PRIu64 "  %8" PRIu64 "\n", Dur, Count);

  std::printf("\nmitigation overhead attribution:\n");
  std::printf("  %-14s %10s %10s %10s  %s\n", "window", "duration",
              "consumed", "padded", "mispredicted");
  for (const WindowCost &W : A.Windows)
    std::printf("  %-14s %10" PRIu64 " %10" PRIu64 " %10" PRIu64 "  %s\n",
                W.Name.c_str(), W.Dur, W.Consumed, W.Padded,
                W.Mispredicted ? "yes" : "no");
  std::printf("  aggregate: %" PRIu64 " cycles in windows, %" PRIu64
              " consumed, %" PRIu64 " padded, %" PRIu64
              " mispredicted windows (%" PRIu64 " cycles)\n",
              A.TotalCycles, A.ConsumedCycles, A.PaddedCycles,
              A.MispredictedWindows, A.MispredictedCycles);

  std::printf("\noffline leakage bound (Sec. 6, %s):\n",
              A.Policies.description().c_str());
  double Total = 0;
  for (const auto &[Name, Acc] : A.Levels) {
    std::printf("  level %-6s windows=%" PRIu64 " bits_bound=%s "
                "mispredict_penalty_bits=%s\n",
                Name.c_str(), Acc.Windows,
                jsonNumberString(Acc.BitsBound).c_str(),
                jsonNumberString(mispredictPenaltyBits(Acc.Misses)).c_str());
    Total += Acc.BitsBound;
  }
  std::printf("  total: %" PRIu64 " counted windows, %s bits\n",
              A.LeakWindows, jsonNumberString(Total).c_str());
}

//===----------------------------------------------------------------------===//
// Diff: metric extraction and budget comparison.
//===----------------------------------------------------------------------===//

/// Flattens an input into comparable metrics. Stats documents contribute
/// their `metrics` object verbatim; traces are analyzed and contribute the
/// recomputed leak.* and mit.* figures, so `diff base.trace new.trace`
/// works without a stats side-channel.
std::optional<JsonValue> loadComparable(const std::string &Path,
                                        std::string &PolicyDesc) {
  std::optional<InputKind> Kind = classifyInput(Path);
  if (!Kind)
    return std::nullopt;
  // Both input shapes record the selection the same way (absent keys are
  // the fast-doubling default), so a trace diffs cleanly against a stats
  // baseline of the same run.
  auto DescFromMeta = [&PolicyDesc](const JsonValue &Meta) {
    PolicyDesc = strField(Meta, "mitigation");
    if (PolicyDesc.empty())
      PolicyDesc = "fast-doubling";
    const std::string Sites = strField(Meta, "mitigation_sites");
    if (!Sites.empty())
      PolicyDesc += " [" + Sites + "]";
  };
  if (*Kind == InputKind::Stats) {
    std::optional<StatsDoc> Doc = loadStats(Path);
    if (!Doc)
      return std::nullopt;
    DescFromMeta(Doc->Meta);
    return Doc->Metrics;
  }
  std::string Err;
  std::unique_ptr<TraceReader> Reader = openTraceReader(Path, Err);
  if (!Reader) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return std::nullopt;
  }
  Analysis A;
  if (!analyzeTrace(*Reader, A))
    return std::nullopt;
  DescFromMeta(A.Meta);
  JsonValue Out = JsonValue::object();
  double Total = 0;
  for (const auto &[Name, Acc] : A.Levels) {
    Out["leak." + Name + ".windows"] = Acc.Windows;
    Out["leak." + Name + ".bits_bound"] = Acc.BitsBound;
    Out["leak." + Name + ".mispredict_penalty_bits"] =
        mispredictPenaltyBits(Acc.Misses);
    Total += Acc.BitsBound;
  }
  Out["leak.windows"] = A.LeakWindows;
  Out["leak.total_bits_bound"] = Total;
  Out["mit.predictions"] = static_cast<uint64_t>(A.Windows.size());
  Out["mit.mispredictions"] = A.MispredictedWindows;
  Out["mit.padded_idle_cycles"] = A.PaddedCycles;
  return Out;
}

/// Metric \p Key of a comparable's metrics, if it is a number.
std::optional<double> metric(const JsonValue &Metrics, const char *Key) {
  const JsonValue *V = Metrics.find(Key);
  if (!V || V->kind() != JsonValue::Kind::Number)
    return std::nullopt;
  return V->asNumber();
}

//===----------------------------------------------------------------------===//
// Command-line driver.
//===----------------------------------------------------------------------===//

int usage() {
  std::fprintf(
      stderr,
      "usage: zamtrace report <trace> [--stats FILE] [--json FILE]\n"
      "                [--by-line] [--check-ledger FILE] [--csv FILE]\n"
      "       zamtrace diff <base> <candidate> [--budget-bits X]\n"
      "                [--budget-pct P] [--json FILE]\n"
      "       zamtrace --version\n"
      "\n"
      "report: histogram, overhead attribution and offline leakage bound\n"
      "        for a JSONL, Chrome or ZTB binary trace (streamed in one\n"
      "        pass, never loaded whole), priced by the mitigation\n"
      "        policy the trace recorded; --stats cross-checks the\n"
      "        recomputed bound bit-for-bit against the run's leak.*\n"
      "        and dist.* metrics (mismatch exits 1). --by-line rebuilds\n"
      "        the per-line source profile from the event stream and\n"
      "        verifies it against the embedded prof rows; --check-ledger\n"
      "        additionally compares them against a `zamc profile --json`\n"
      "        ledger document. --csv exports the observed timing\n"
      "        histogram. Attack traces (`zamc attack --trace-out`) rerun\n"
      "        the statistical detector offline and cross-check the adv.*\n"
      "        and dist.* metrics instead.\n"
      "diff:   compares two runs (traces or --stats/--json documents) and\n"
      "        exits 1 when the candidate exceeds the leakage or overhead\n"
      "        budget, or when the two sides recorded different mitigation\n"
      "        policies. Only the metrics object is compared. Budgets\n"
      "        are finite, non-negative numbers.\n");
  return 2;
}

int cmdReport(int Argc, char **Argv) {
  std::string TracePath, StatsPath, JsonPath, LedgerPath, CsvPath;
  bool ByLine = false;
  for (int I = 2; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--stats") && I + 1 < Argc)
      StatsPath = Argv[++I];
    else if (!std::strcmp(Argv[I], "--json") && I + 1 < Argc)
      JsonPath = Argv[++I];
    else if (!std::strcmp(Argv[I], "--check-ledger") && I + 1 < Argc)
      LedgerPath = Argv[++I];
    else if (!std::strcmp(Argv[I], "--csv") && I + 1 < Argc)
      CsvPath = Argv[++I];
    else if (!std::strcmp(Argv[I], "--by-line"))
      ByLine = true;
    else if (Argv[I][0] != '-' && TracePath.empty())
      TracePath = Argv[I];
    else {
      std::fprintf(stderr, "unknown or malformed argument '%s'\n", Argv[I]);
      return usage();
    }
  }
  if (TracePath.empty())
    return usage();

  std::optional<InputKind> Kind = classifyInput(TracePath);
  if (!Kind)
    return 2;
  if (*Kind == InputKind::Stats) {
    std::fprintf(stderr, "error: '%s' is a stats document, not a trace\n",
                 TracePath.c_str());
    return 2;
  }
  std::string RErr;
  std::unique_ptr<TraceReader> Reader = openTraceReader(TracePath, RErr);
  if (!Reader) {
    std::fprintf(stderr, "error: %s\n", RErr.c_str());
    return 2;
  }
  Analysis A;
  if (!analyzeTrace(*Reader, A))
    return 1;

  // Attack observation traces take the detector path: rerun the statistics
  // offline and (with --stats) demand bit-for-bit agreement with the
  // online adv.* and dist.* metrics. There are no mit/leak spans to report
  // on.
  JsonValue Doc = JsonValue::object();
  std::string CrossCheck = "not requested";
  if (!A.AdvObs.empty()) {
    if (A.AdvClassNames.size() < 2) {
      std::fprintf(stderr,
                   "error: attack trace has fewer than two classes\n");
      return 1;
    }
    DetectorResult D = recomputeDetector(A);
    printAdvReport(A, D);
    printSnapshots(A);
    if (!StatsPath.empty()) {
      std::optional<StatsDoc> Stats = loadStats(StatsPath);
      if (!Stats)
        return 2;
      MetricsRegistry AdvReg, DistReg;
      exportDetectorMetrics(AdvReg, D);
      A.EndToEndDist.exportMetrics(DistReg, "end_to_end");
      A.WindowDist.exportMetrics(DistReg, "window_duration");
      if (!registryCrossCheck(AdvReg, Stats->Metrics, /*Required=*/true) ||
          !registryCrossCheck(DistReg, Stats->Metrics, /*Required=*/false)) {
        std::printf("\ncross-check FAILED: offline detector disagrees with "
                    "online adv.* metrics\n");
        return 1;
      }
      CrossCheck = "ok";
      std::printf("\ncross-check OK: offline detector matches online adv.* "
                  "metrics bit-for-bit\n");
    }
    if (!A.Meta.isNull())
      Doc["meta"] = A.Meta;
    Doc["adv"] = advJson(D);
  } else {
    printReport(A);
    printSnapshots(A);
    if (ByLine || !LedgerPath.empty()) {
      if (!checkProfAgainstRebuild(A)) {
        std::printf("\nby-line check FAILED: offline rebuild disagrees with "
                    "the embedded source profile\n");
        return 1;
      }
      if (ByLine)
        printByLine(A);
      if (!LedgerPath.empty()) {
        if (!checkLedgerDocument(A, LedgerPath)) {
          std::printf("\nledger check FAILED: embedded source profile "
                      "disagrees with '%s'\n",
                      LedgerPath.c_str());
          return 1;
        }
        std::printf("\nledger check OK: trace profile matches '%s' "
                    "bit-for-bit\n",
                    LedgerPath.c_str());
      }
    }
    if (!StatsPath.empty()) {
      std::optional<StatsDoc> Stats = loadStats(StatsPath);
      if (!Stats)
        return 2;
      // Per-line cost sketch: rebuilt from the embedded prof rows (the
      // per-line cycle ground truth), checked against any dist.line_cost
      // figures the stats document exports.
      MetricsRegistry DistReg;
      if (A.HasProf) {
        LogLinearHistogram LineDist;
        for (const auto &[Line, L] : A.Lines)
          if (L.HasEmbedded)
            LineDist.add(L.EmbCycles);
        LineDist.exportMetrics(DistReg, "line_cost");
      }
      if (!crossCheck(A, Stats->Metrics) ||
          !registryCrossCheck(DistReg, Stats->Metrics, /*Required=*/false)) {
        std::printf("\ncross-check FAILED: offline bound disagrees with "
                    "online leak.* metrics\n");
        return 1;
      }
      CrossCheck = "ok";
      std::printf("\ncross-check OK: offline bound matches online leak.* "
                  "metrics bit-for-bit\n");
      printExecSection(Stats->Metrics);
    }
    Doc = analysisJson(A);
  }
  if (!CsvPath.empty() && !writeCsv(A, CsvPath))
    return 2;
  Doc["crosscheck"] = JsonValue(CrossCheck);
  if (!JsonPath.empty() && !writeFile(JsonPath, Doc.dump()))
    return 2;
  return 0;
}

/// Parses all of \p Text as the value of budget flag \p Flag: a finite,
/// non-negative number. A NaN budget would pass every comparison and turn
/// the gate off, so anything else is diagnosed, naming the flag.
bool parseBudget(const char *Flag, const char *Text, double &Out) {
  char *End = nullptr;
  const double V = std::strtod(Text, &End);
  if (End == Text || *End != '\0' || !std::isfinite(V) || V < 0)
    return error("%s wants a finite, non-negative number, got '%s'\n", Flag,
                 Text);
  Out = V;
  return true;
}

int cmdDiff(int Argc, char **Argv) {
  std::string BasePath, CandPath, JsonPath;
  double BudgetBits = 0;
  std::optional<double> BudgetPct;
  for (int I = 2; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--budget-bits") && I + 1 < Argc) {
      if (!parseBudget(Argv[I], Argv[I + 1], BudgetBits))
        return 2;
      ++I;
    } else if (!std::strcmp(Argv[I], "--budget-pct") && I + 1 < Argc) {
      if (!parseBudget(Argv[I], Argv[I + 1], BudgetPct.emplace()))
        return 2;
      ++I;
    } else if (!std::strcmp(Argv[I], "--json") && I + 1 < Argc)
      JsonPath = Argv[++I];
    else if (Argv[I][0] != '-' && BasePath.empty())
      BasePath = Argv[I];
    else if (Argv[I][0] != '-' && CandPath.empty())
      CandPath = Argv[I];
    else {
      std::fprintf(stderr, "unknown or malformed argument '%s'\n", Argv[I]);
      return usage();
    }
  }
  if (BasePath.empty() || CandPath.empty())
    return usage();

  std::string BasePolicy, CandPolicy;
  auto Base = loadComparable(BasePath, BasePolicy);
  auto Cand = loadComparable(CandPath, CandPolicy);
  if (!Base || !Cand)
    return 2;

  // A bound that moved because the candidate ran a different prediction
  // schedule is not a regression signal — refuse the comparison outright
  // rather than report a meaningless delta.
  if (BasePolicy != CandPolicy) {
    std::fprintf(stderr,
                 "error: mitigation-policy mismatch: '%s' recorded '%s' "
                 "but '%s' recorded '%s'; rerun the candidate under the "
                 "baseline's --mitigation before diffing\n",
                 BasePath.c_str(), BasePolicy.c_str(), CandPath.c_str(),
                 CandPolicy.c_str());
    return 1;
  }
  if (BasePolicy != "fast-doubling")
    std::printf("mitigation policy: %s (both sides)\n", BasePolicy.c_str());

  JsonValue Deltas = JsonValue::object();
  std::vector<std::string> Violations;

  // Leakage budget: the total bound may grow by at most BudgetBits bits.
  {
    const std::optional<double> B = metric(*Base, "leak.total_bits_bound");
    const std::optional<double> C = metric(*Cand, "leak.total_bits_bound");
    if (!B || !C) {
      std::fprintf(stderr,
                   "error: %s lacks leak.total_bits_bound; cannot diff\n",
                   (!B ? BasePath : CandPath).c_str());
      return 2;
    }
    const double Delta = *C - *B;
    std::printf("leak.total_bits_bound: base %s, candidate %s, delta %s "
                "(budget %s bits)\n",
                jsonNumberString(*B).c_str(), jsonNumberString(*C).c_str(),
                jsonNumberString(Delta).c_str(),
                jsonNumberString(BudgetBits).c_str());
    JsonValue &Obj = Deltas["leak.total_bits_bound"];
    Obj["base"] = *B;
    Obj["candidate"] = *C;
    Obj["delta"] = Delta;
    if (Delta > BudgetBits)
      Violations.push_back("leak.total_bits_bound grew by " +
                           jsonNumberString(Delta) + " bits (budget " +
                           jsonNumberString(BudgetBits) + ")");
  }

  // Overhead budget: relative growth of padding and mispredictions.
  if (BudgetPct) {
    for (const char *Key : {"mit.padded_idle_cycles", "mit.mispredictions"}) {
      const std::optional<double> B = metric(*Base, Key);
      const std::optional<double> C = metric(*Cand, Key);
      if (!B || !C)
        continue;
      const double Pct =
          *B > 0 ? (*C - *B) / *B * 100.0 : (*C > 0 ? 100.0 : 0.0);
      std::printf("%s: base %s, candidate %s, %+.2f%% (budget %.2f%%)\n",
                  Key, jsonNumberString(*B).c_str(),
                  jsonNumberString(*C).c_str(), Pct, *BudgetPct);
      JsonValue &Obj = Deltas[Key];
      Obj["base"] = *B;
      Obj["candidate"] = *C;
      Obj["pct"] = Pct;
      if (Pct > *BudgetPct) {
        char Buf[160];
        std::snprintf(Buf, sizeof(Buf), "%s grew by %.2f%% (budget %.2f%%)",
                      Key, Pct, *BudgetPct);
        Violations.push_back(Buf);
      }
    }
  }

  if (!JsonPath.empty()) {
    JsonValue Doc = JsonValue::object();
    Doc["base"] = JsonValue(BasePath);
    Doc["candidate"] = JsonValue(CandPath);
    Doc["deltas"] = std::move(Deltas);
    JsonValue Viol = JsonValue::array();
    for (const std::string &V : Violations)
      Viol.push(JsonValue(V));
    Doc["violations"] = std::move(Viol);
    Doc["verdict"] = JsonValue(Violations.empty() ? "ok" : "regression");
    if (!writeFile(JsonPath, Doc.dump()))
      return 2;
  }

  if (!Violations.empty()) {
    for (const std::string &V : Violations)
      std::printf("REGRESSION: %s\n", V.c_str());
    return 1;
  }
  std::printf("within budget\n");
  return 0;
}

int inputTooLarge() {
  std::fprintf(stderr, "error: input exceeds in-memory mode; re-export the "
                       "run to the streaming binary trace format "
                       "(--trace-out out.ztb) and retry\n");
  return 1;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc == 2 && !std::strcmp(Argv[1], "--version")) {
    std::printf("%s\n", buildSummary().c_str());
    return 0;
  }
  if (Argc < 2)
    return usage();
  try {
    if (!std::strcmp(Argv[1], "report"))
      return cmdReport(Argc, Argv);
    if (!std::strcmp(Argv[1], "diff"))
      return cmdDiff(Argc, Argv);
  } catch (const BadInput &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    return 2;
  } catch (const std::bad_alloc &) {
    return inputTooLarge();
  } catch (const std::length_error &) {
    return inputTooLarge();
  }
  std::fprintf(stderr, "unknown command '%s'\n", Argv[1]);
  return usage();
}

//===- Telemetry.cpp ------------------------------------------------------===//

#include "obs/Telemetry.h"

#include "obs/CostLedger.h"
#include "obs/LeakAudit.h"
#include "obs/Ztb.h"
#include "support/BuildInfo.h"
#include "support/StrAppend.h"

#include <algorithm>

using namespace zam;

static void collectLevel(MetricsRegistry &Reg, const std::string &Prefix,
                         const char *Name, const CacheLevelStats &S) {
  const std::string Base = Prefix + "hw." + Name + ".";
  Reg.setCounter(Base + "hits", S.Hits);
  Reg.setCounter(Base + "misses", S.Misses);
  Reg.setCounter(Base + "evictions", S.Evictions);
  Reg.setCounter(Base + "writebacks", S.Writebacks);
  Reg.setCounter(Base + "line_fills", S.LineFills);
}

void zam::collectHwMetrics(MetricsRegistry &Reg, const HwStats &Hw,
                           const std::string &Prefix) {
  collectLevel(Reg, Prefix, "l1d", Hw.L1D);
  collectLevel(Reg, Prefix, "l2d", Hw.L2D);
  collectLevel(Reg, Prefix, "l1i", Hw.L1I);
  collectLevel(Reg, Prefix, "l2i", Hw.L2I);
  collectLevel(Reg, Prefix, "dtlb", Hw.DTlb);
  collectLevel(Reg, Prefix, "itlb", Hw.ITlb);
}

void zam::collectTraceMetrics(MetricsRegistry &Reg, const Trace &T,
                              const SecurityLattice &Lat,
                              const std::string &Prefix) {
  Reg.setCounter(Prefix + "interp.steps", T.Steps);
  Reg.setCounter(Prefix + "interp.assignments", T.Ops.Assignments);
  Reg.setCounter(Prefix + "interp.branches", T.Ops.Branches);
  Reg.setCounter(Prefix + "interp.mitigate_entries", T.Ops.MitigateEntries);
  Reg.setCounter(Prefix + "interp.events", T.Events.size());
  Reg.setCounter(Prefix + "interp.final_time_cycles", T.FinalTime);

  uint64_t Mispredictions = 0, PaddedIdle = 0;
  for (const MitigateRecord &R : T.Mitigations) {
    if (R.Mispredicted)
      ++Mispredictions;
    if (R.Duration > R.BodyTime)
      PaddedIdle += R.Duration - R.BodyTime;
  }
  Reg.setCounter(Prefix + "mit.predictions", T.Mitigations.size());
  Reg.setCounter(Prefix + "mit.mispredictions", Mispredictions);
  Reg.setCounter(Prefix + "mit.padded_idle_cycles", PaddedIdle);
  for (size_t I = 0; I != T.FinalMissTable.size(); ++I)
    Reg.setCounter(Prefix + "mit.miss_table." +
                       Lat.name(Label::fromIndex(static_cast<unsigned>(I))),
                   T.FinalMissTable[I]);
}

void zam::collectRunMetrics(MetricsRegistry &Reg, const Trace &T,
                            const HwStats &Hw, const SecurityLattice &Lat,
                            const std::string &Prefix) {
  collectTraceMetrics(Reg, T, Lat, Prefix);
  collectHwMetrics(Reg, Hw, Prefix);
}

std::optional<TraceFormat> zam::parseTraceFormat(const std::string &Name) {
  if (Name == "jsonl")
    return TraceFormat::Jsonl;
  if (Name == "chrome")
    return TraceFormat::Chrome;
  if (Name == "ztb")
    return TraceFormat::Ztb;
  return std::nullopt;
}

std::optional<TraceFormat> zam::inferTraceFormat(const std::string &Path) {
  const size_t Dot = Path.rfind('.');
  if (Dot == std::string::npos)
    return std::nullopt;
  const std::string Ext = Path.substr(Dot);
  if (Ext == ".jsonl")
    return TraceFormat::Jsonl;
  if (Ext == ".json")
    return TraceFormat::Chrome;
  if (Ext == ".ztb")
    return TraceFormat::Ztb;
  return std::nullopt;
}

const char *zam::traceFormatName(TraceFormat Format) {
  switch (Format) {
  case TraceFormat::Jsonl:
    return "jsonl";
  case TraceFormat::Chrome:
    return "chrome";
  case TraceFormat::Ztb:
    return "ztb";
  }
  return "?";
}

std::unique_ptr<TraceSink> zam::makeTraceSink(TraceFormat Format) {
  switch (Format) {
  case TraceFormat::Jsonl:
    return std::make_unique<JsonlTraceSink>();
  case TraceFormat::Chrome:
    return std::make_unique<ChromeTraceSink>();
  case TraceFormat::Ztb:
    return std::make_unique<ZtbTraceSink>();
  }
  return nullptr;
}

std::unique_ptr<TraceSink> zam::makeTraceSink(TraceFormat Format,
                                              ByteSink &Out) {
  switch (Format) {
  case TraceFormat::Jsonl:
    return std::make_unique<JsonlTraceSink>(Out);
  case TraceFormat::Chrome:
    return std::make_unique<ChromeTraceSink>(Out);
  case TraceFormat::Ztb:
    return std::make_unique<ZtbTraceSink>(Out);
  }
  return nullptr;
}

namespace {

/// The record streams of an export, in the order their keys are built —
/// which, the sort being stable, is the order records with equal
/// timestamps leave in. Leak windows and snapshots interleave: each
/// snapshot is keyed right after the window it closes.
enum class Stream : uint8_t {
  Event,
  Mitigation,
  LeakWindow,
  Snapshot,
  Miss,
  LedgerLine,
  LedgerSite,
};

/// One record to emit: its timestamp and where its source data lives.
/// Index is the position in the stream's source sequence (an index into
/// Trace::Events, Trace::Mitigations, LeakAudit::windows() or
/// Trace::Misses; unused for the ledger maps, which are walked in order).
struct RecordKey {
  uint64_t Ts;
  uint32_t Index;
  Stream From;
};
static_assert(sizeof(RecordKey) == 16, "one key per record stays compact");

/// Refills one TraceRecord in place. Name, category and arg strings are
/// assigned into the buffers the previous record left behind, so a
/// steady-state export allocates nothing per record.
class RecordFiller {
public:
  TraceRecord &begin(TraceRecord::Kind Kind, const char *Category,
                     uint64_t Ts, uint64_t Dur = 0) {
    R.RecordKind = Kind;
    R.Category = Category;
    R.Ts = Ts;
    R.Dur = Dur;
    Args = 0;
    return R;
  }

  /// Opens arg \p Key and returns its cleared value buffer.
  std::string &arg(const char *Key) {
    if (Args == R.Args.size())
      R.Args.emplace_back();
    auto &[K, V] = R.Args[Args++];
    K = Key;
    V.clear();
    return V;
  }

  template <typename Int> void intArg(const char *Key, Int V) {
    appendInt(arg(Key), V);
  }

  /// The finished record: args past the ones this record opened dropped.
  const TraceRecord &done() {
    R.Args.resize(Args);
    return R;
  }

private:
  TraceRecord R;
  size_t Args = 0;
};

} // namespace

size_t zam::exportTrace(TraceSink &Sink, const Trace &T,
                        const SecurityLattice &Lat,
                        const TraceExportOptions &Opts) {
  // One priced leak_budget span per *counted* window (the online
  // accountant's exact projection), so the double sums recomputed offline
  // from these spans are bit-identical to the leak.* metrics — the
  // zamtrace cross-check.
  LeakAudit Audit(Lat, Opts.Adversary, Opts.Mitigation);
  if (Opts.IncludeLeakBudget)
    Audit.ingest(T);
  const std::vector<LeakWindow> &Windows = Audit.windows();
  // Cache misses are machine-internal: invisible to a language-level
  // adversary, so an adversary projection drops them wholesale, and the
  // ledger rows with them.
  const bool WithMisses = Opts.IncludeMisses && !Opts.Adversary;
  const CostLedger *Ledger = Opts.Adversary ? nullptr : Opts.Ledger;

  // Key every record in emission order: interp events, mit windows, leak
  // windows (each snapshot right after its window), hw misses, then the
  // ledger's line and site rows. A 32-bit index suffices: 2^32 retained
  // events alone would take hundreds of GiB.
  std::vector<RecordKey> Keys;
  Keys.reserve((Opts.IncludeEvents ? T.Events.size() : 0) +
               (Opts.IncludeMitigations ? T.Mitigations.size() : 0) +
               2 * Windows.size() + (WithMisses ? T.Misses.size() : 0) +
               (Ledger ? Ledger->lines().size() + Ledger->sites().size()
                       : 0));
  auto key = [&Keys](uint64_t Ts, size_t Index, Stream From) {
    Keys.push_back({Ts, static_cast<uint32_t>(Index), From});
  };
  if (Opts.IncludeEvents)
    for (size_t I = 0; I != T.Events.size(); ++I) {
      const AssignEvent &E = T.Events[I];
      // The Sec. 6.1 projection: an adversary at ℓA sees (x, v, t) iff
      // Γ(x) ⊑ ℓA.
      if (!Opts.Adversary || Lat.flowsTo(E.VarLabel, *Opts.Adversary))
        key(E.Time, I, Stream::Event);
    }
  // Mitigate spans are kept under any adversary: the padded duration is a
  // schedule value the mitigator makes public by construction.
  if (Opts.IncludeMitigations)
    for (size_t I = 0; I != T.Mitigations.size(); ++I)
      key(T.Mitigations[I].Start, I, Stream::Mitigation);
  for (size_t I = 0; I != Windows.size(); ++I) {
    const LeakWindow &W = Windows[I];
    key(W.Start, I, Stream::LeakWindow);
    // Periodic metrics snapshots: a deterministic running time series of
    // the Sec. 6 account, stamped at the window's completion time.
    if (Opts.SnapshotEveryWindows != 0 &&
        (I + 1) % Opts.SnapshotEveryWindows == 0)
      key(W.Start + W.Duration, I, Stream::Snapshot);
  }
  if (WithMisses)
    for (size_t I = 0; I != T.Misses.size(); ++I)
      key(T.Misses[I].Time, I, Stream::Miss);
  // The embedded profile: the per-line and per-site ledger rows, stamped at
  // the run's final time. Cycle attribution is not reconstructible from the
  // event stream (hits are never sampled), so these rows are the offline
  // reader's ground truth; everything it *can* rebuild — windows, padding,
  // leak bits, sampled misses — it checks against them.
  if (Ledger) {
    for (size_t I = 0; I != Ledger->lines().size(); ++I)
      key(T.FinalTime, I, Stream::LedgerLine);
    for (size_t I = 0; I != Ledger->sites().size(); ++I)
      key(T.FinalTime, I, Stream::LedgerSite);
  }

  // One merged, time-ordered stream. stable_sort keeps the emission order
  // for simultaneous records, so output is deterministic.
  std::stable_sort(Keys.begin(), Keys.end(),
                   [](const RecordKey &A, const RecordKey &B) {
                     return A.Ts < B.Ts;
                   });

  // Ledger rows all share one timestamp, so the sort leaves each map's rows
  // in map order: walk them with cursors.
  std::map<uint32_t, LineCost>::const_iterator LineAt;
  std::map<unsigned, SiteCost>::const_iterator SiteAt;
  if (Ledger) {
    LineAt = Ledger->lines().begin();
    SiteAt = Ledger->sites().begin();
  }
  // Σ WindowBits over Windows[0, SnapEnd), summed in window order. Windows
  // are recorded as they complete and a snapshot is stamped at its
  // window's completion, so snapshots leave the sort in window order and
  // the running sum only moves forward.
  size_t SnapEnd = 0;
  double SnapBits = 0;
  const MitigationPolicy &RunDefault = Opts.Mitigation.base();
  RecordFiller F;
  using Kind = TraceRecord::Kind;
  for (const RecordKey &K : Keys) {
    switch (K.From) {
    case Stream::Event: {
      const AssignEvent &E = T.Events[K.Index];
      TraceRecord &R = F.begin(Kind::Instant, "interp", K.Ts);
      R.Name = "assign ";
      R.Name += T.varName(E);
      if (E.IsArrayStore) {
        R.Name += '[';
        appendInt(R.Name, E.ElemIndex);
        R.Name += ']';
      }
      F.intArg("value", E.Value);
      F.arg("label") = Lat.name(E.VarLabel);
      break;
    }
    case Stream::Mitigation: {
      const MitigateRecord &M = T.Mitigations[K.Index];
      TraceRecord &R = F.begin(Kind::Span, "mit", K.Ts, M.Duration);
      R.Name = "mitigate#";
      appendInt(R.Name, M.Eta);
      F.arg("level") = Lat.name(M.Level);
      F.arg("pc") = Lat.name(M.PcLabel);
      F.intArg("estimate", M.Estimate);
      F.intArg("predicted", M.Duration);
      F.intArg("consumed", M.BodyTime);
      F.intArg("padded",
               M.Duration > M.BodyTime ? M.Duration - M.BodyTime : 0);
      F.arg("mispredicted") = M.Mispredicted ? "true" : "false";
      if (M.Line != 0)
        F.intArg("loc", M.Line);
      break;
    }
    case Stream::LeakWindow: {
      const LeakWindow &W = Windows[K.Index];
      TraceRecord &R = F.begin(Kind::Span, "leak", K.Ts, W.Duration);
      R.Name = "leak_budget#";
      appendInt(R.Name, W.Eta);
      F.arg("level") = Lat.name(W.Level);
      F.intArg("estimate", W.Estimate);
      F.intArg("misses_after", W.MissesAfter);
      F.intArg("attainable", W.Attainable);
      F.arg("window_bits") = jsonNumberString(W.WindowBits);
      F.arg("cum_level_bits") = jsonNumberString(W.CumLevelBits);
      F.arg("mispredicted") = W.Mispredicted ? "true" : "false";
      // Only sites diverging from the run default name their policy, so
      // default-policy traces keep the historical byte layout.
      if (W.Policy && W.Policy != &RunDefault)
        F.arg("policy") = W.Policy->spec();
      if (W.Line != 0)
        F.intArg("loc", W.Line);
      break;
    }
    case Stream::Snapshot: {
      while (SnapEnd <= K.Index)
        SnapBits += Windows[SnapEnd++].WindowBits;
      TraceRecord &R = F.begin(Kind::Meta, "obs", K.Ts);
      R.Name = "snapshot";
      F.intArg("windows", SnapEnd);
      F.arg("total_bits_bound") = jsonNumberString(SnapBits);
      break;
    }
    case Stream::Miss: {
      const AccessSample &S = T.Misses[K.Index];
      TraceRecord &R = F.begin(Kind::Instant, "hw", K.Ts);
      R.Name = S.IsData ? "dmiss" : "imiss";
      std::string &Hex = F.arg("addr");
      Hex = "0x";
      appendInt(Hex, S.A, 16);
      F.intArg("cycles", S.Cycles);
      if (S.TlbMiss)
        F.arg("tlb_miss") = "true";
      if (S.L1Miss)
        F.arg("l1_miss") = "true";
      if (S.L2Miss)
        F.arg("memory") = "true";
      if (S.Line != 0)
        F.intArg("loc", S.Line);
      break;
    }
    case Stream::LedgerLine: {
      const auto &[Line, C] = *LineAt++;
      TraceRecord &R = F.begin(Kind::Instant, "prof", K.Ts);
      R.Name = "prof_line#";
      appendInt(R.Name, Line);
      F.intArg("cycles", C.totalCycles());
      F.intArg("step_cycles", C.StepCycles);
      F.intArg("sleep_cycles", C.SleepCycles);
      F.intArg("pad_cycles", C.PadCycles);
      F.intArg("accesses", C.Accesses);
      F.intArg("misses", C.misses());
      F.intArg("windows", C.Windows);
      F.arg("leak_bits") = jsonNumberString(C.LeakBits);
      break;
    }
    case Stream::LedgerSite: {
      const auto &[Eta, S] = *SiteAt++;
      TraceRecord &R = F.begin(Kind::Instant, "prof", K.Ts);
      R.Name = "prof_site#";
      appendInt(R.Name, Eta);
      F.intArg("loc", S.Line);
      F.intArg("windows", S.Windows);
      F.intArg("pad_cycles", S.PadCycles);
      F.arg("leak_bits") = jsonNumberString(S.LeakBits);
      break;
    }
    }
    Sink.record(F.done());
  }
  return Keys.size();
}

std::vector<std::pair<std::string, std::string>>
zam::provenanceArgs(unsigned Threads) {
  return {{"tool", "zam"},
          {"version", buildVersion()},
          {"git", buildGitHash()},
          {"compiler", buildCompiler()},
          {"build_type", buildType()},
          {"threads", std::to_string(Threads)}};
}

std::vector<std::pair<std::string, std::string>>
zam::provenanceArgs(unsigned Threads, const PolicySelection &Mitigation) {
  auto Args = provenanceArgs(Threads);
  if (Mitigation.isDefaultOnly())
    return Args; // Paper default: keep the historical byte layout.
  Args.emplace_back("mitigation", Mitigation.base().spec());
  if (!Mitigation.PerSite.empty()) {
    std::string Sites;
    for (const auto &[Eta, P] : Mitigation.PerSite) {
      if (!Sites.empty())
        Sites += ",";
      Sites += std::to_string(Eta) + "=" + P->spec();
    }
    Args.emplace_back("mitigation_sites", Sites);
  }
  return Args;
}

JsonValue zam::provenanceJson(unsigned Threads) {
  JsonValue Meta = JsonValue::object();
  Meta["tool"] = "zam";
  Meta["version"] = buildVersion();
  Meta["git"] = buildGitHash();
  Meta["compiler"] = buildCompiler();
  Meta["build_type"] = buildType();
  Meta["threads"] = Threads;
  return Meta;
}

JsonValue zam::provenanceJson(unsigned Threads,
                              const PolicySelection &Mitigation) {
  JsonValue Meta = provenanceJson(Threads);
  for (const auto &[Key, Value] : provenanceArgs(Threads, Mitigation))
    if (Key == "mitigation" || Key == "mitigation_sites")
      Meta[Key] = Value;
  return Meta;
}

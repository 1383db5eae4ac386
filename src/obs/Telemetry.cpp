//===- Telemetry.cpp ------------------------------------------------------===//

#include "obs/Telemetry.h"

#include "obs/CostLedger.h"
#include "obs/LeakAudit.h"
#include "support/BuildInfo.h"
#include "support/Diagnostics.h"

#include <algorithm>
#include <span>

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
  // The events the run produced, one per assignment, whether or not it
  // retained them.
  Reg.setCounter(Prefix + "interp.events", T.Ops.Assignments);
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

/// The record streams of an export after the events, which lead them, in
/// the order records with equal timestamps leave in. Leak windows and
/// snapshots interleave: each snapshot is keyed right after the window it
/// closes.
enum class Stream : uint8_t {
  Mitigation,
  LeakWindow,
  Snapshot,
  Miss,
  LedgerLine,
  LedgerSite,
};

/// One record to emit: its timestamp and where its source data lives.
/// Index is the position in the stream's source sequence (an index into
/// Trace::Mitigations, LeakAudit::windows() or Trace::Misses; unused for
/// the ledger maps, which are walked in order).
struct RecordKey {
  uint64_t Ts;
  uint32_t Index;
  Stream From;
};
static_assert(sizeof(RecordKey) == 16, "sort keys stay compact");

} // namespace

size_t zam::exportTrace(TraceSink &Sink, const Trace &T,
                        const SecurityLattice &Lat,
                        const TraceExportOptions &Opts) {
  // One priced leak_budget span per *counted* window (the online
  // accountant's exact projection), so the double sums recomputed offline
  // from these spans are bit-identical to the leak.* metrics — the
  // zamtrace cross-check.
  if (Opts.IncludeEvents)
    T.requireEvents("exportTrace");
  LeakAudit Audit(Lat, Opts.Adversary, Opts.Mitigation);
  if (Opts.IncludeLeakBudget)
    Audit.ingest(T);
  const std::vector<LeakWindow> &Windows = Audit.windows();
  // Cache misses are machine-internal: invisible to a language-level
  // adversary, so an adversary projection drops them wholesale, and the
  // ledger rows with them.
  const bool WithMisses = Opts.IncludeMisses && !Opts.Adversary;
  const CostLedger *Ledger = Opts.Adversary ? nullptr : Opts.Ledger;

  // Simultaneous records leave in stream order: interp events, mit
  // windows, leak windows (each snapshot right after its window), hw
  // misses, then the ledger's line and site rows. The result is the stable
  // sort of every record by timestamp, built as a merge of four streams:
  //  - the events and the misses, read in place: each is recorded as the
  //    clock advances, so each is already in time order;
  //  - the few mitigate, leak and snapshot records, keyed and sorted here;
  //  - the ledger rows, all stamped at the run's final time.
  // The merge relies on the first, so it is checked in every build: a
  // violation would emit records out of order.
  const std::span<const AssignEvent> Events =
      Opts.IncludeEvents ? std::span(T.Events) : std::span<const AssignEvent>();
  const std::span<const AccessSample> Misses =
      WithMisses ? std::span(T.Misses) : std::span<const AccessSample>();
  auto ByTime = [](const auto &A, const auto &B) { return A.Time < B.Time; };
  if (!std::is_sorted(Events.begin(), Events.end(), ByTime) ||
      !std::is_sorted(Misses.begin(), Misses.end(), ByTime))
    reportFatalError("exportTrace: the trace's events or misses are out of "
                     "time order");
  // The Sec. 6.1 projection, per level: an adversary at ℓA sees (x, v, t)
  // iff Γ(x) ⊑ ℓA.
  std::vector<uint8_t> Visible(Lat.size(), 1);
  if (Opts.Adversary)
    for (unsigned I = 0; I != Lat.size(); ++I)
      Visible[I] = Lat.flowsTo(Label::fromIndex(I), *Opts.Adversary);
  // A 32-bit index suffices: the misses are bounded by kMaxRetainedEvents
  // (sem/Limits.h), and 2^32 mitigate records alone would take hundreds of
  // GiB.
  std::vector<RecordKey> Keys;
  auto key = [&Keys](uint64_t Ts, size_t Index, Stream From) {
    Keys.push_back({Ts, static_cast<uint32_t>(Index), From});
  };
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
  std::stable_sort(Keys.begin(), Keys.end(),
                   [](const RecordKey &A, const RecordKey &B) {
                     return A.Ts < B.Ts;
                   });

  // The embedded profile: the per-line and per-site ledger rows, stamped at
  // the run's final time, in map order. Cycle attribution is not
  // reconstructible from the event stream (hits are never sampled), so
  // these rows are the offline reader's ground truth; everything it *can*
  // rebuild — windows, padding, leak bits, sampled misses — it checks
  // against them.
  std::map<uint32_t, LineCost>::const_iterator LineAt;
  std::map<unsigned, SiteCost>::const_iterator SiteAt;
  const size_t LedgerLines = Ledger ? Ledger->lines().size() : 0;
  const size_t LedgerRows =
      LedgerLines + (Ledger ? Ledger->sites().size() : 0);
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
  return withEncoder(Sink, [&](auto &Enc) {
    // Strings encoded once per export, not once per record: every level's
    // name as an arg value, and the head of each kind of record — one per
    // slot's "assign <name>" — at its first record, so Chrome gives the
    // categories their tids in the order they first appear.
    std::vector<TraceText> LevelNames;
    LevelNames.reserve(Lat.size());
    for (unsigned I = 0; I != Lat.size(); ++I)
      LevelNames.emplace_back(Enc.encodeValue(Lat.name(Label::fromIndex(I))));
    auto levelName = [&LevelNames](Label L) -> const TraceText & {
      return LevelNames[L.index()];
    };
    const auto Interp = Enc.category("interp"), Mit = Enc.category("mit"),
               Leak = Enc.category("leak"), Obs = Enc.category("obs"),
               Hw = Enc.category("hw"), Prof = Enc.category("prof");
    using Kind = TraceRecord::Kind;
    std::vector<TraceHead> AssignHeads;
    TraceHead MitHead, LeakHead, SnapHead, LineHead, SiteHead, MissHeads[2];
    auto head = [&Enc](TraceHead &H, Kind K, std::string_view Name,
                       auto Cat) -> const TraceHead & {
      if (H.empty())
        H = Enc.head(K, Name, Cat);
      return H;
    };
    auto addAssignHead = [&](const AssignEvent &E) {
      if (E.Slot >= AssignHeads.size())
        AssignHeads.resize(E.Slot + 1);
      // T.varName checks the slot in sanitizer builds.
      AssignHeads[E.Slot] = Enc.head(
          Kind::Instant, Enc.encodeText("assign " + T.varName(E)), Interp);
    };

    // The mitigate, leak, snapshot and ledger records, each through its
    // own writer.
    auto emit = [&](const RecordKey &K) {
      auto W = Enc.writer();
      switch (K.From) {
      case Stream::Mitigation: {
        const MitigateRecord &M = T.Mitigations[K.Index];
        Enc.begin(W, head(MitHead, Kind::Span, "mitigate#", Mit),
                  TraceNameIndex(M.Eta), K.Ts, M.Duration);
        W.argValue("level", levelName(M.Level));
        W.argValue("pc", levelName(M.PcLabel));
        W.argInt("estimate", M.Estimate);
        W.argInt("predicted", M.Duration);
        W.argInt("consumed", M.BodyTime);
        W.argInt("padded",
                 M.Duration > M.BodyTime ? M.Duration - M.BodyTime : 0);
        W.argBool("mispredicted", M.Mispredicted);
        if (M.Line != 0)
          W.argInt("loc", M.Line);
        break;
      }
      case Stream::LeakWindow: {
        const LeakWindow &Win = Windows[K.Index];
        Enc.begin(W, head(LeakHead, Kind::Span, "leak_budget#", Leak),
                  TraceNameIndex(Win.Eta), K.Ts, Win.Duration);
        W.argValue("level", levelName(Win.Level));
        W.argInt("estimate", Win.Estimate);
        W.argInt("misses_after", Win.MissesAfter);
        W.argInt("attainable", Win.Attainable);
        W.argDouble("window_bits", Win.WindowBits);
        W.argDouble("cum_level_bits", Win.CumLevelBits);
        W.argBool("mispredicted", Win.Mispredicted);
        // Only sites diverging from the run default name their policy, so
        // default-policy traces keep the historical byte layout.
        if (Win.Policy && Win.Policy != &RunDefault)
          W.argText("policy", Win.Policy->spec());
        if (Win.Line != 0)
          W.argInt("loc", Win.Line);
        break;
      }
      case Stream::Snapshot: {
        while (SnapEnd <= K.Index)
          SnapBits += Windows[SnapEnd++].WindowBits;
        Enc.begin(W, head(SnapHead, Kind::Meta, "snapshot", Obs), {}, K.Ts);
        W.argInt("windows", SnapEnd);
        W.argDouble("total_bits_bound", SnapBits);
        break;
      }
      case Stream::LedgerLine: {
        const auto &[Line, C] = *LineAt++;
        Enc.begin(W, head(LineHead, Kind::Instant, "prof_line#", Prof),
                  TraceNameIndex(Line), K.Ts);
        W.argInt("cycles", C.totalCycles());
        W.argInt("step_cycles", C.StepCycles);
        W.argInt("sleep_cycles", C.SleepCycles);
        W.argInt("pad_cycles", C.PadCycles);
        W.argInt("accesses", C.accesses());
        W.argInt("misses", C.misses());
        W.argInt("windows", C.Windows);
        W.argDouble("leak_bits", C.LeakBits);
        break;
      }
      case Stream::LedgerSite: {
        const auto &[Eta, S] = *SiteAt++;
        Enc.begin(W, head(SiteHead, Kind::Instant, "prof_site#", Prof),
                  TraceNameIndex(Eta), K.Ts);
        W.argInt("loc", S.Line);
        W.argInt("windows", S.Windows);
        W.argInt("pad_cycles", S.PadCycles);
        W.argDouble("leak_bits", S.LeakBits);
        break;
      }
      case Stream::Miss:
        break; // Written in the merge's runs.
      }
      W.end();
      W.commit();
    };

    // The merge: each pass finds the earliest head of the streams after
    // the events (the earlier stream on a tie), emits every visible event
    // at or before it — the events stream wins ties — and then that head.
    // The events and misses, nearly every record, are written in runs
    // through one open writer, which commits at each 64 KiB chunk and
    // before any other record.
    enum Source { FromKeys, FromMisses, FromRows, NumSources };
    size_t At[NumSources] = {};
    const size_t End[NumSources] = {Keys.size(), Misses.size(), LedgerRows};
    size_t NextEvent = 0;
    size_t Emitted = 0;
    auto headOf = [&](unsigned S, size_t I) -> RecordKey {
      const uint32_t Index = static_cast<uint32_t>(I);
      switch (S) {
      case FromKeys:
        return Keys[I];
      case FromMisses:
        return {Misses[I].Time, Index, Stream::Miss};
      default:
        return {T.FinalTime, Index,
                I < LedgerLines ? Stream::LedgerLine : Stream::LedgerSite};
      }
    };
    auto W = Enc.writer();
    for (;;) {
      RecordKey Head{};
      unsigned From = NumSources;
      for (unsigned S = 0; S != NumSources; ++S) {
        if (At[S] == End[S])
          continue;
        const RecordKey K = headOf(S, At[S]);
        if (From == NumSources || K.Ts < Head.Ts) {
          Head = K;
          From = S;
        }
      }
      for (; NextEvent != Events.size() &&
             (From == NumSources || Events[NextEvent].Time <= Head.Ts);
           ++NextEvent) {
        const AssignEvent &E = Events[NextEvent];
        if (!Visible[E.VarLabel.index()])
          continue;
        if (E.Slot >= AssignHeads.size() || AssignHeads[E.Slot].empty())
            [[unlikely]]
          addAssignHead(E);
        Enc.begin(W, AssignHeads[E.Slot],
                  E.IsArrayStore ? TraceNameIndex(E.ElemIndex, true)
                                 : TraceNameIndex(),
                  E.Time);
        W.argInt("value", E.Value);
        W.argValue("label", levelName(E.VarLabel));
        W.end();
        ++Emitted;
      }
      if (From == NumSources)
        break;
      ++At[From];
      ++Emitted;
      if (Head.From != Stream::Miss) {
        W.commit();
        emit(Head);
        W = Enc.writer();
        continue;
      }
      const AccessSample &S = Misses[Head.Index];
      Enc.begin(W,
                head(MissHeads[S.IsData], Kind::Instant,
                     S.IsData ? "dmiss" : "imiss", Hw),
                {}, Head.Ts);
      W.argHex("addr", S.A);
      W.argInt("cycles", S.Cycles);
      if (S.TlbMiss)
        W.argBool("tlb_miss", true);
      if (S.L1Miss)
        W.argBool("l1_miss", true);
      if (S.L2Miss)
        W.argBool("memory", true);
      if (S.Line != 0)
        W.argInt("loc", S.Line);
      W.end();
    }
    W.commit();
    return Emitted;
  });
}

std::vector<std::pair<std::string, std::string>>
zam::provenanceArgs(unsigned Threads, const PolicySelection &Mitigation) {
  std::vector<std::pair<std::string, std::string>> Args = {
      {"tool", "zam"},
      {"version", buildVersion()},
      {"git", buildGitHash()},
      {"compiler", buildCompiler()},
      {"build_type", buildType()},
      {"threads", std::to_string(Threads)}};
  if (Mitigation.isDefaultOnly())
    return Args; // Paper default: keep the historical byte layout.
  Args.emplace_back("mitigation", Mitigation.base().spec());
  if (!Mitigation.PerSite.empty())
    Args.emplace_back("mitigation_sites", formatSiteOverrides(Mitigation));
  return Args;
}

JsonValue zam::provenanceJson(unsigned Threads,
                              const PolicySelection &Mitigation) {
  TraceRecord Header;
  Header.RecordKind = TraceRecord::Kind::Meta;
  for (auto &[Key, Value] : provenanceArgs(Threads, Mitigation))
    Header.Args.push_back(TraceArg::text(std::move(Key), std::move(Value)));
  applyTraceSchema(Header);
  return Header.argsJson();
}

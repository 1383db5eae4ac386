//===- Telemetry.h - Metric collectors and trace export ---------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Glue between the deterministic run artifacts (sem::Trace, hw::HwStats)
/// and the telemetry representations (MetricsRegistry, TraceSink). This is
/// where the counter namespace lives:
///
///   hw.<structure>.{hits,misses,evictions,writebacks,line_fills}
///     for structure in l1d, l2d, l1i, l2i, dtlb, itlb
///   interp.{steps,assignments,branches,mitigate_entries,events,
///           final_time_cycles}
///   mit.{predictions,mispredictions,padded_idle_cycles}
///   mit.miss_table.<level>   — the per-level Miss table at completion
///   leak.<level>.{windows,bits_bound,mispredict_penalty_bits} and
///   leak.{windows,total_bits_bound} — the running Sec. 6 bounds
///     (emitted by obs/LeakAudit.h, not the collectors below)
///   prof.{cycles,sleep_cycles,pad_cycles,accesses,windows,lines,sites,
///         leak_bits}, prof.line.L<line>.* (top-K hot lines) and
///   prof.site.m<eta>.* — the source-attribution profile
///     (emitted by obs/CostLedger.h)
///
/// and where the adversary projection of Sec. 6.1 is applied to exported
/// timelines: with an adversary level ℓA set, assignment events survive iff
/// Γ(x) ⊑ ℓA (the same test TraceDump uses) and cache-miss instants are
/// dropped entirely (machine-internal state, invisible to a language-level
/// observer). Mitigate spans are always kept: their padded durations are
/// exactly the public schedule values the mitigator releases.
///
/// All collected metrics derive from deterministic run data only — no
/// wall-clock — so they may appear in byte-stable report JSON.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_OBS_TELEMETRY_H
#define ZAM_OBS_TELEMETRY_H

#include "hw/CacheConfig.h"
#include "lattice/SecurityLattice.h"
#include "obs/Metrics.h"
#include "obs/TraceSink.h"
#include "sem/Event.h"
#include "sem/Mitigation.h"

#include <memory>
#include <optional>

namespace zam {

class CostLedger;

/// Folds \p Hw into \p Reg under `[Prefix]hw.<structure>.<counter>` names.
void collectHwMetrics(MetricsRegistry &Reg, const HwStats &Hw,
                      const std::string &Prefix = "");

/// Folds the interpreter and mitigator counters of \p T into \p Reg under
/// `[Prefix]interp.*` and `[Prefix]mit.*` names. \p Lat supplies the level
/// names for the Miss-table snapshot.
void collectTraceMetrics(MetricsRegistry &Reg, const Trace &T,
                         const SecurityLattice &Lat,
                         const std::string &Prefix = "");

/// collectTraceMetrics + collectHwMetrics in the canonical order
/// (interpreter, mitigator, hardware).
void collectRunMetrics(MetricsRegistry &Reg, const Trace &T, const HwStats &Hw,
                       const SecurityLattice &Lat,
                       const std::string &Prefix = "");

/// Serialization format for exported traces.
enum class TraceFormat {
  Jsonl,  ///< One JSON object per line.
  Chrome, ///< Chrome trace-event array (chrome://tracing, Perfetto).
  Ztb,    ///< Compact binary (obs/Ztb.h) for million-window runs.
};

/// Parses "jsonl"/"chrome"/"ztb"; std::nullopt otherwise.
std::optional<TraceFormat> parseTraceFormat(const std::string &Name);

/// Infers the format from \p Path's extension: .jsonl → Jsonl,
/// .json → Chrome, .ztb → Ztb; std::nullopt for anything else (callers
/// report an unknown-extension error unless --trace-format overrides).
std::optional<TraceFormat> inferTraceFormat(const std::string &Path);

/// The canonical CLI name of \p Format ("jsonl"/"chrome"/"ztb").
const char *traceFormatName(TraceFormat Format);

/// Builds a buffering sink for \p Format (finish() returns the bytes).
std::unique_ptr<TraceSink> makeTraceSink(TraceFormat Format);

/// Builds a streaming sink for \p Format that emits incrementally through
/// \p Out (call close() when done); O(1) memory with a FileByteSink.
std::unique_ptr<TraceSink> makeTraceSink(TraceFormat Format, ByteSink &Out);

/// What exportTrace() emits.
struct TraceExportOptions {
  /// When set, project to this adversary level: assignment events are
  /// filtered by Γ(x) ⊑ ℓA and cache-miss instants are dropped.
  std::optional<Label> Adversary;
  bool IncludeEvents = true; ///< Needs a trace that retained its events.
  bool IncludeMitigations = true;
  bool IncludeMisses = true;
  /// Emit a leak_budget span (cat "leak") per mitigate window the leakage
  /// accountant counts under the same adversary projection, carrying the
  /// priced Sec. 6 terms (obs/LeakAudit.h). tools/zamtrace recomputes the
  /// bound from these spans and cross-checks it against leak.* metrics.
  bool IncludeLeakBudget = true;
  /// When set (and no adversary projection is active), embed the source
  /// profile: one prof_line#/prof_site# instant (cat "prof") per ledger row
  /// at the run's final time. tools/zamtrace rebuilds what it can from the
  /// event stream and demands bit-for-bit agreement with these rows.
  const CostLedger *Ledger = nullptr;
  /// The run's mitigation-policy selection; must mirror the interpreter's
  /// so leak_budget spans are priced by the schedule that produced them.
  /// Sites whose policy differs from the run default additionally carry a
  /// per-span "policy" arg, so offline readers reconstruct the selection
  /// from the trace alone.
  PolicySelection Mitigation;
  /// When nonzero (and leak_budget spans are on), emit a metrics-snapshot
  /// meta row (name "snapshot", cat "obs") after every Nth counted window,
  /// carrying the running window count and Sec. 6 bits bound — a
  /// deterministic time series zamtrace report renders as a sparkline.
  /// Off by default so existing trace bytes are unchanged.
  uint64_t SnapshotEveryWindows = 0;
};

/// Streams \p T into \p Sink as one merged, time-ordered record sequence:
/// assignment instants (cat "interp"), mitigate spans (cat "mit"),
/// leak_budget spans (cat "leak"), cache-miss instants (cat "hw") and —
/// when a ledger is attached — source-profile rows (cat "prof").
/// Simultaneous records keep that stream order (each snapshot row right
/// after its leak window). Memory is one 16-byte sort key per record plus
/// one reused TraceRecord. \returns the number of records emitted.
size_t exportTrace(TraceSink &Sink, const Trace &T, const SecurityLattice &Lat,
                   const TraceExportOptions &Opts = TraceExportOptions());

/// Build provenance as trace-header key/value pairs: tool version, git
/// hash, compiler, build type and \p Threads (the configured worker count;
/// 0 = auto). Pass to TraceSink::header before exporting.
std::vector<std::pair<std::string, std::string>> provenanceArgs(
    unsigned Threads);

/// provenanceArgs plus the mitigation-policy record: when \p Mitigation is
/// anything but default fast-doubling, appends "mitigation" (the default
/// policy's canonical spec) and, with per-site overrides,
/// "mitigation_sites" ("eta=spec,..."). The paper-default configuration
/// adds no keys, so default-run artifacts stay byte-identical to the
/// pre-policy format; offline readers treat the absent key as
/// fast-doubling.
std::vector<std::pair<std::string, std::string>> provenanceArgs(
    unsigned Threads, const PolicySelection &Mitigation);

/// The same provenance as a JSON object — the `meta` block of `--stats`
/// and bench report documents.
JsonValue provenanceJson(unsigned Threads);

/// provenanceJson with the conditional mitigation-policy record (see the
/// provenanceArgs overload).
JsonValue provenanceJson(unsigned Threads, const PolicySelection &Mitigation);

} // namespace zam

#endif // ZAM_OBS_TELEMETRY_H

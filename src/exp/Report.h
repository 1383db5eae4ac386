//===- Report.h - Series/table aggregation for experiments ------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The uniform result container of the experiment harness. A Report holds
/// named series of measurements plus report-level scalars/verdicts, computes
/// the statistics every bench used to hand-roll (average, min/max,
/// distinct-count, coincidence), renders the familiar human-readable column
/// tables, and serializes to JSON (`--json <file>`) so bench trajectories
/// can be recorded as `BENCH_*.json` files and diffed across PRs.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_EXP_REPORT_H
#define ZAM_EXP_REPORT_H

#include "exp/ParallelRunner.h"
#include "obs/Json.h"
#include "obs/Metrics.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace zam {

/// Statistics over one series.
struct SeriesStats {
  size_t Count = 0;
  size_t Distinct = 0; ///< Number of distinct values.
  double Avg = 0;
  double Min = 0;
  double Max = 0;
};

/// Arithmetic mean; 0 for an empty vector. The single shared replacement
/// for the `average()` helpers the benches used to copy around.
double average(const std::vector<double> &V);
double average(const std::vector<uint64_t> &V);

/// One named measurement series.
struct Series {
  std::string Name;
  std::vector<double> Values;

  SeriesStats stats() const;
  /// True when every value is identical (the Fig. 7/8 "curves coincide"
  /// check within one series).
  bool allEqual() const { return stats().Distinct <= 1; }
};

/// A titled collection of series plus report-level facts.
class Report {
public:
  explicit Report(std::string Title) : Title(std::move(Title)) {}

  Series &addSeries(std::string Name, std::vector<double> Values);
  Series &addSeries(std::string Name, const std::vector<uint64_t> &Values);

  const std::vector<Series> &series() const { return AllSeries; }
  /// Lookup by name; nullptr when absent.
  const Series *find(const std::string &Name) const;
  /// Average of a named series; 0 when absent.
  double seriesAverage(const std::string &Name) const;
  /// True when two named series exist and are element-wise identical (the
  /// cross-secret coincidence check of Fig. 7).
  bool coincide(const std::string &A, const std::string &B) const;

  /// Optional labels for the table's index column (e.g. "max secret"
  /// values); defaults to the ordinal index named \p Header.
  void setIndex(std::string Header, std::vector<double> Values);

  /// Report-level facts, kept in insertion order for stable output.
  void setScalar(std::string Key, double Value);
  void setVerdict(std::string Key, bool Value);
  void setText(std::string Key, std::string Value);
  /// The verdict value; \p Default when unset.
  bool verdict(const std::string &Key, bool Default = false) const;

  /// The report's telemetry counters (see obs/Telemetry.h for the naming
  /// scheme). Benches fill this from representative deterministic runs;
  /// serialized as the "metrics" JSON object when non-empty. Only
  /// deterministic, machine-independent values belong here — the bench
  /// byte-stability audits cover this object too.
  MetricsRegistry &metrics() { return Metrics; }
  const MetricsRegistry &metrics() const { return Metrics; }

  /// Wall-clock facts (elapsed milliseconds, speedups). Kept apart from
  /// setScalar so the timing noise never enters the deterministic
  /// projection the byte-stability audits compare; serialized as the
  /// trailing "wall" object.
  void setWallScalar(std::string Key, double Value);

  /// Attaches a PhaseProfiler::toJson() wall-clock breakdown, serialized
  /// as the trailing "phases" object (excluded from deterministicJson like
  /// the wall scalars).
  void setPhases(JsonValue PhasesJson);

  /// Renders all series as aligned columns, one row per index, emitting
  /// every \p Stride-th row (benches print every 5th attempt).
  std::string renderTable(size_t Stride = 1) const;
  /// Renders one "name: count/avg/min/max/distinct" line per series plus
  /// the recorded scalars and verdicts.
  std::string renderSummary() const;

  /// The machine-readable form:
  /// { "title", "scalars": {...}, "verdicts": {...}, "text": {...},
  ///   "metrics": {...},
  ///   "series": [ { "name", "values": [...], "stats": {...} } ],
  ///   "wall": {...}, "phases": {...} }
  /// The wall-clock tail rides along only when \p IncludeWallClock is set.
  JsonValue toJson(bool IncludeWallClock = true) const;

  /// The deterministic projection — toJson without the wall-clock tail.
  /// This is what the 1/2/8-thread identity checks compare: every field is
  /// derived from cycle-accurate run data, so the bytes cannot vary with
  /// timing noise.
  JsonValue deterministicJson() const { return toJson(false); }

private:
  std::string Title;
  std::string IndexHeader = "index";
  std::vector<double> IndexValues;
  std::vector<Series> AllSeries;
  std::vector<std::pair<std::string, double>> Scalars;
  std::vector<std::pair<std::string, bool>> Verdicts;
  std::vector<std::pair<std::string, std::string>> Texts;
  std::vector<std::pair<std::string, double>> WallScalars;
  JsonValue Phases; ///< Null until setPhases.
  MetricsRegistry Metrics;
};

/// One independent measurement series of a session-style workload: a name
/// plus a thunk producing the series values. The thunk must build its own
/// session and machine environment (so concurrent thunks share nothing) and
/// be deterministic.
struct SeriesSpec {
  std::string Name;
  std::function<std::vector<uint64_t>()> Run;
};

/// Runs every series (concurrently when \p Runner has multiple threads) and
/// adds them to \p R in declaration order, so the report is identical for
/// any thread count.
void runSeriesInto(Report &R, const std::vector<SeriesSpec> &Specs,
                   const ParallelRunner &Runner);

} // namespace zam

#endif // ZAM_EXP_REPORT_H

//===- Layers.h - Spans and per-layer measurements for zam_perf -*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run splits host time by layer from outside the program: it
/// only times calls into each module's public functions, runs the engine
/// against env stand-ins defined here, and toggles InterpreterOptions
/// hooks one at a time. Nothing inside src/ is instrumented.
///
/// Spans (workload → rep → run → sem.construct | sem.run | hw.clone |
/// adv.audit | adv.detect | obs.export) stay in memory and are written as
/// Chrome trace JSON when the run ends.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_BENCH_PERF_LAYERS_H
#define ZAM_BENCH_PERF_LAYERS_H

#include "Workloads.h"

#include "obs/CostLedger.h"

#include <map>
#include <string>
#include <vector>

namespace zam::perf {

/// In-memory span log. Span ids are 1-based; parent 0 is the root.
class SpanRecorder {
public:
  struct Span {
    uint32_t Parent = 0;
    const char *Name = "";
    Clock::time_point Start;
    Clock::time_point End;
  };

  /// Per-name totals: self time is a span's duration minus the time its
  /// children cover.
  struct SelfTime {
    uint64_t Count = 0;
    double TotalUs = 0;
    double SelfUs = 0;
  };

  uint32_t begin(const char *Name, uint32_t Parent) {
    Spans.push_back({Parent, Name, Clock::now(), {}});
    return static_cast<uint32_t>(Spans.size());
  }
  void end(uint32_t Id) { Spans[Id - 1].End = Clock::now(); }

  const std::vector<Span> &spans() const { return Spans; }

  std::map<std::string, SelfTime> selfTimes() const;

  /// Writes the spans as Chrome trace-event JSON ("X" events carrying
  /// their id and parent id). \returns false on an I/O error.
  bool writeChrome(const std::string &Path, const std::string &Workload) const;

private:
  std::vector<Span> Spans;
};

/// Times one span for the lifetime of the scope; a null recorder records
/// nothing, so one code path serves the traced and untraced loops.
class SpanScope {
public:
  SpanScope(SpanRecorder *R, const char *Name, uint32_t Parent)
      : R(R), Id(R ? R->begin(Name, Parent) : 0) {}
  ~SpanScope() {
    if (R)
      R->end(Id);
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

  uint32_t id() const { return Id; }

private:
  SpanRecorder *R;
  uint32_t Id;
};

/// Exports \p T (with \p Ledger's profile rows when set) as `zamc profile
/// --trace-out` does by default, into a sink that only counts the bytes.
/// \returns the byte count.
uint64_t exportCounting(const Trace &T, const SecurityLattice &Lat,
                        const CostLedger *Ledger);

/// Measures the layers of \p W's representative run, repeating each
/// measurement over about \p Runs runs (interleaved, medians reported),
/// and appends the metrics to \p Out. Every engine run against the replay
/// env must reproduce the recorded FinalTime and every env replay the
/// recorded latencies; mismatches count as failed runs in \p T.
void measureLayers(Workload &W, size_t Runs, MetricList &Out, Tally &T);

} // namespace zam::perf

#endif // ZAM_BENCH_PERF_LAYERS_H

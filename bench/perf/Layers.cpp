//===- Layers.cpp - Spans and per-layer measurements for zam_perf ---------===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "Stats.h"

#include "exp/ParallelRunner.h"
#include "ir/Lir.h"
#include "ir/Lowering.h"
#include "obs/CostLedger.h"
#include "obs/ExecProfile.h"
#include "obs/LeakAudit.h"
#include "obs/Telemetry.h"
#include "obs/TraceSink.h"
#include "support/Diagnostics.h"

#include <cstdio>

using namespace zam;
using namespace zam::perf;

std::map<std::string, SpanRecorder::SelfTime> SpanRecorder::selfTimes() const {
  // Siblings never overlap (the loops are sequential), so the time the
  // children cover is the sum of their durations.
  std::vector<double> ChildUs(Spans.size() + 1, 0);
  for (const Span &S : Spans)
    ChildUs[S.Parent] += elapsedUs(S.Start, S.End);
  std::map<std::string, SelfTime> Out;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const double Us = elapsedUs(Spans[I].Start, Spans[I].End);
    SelfTime &T = Out[Spans[I].Name];
    ++T.Count;
    T.TotalUs += Us;
    T.SelfUs += Us - ChildUs[I + 1];
  }
  return Out;
}

bool SpanRecorder::writeChrome(const std::string &Path,
                               const std::string &Workload) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  const Clock::time_point Origin =
      Spans.empty() ? Clock::time_point() : Spans.front().Start;
  std::fprintf(F, "{\"otherData\": {\"workload\": \"%s\"},\n"
                  "\"traceEvents\": [\n",
               Workload.c_str());
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "%s{\"name\": \"%s\", \"cat\": \"perf\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                 "\"args\": {\"id\": %zu, \"parent\": %u}}\n",
                 I ? "," : "", S.Name, elapsedUs(Origin, S.Start),
                 elapsedUs(S.Start, S.End), I + 1, S.Parent);
  }
  std::fprintf(F, "]}\n");
  return std::fclose(F) == 0;
}

namespace {
/// Counts the bytes an exporter writes and discards them.
class CountingSink final : public ByteSink {
public:
  void write(const char *, size_t Size) override { Bytes += Size; }
  uint64_t Bytes = 0;
};
} // namespace

uint64_t zam::perf::exportCounting(const Trace &T, const SecurityLattice &Lat,
                                  const CostLedger *Ledger) {
  CountingSink Bytes;
  std::unique_ptr<TraceSink> Sink = makeTraceSink(TraceFormat::Jsonl, Bytes);
  TraceExportOptions EOpts;
  EOpts.Ledger = Ledger;
  exportTrace(*Sink, T, Lat, EOpts);
  Sink->close();
  return Bytes.Bytes;
}

namespace {

/// One hardware access of the recorded run.
struct Access {
  Addr A = 0;
  Label Read, Write;
  bool IsData = false;
  bool IsStore = false;
  uint64_t Cycles = 0;
};

/// Forwards to a real env and logs every access with its latency.
/// Everything but the two access paths delegates to the wrapped env.
class RecordingEnv final : public MachineEnv {
public:
  explicit RecordingEnv(MachineEnv &Inner)
      : MachineEnv(Inner.hwKind(), Inner.lattice(), Inner.config()),
        Inner(Inner) {}

  uint64_t dataAccess(Addr A, bool IsStore, Label Read,
                      Label Write) override {
    uint64_t C = Inner.dataAccess(A, IsStore, Read, Write);
    Log.push_back({A, Read, Write, true, IsStore, C});
    return C;
  }
  uint64_t fetch(Addr A, Label Read, Label Write) override {
    uint64_t C = Inner.fetch(A, Read, Write);
    Log.push_back({A, Read, Write, false, false, C});
    return C;
  }
  std::unique_ptr<MachineEnv> clone() const override { return Inner.clone(); }
  bool projectionEquals(const MachineEnv &Other, Label L) const override {
    return Inner.projectionEquals(Other, L);
  }
  void reset() override { Inner.reset(); }
  void randomize(Rng &R) override { Inner.randomize(R); }
  void perturbAbove(Label L, Rng &R) override { Inner.perturbAbove(L, R); }
  HwStats stats() const override { return Inner.stats(); }
  void resetStats() override { Inner.resetStats(); }

  std::vector<Access> Log;

private:
  MachineEnv &Inner;
};

/// Stands in for the hardware: returns the recorded latencies in order,
/// so a run against it times the engine with the env reduced to a virtual
/// call and a vector read.
class ReplayEnv final : public MachineEnv {
public:
  ReplayEnv(const MachineEnv &Like, const std::vector<uint64_t> &Latencies)
      : MachineEnv(Like.hwKind(), Like.lattice(), Like.config()),
        Latencies(Latencies) {}

  uint64_t dataAccess(Addr, bool, Label, Label) override { return next(); }
  uint64_t fetch(Addr, Label, Label) override { return next(); }
  std::unique_ptr<MachineEnv> clone() const override {
    reportFatalError("zam_perf: ReplayEnv cannot be cloned");
  }
  bool projectionEquals(const MachineEnv &, Label) const override {
    return false;
  }
  void reset() override { Pos = 0; }
  void randomize(Rng &) override {}
  void perturbAbove(Label, Rng &) override {}

private:
  uint64_t next() {
    if (Pos == Latencies.size())
      reportFatalError("zam_perf: replayed run made more accesses than the "
                       "recorded one");
    return Latencies[Pos++];
  }

  const std::vector<uint64_t> &Latencies;
  size_t Pos = 0;
};

/// Counts engine dispatches.
class DispatchCounter final : public ExecProbe {
public:
  void onProgram(const IrProgram &) override {}
  void onDispatch(uint32_t) override { ++Dispatches; }
  void onBranch(uint32_t, bool) override {}
  void onSettle(unsigned, unsigned) override {}

  uint64_t Dispatches = 0;
};

/// Replays \p Log on \p Env; counts latencies that differ from the
/// recorded ones into \p Mismatches when it is set.
uint64_t replay(MachineEnv &Env, const std::vector<Access> &Log,
                uint64_t *Mismatches) {
  uint64_t Sum = 0;
  for (const Access &X : Log) {
    uint64_t C = X.IsData ? Env.dataAccess(X.A, X.IsStore, X.Read, X.Write)
                          : Env.fetch(X.A, X.Read, X.Write);
    Sum += C;
    if (Mismatches && C != X.Cycles)
      ++*Mismatches;
  }
  return Sum;
}

/// Everything recorded about one input of the representative run.
struct Recorded {
  std::vector<Access> Log;
  std::vector<uint64_t> Latencies;
  uint64_t Dispatches = 0;
  CacheLevelStats L1D, L1I;
  Trace T;                 ///< Of the unobserved run (adv.audit input).
  Trace ObservedT;         ///< With RecordMisses and a ledger attached.
  CostLedger Ledger;       ///< The ledger of ObservedT's run.
};

CacheLevelStats delta(const CacheLevelStats &After,
                      const CacheLevelStats &Before) {
  CacheLevelStats D;
  D.Hits = After.Hits - Before.Hits;
  D.Misses = After.Misses - Before.Misses;
  return D;
}

/// Per-sample accumulator: each sample sums one measurement over all
/// inputs, and the stored value is the mean per input.
class Series {
public:
  void add(double Us) { Sum += Us; }
  void close(size_t Inputs) {
    Values.push_back(Sum / static_cast<double>(Inputs));
    Sum = 0;
  }
  double med() const { return median(Values); }
  const std::vector<double> &values() const { return Values; }

private:
  std::vector<double> Values;
  double Sum = 0;
};

double pct(double X, double Base) { return (X / Base - 1) * 100; }
double diff(double X, double Base) { return X - Base; }

/// The median over samples of \p Change(X's value, Base's value). Both
/// were measured in every sample, close together, so pairing them cancels
/// the host's drift between samples.
double pairedMedian(const Series &X, const Series &Base,
                    double (*Change)(double, double)) {
  std::vector<double> V;
  for (size_t I = 0; I != X.values().size(); ++I)
    V.push_back(Change(X.values()[I], Base.values()[I]));
  return median(V);
}

} // namespace

void zam::perf::measureLayers(Workload &W, size_t Runs, MetricList &Out,
                              Tally &T) {
  const LayerRun L = W.layerRun();
  const size_t NIn = L.Inputs.size();
  const size_t Samples = std::max<size_t>(3, Runs / NIn);
  const SecurityLattice &Lat = L.P->lattice();

  // A fresh copy of the pre-run Miss table for every run.
  auto options = [&L](std::optional<MitigationState> &Mit) {
    InterpreterOptions O = L.Opts;
    Mit = L.MitBefore;
    if (Mit)
      O.SharedMitState = &*Mit;
    return O;
  };

  // Record every input once: its access stream with latencies, FinalTime,
  // hit ratios, dispatch count, and an observed trace to export.
  std::vector<Recorded> Rec(NIn);
  for (size_t I = 0; I != NIn; ++I) {
    Recorded &R = Rec[I];
    std::optional<MitigationState> Mit;
    {
      auto Env = L.EnvBefore->clone();
      const HwStats Before = Env->stats();
      RecordingEnv RecEnv(*Env);
      FullInterpreter Interp(*L.P, RecEnv, options(Mit));
      L.Inputs[I](Interp.memory());
      RunResult Res = Interp.run();
      const HwStats After = Env->stats();
      R.L1D = delta(After.L1D, Before.L1D);
      R.L1I = delta(After.L1I, Before.L1I);
      R.T = std::move(Res.T);
      R.Log = std::move(RecEnv.Log);
      for (const Access &X : R.Log)
        R.Latencies.push_back(X.Cycles);
    }
    {
      auto Env = L.EnvBefore->clone();
      DispatchCounter Probe;
      InterpreterOptions O = options(Mit);
      O.Probe = &Probe;
      FullInterpreter Interp(*L.P, *Env, O);
      L.Inputs[I](Interp.memory());
      Interp.run();
      R.Dispatches = Probe.Dispatches;
    }
    {
      auto Env = L.EnvBefore->clone();
      InterpreterOptions O = options(Mit);
      O.Provenance = &R.Ledger;
      O.RecordMisses = true;
      FullInterpreter Interp(*L.P, *Env, O);
      L.Inputs[I](Interp.memory());
      R.ObservedT = Interp.run().T;
    }
  }

  // Each design's env, warmed by one replay of every input's stream.
  const HwKind Designs[] = {HwKind::NoPartition, HwKind::NoFill,
                            HwKind::Partitioned};
  std::vector<std::unique_ptr<MachineEnv>> Warm;
  for (HwKind K : Designs) {
    Warm.push_back(createMachineEnv(K, Lat, L.EnvBefore->config()));
    for (const Recorded &R : Rec)
      replay(*Warm.back(), R.Log, nullptr);
  }

  Series Construct, Run, Engine, Clone, Lower, ReplayOwn, Bare, Probe, Ledger,
      Misses, AuditHook, Ingest, Export, Plain, Mapped;
  std::vector<Series> ReplayDesign(std::size(Designs));
  const ParallelRunner Runner(1);
  uint64_t Mismatches = 0;

  for (size_t S = 0; S != Samples; ++S) {
    {
      auto T0 = Clock::now();
      IrProgram IR = lowerProgram(*L.P, L.Opts.Costs, L.Opts.Mitigation);
      LirProgram Lir = lowerToLir(IR);
      Lower.add(elapsedUs(T0, Clock::now()));
    }
    for (size_t I = 0; I != NIn; ++I) {
      const Recorded &R = Rec[I];
      std::optional<MitigationState> Mit;

      // The unobserved run: clone, construct, run.
      {
        auto T0 = Clock::now();
        auto Env = L.EnvBefore->clone();
        auto T1 = Clock::now();
        FullInterpreter Interp(*L.P, *Env, options(Mit));
        L.Inputs[I](Interp.memory());
        auto T2 = Clock::now();
        RunResult Res = Interp.run();
        auto T3 = Clock::now();
        Clone.add(elapsedUs(T0, T1));
        Construct.add(elapsedUs(T1, T2));
        Run.add(elapsedUs(T2, T3));
      }

      // The engine alone, against the recorded latencies.
      {
        ReplayEnv Stub(*L.EnvBefore, R.Latencies);
        FullInterpreter Interp(*L.P, Stub, options(Mit));
        L.Inputs[I](Interp.memory());
        auto T0 = Clock::now();
        RunResult Res = Interp.run();
        Engine.add(elapsedUs(T0, Clock::now()));
        ++T.Attempted;
        if (Res.T.FinalTime != R.T.FinalTime)
          ++T.Failed;
      }

      // The env alone: the access stream on the pre-run snapshot, then on
      // each design.
      {
        auto Env = L.EnvBefore->clone();
        uint64_t Bad = 0;
        auto T0 = Clock::now();
        replay(*Env, R.Log, &Bad);
        ReplayOwn.add(elapsedUs(T0, Clock::now()));
        Mismatches += Bad;
      }
      for (size_t D = 0; D != Warm.size(); ++D) {
        auto Env = Warm[D]->clone();
        auto T0 = Clock::now();
        replay(*Env, R.Log, nullptr);
        ReplayDesign[D].add(elapsedUs(T0, Clock::now()));
      }

      // One observer at a time against an unobserved run made just before
      // them. The replays above leave the host's caches cold for this
      // program, so an unmeasured run goes first: a measured run that
      // found them cold would read several percent slow.
      auto observed = [&](Series *Into, auto &&Attach) {
        auto Env = L.EnvBefore->clone();
        InterpreterOptions O = options(Mit);
        Attach(O);
        FullInterpreter Interp(*L.P, *Env, O);
        L.Inputs[I](Interp.memory());
        auto T0 = Clock::now();
        RunResult Res = Interp.run();
        if (Into)
          Into->add(elapsedUs(T0, Clock::now()));
      };
      observed(nullptr, [](InterpreterOptions &) {});
      observed(&Bare, [](InterpreterOptions &) {});
      {
        ExecProfile Prof;
        observed(&Probe, [&](InterpreterOptions &O) { O.Probe = &Prof; });
      }
      {
        CostLedger Led;
        observed(&Ledger, [&](InterpreterOptions &O) { O.Provenance = &Led; });
      }
      observed(&Misses, [](InterpreterOptions &O) { O.RecordMisses = true; });
      {
        LeakAudit Audit(Lat);
        observed(&AuditHook, [&](InterpreterOptions &O) {
          O.OnMitigateWindow = [&Audit](const MitigateRecord &M) {
            Audit.onWindow(M);
          };
        });
      }

      // Post-run consumers: the adversary's audit replay and the exporter.
      {
        auto T0 = Clock::now();
        LeakAudit Audit(Lat);
        Audit.ingest(R.T);
        Ingest.add(elapsedUs(T0, Clock::now()));
      }
      {
        auto T0 = Clock::now();
        exportCounting(R.ObservedT, Lat, &R.Ledger);
        Export.add(elapsedUs(T0, Clock::now()));
      }
    }

    // The experiment runner against a plain loop over the same runs, both
    // after an unmeasured loop (the export above leaves the caches cold).
    auto oneRun = [&](size_t I) {
      std::optional<MitigationState> Mit;
      auto Env = L.EnvBefore->clone();
      FullInterpreter Interp(*L.P, *Env, options(Mit));
      L.Inputs[I](Interp.memory());
      return Interp.run().T.FinalTime;
    };
    for (size_t I = 0; I != NIn; ++I)
      oneRun(I);
    {
      auto T0 = Clock::now();
      for (size_t I = 0; I != NIn; ++I)
        oneRun(I);
      Plain.add(elapsedUs(T0, Clock::now()));
    }
    {
      auto T0 = Clock::now();
      Runner.map(NIn, oneRun);
      Mapped.add(elapsedUs(T0, Clock::now()));
    }

    Lower.close(1); // Once per program, not per input.
    for (Series *X : {&Construct, &Run, &Engine, &Clone, &ReplayOwn, &Bare,
                      &Probe, &Ledger, &Misses, &AuditHook, &Ingest, &Export,
                      &Plain, &Mapped})
      X->close(NIn);
    for (Series &X : ReplayDesign)
      X.close(NIn);
  }
  T.Attempted += Samples * NIn;
  if (Mismatches)
    T.Failed += Samples * NIn;

  double Accesses = 0, Dispatches = 0, Bytes = 0;
  CacheLevelStats L1D, L1I;
  for (const Recorded &R : Rec) {
    Accesses += static_cast<double>(R.Log.size());
    Dispatches += static_cast<double>(R.Dispatches);
    L1D.Hits += R.L1D.Hits;
    L1D.Misses += R.L1D.Misses;
    L1I.Hits += R.L1I.Hits;
    L1I.Misses += R.L1I.Misses;
    Bytes += static_cast<double>(exportCounting(R.ObservedT, Lat, &R.Ledger));
  }
  Accesses /= static_cast<double>(NIn);
  Dispatches /= static_cast<double>(NIn);
  Bytes /= static_cast<double>(NIn);
  auto ratio = [](const CacheLevelStats &C) {
    return C.accesses() ? static_cast<double>(C.Hits) /
                              static_cast<double>(C.accesses())
                        : 1.0;
  };

  Out.push_back({"ir.lower_us", Lower.med(), "us"});
  Out.push_back({"sem.construct_us", Construct.med(), "us"});
  Out.push_back({"sem.run_us", Run.med(), "us"});
  Out.push_back({"sem.engine_us", Engine.med(), "us"});
  Out.push_back({"sem.dispatches", Dispatches, "count"});
  Out.push_back(
      {"sem.ns_per_dispatch", Engine.med() * 1e3 / Dispatches, "ns"});
  Out.push_back({"hw.accesses", Accesses, "count"});
  Out.push_back({"hw.l1d_hit_ratio", ratio(L1D), "ratio"});
  Out.push_back({"hw.l1i_hit_ratio", ratio(L1I), "ratio"});
  Out.push_back({"hw.ns_per_access", ReplayOwn.med() * 1e3 / Accesses, "ns"});
  for (size_t D = 0; D != Warm.size(); ++D)
    Out.push_back({std::string("hw.ns_per_access.") + hwKindName(Designs[D]),
                   ReplayDesign[D].med() * 1e3 / Accesses, "ns"});
  Out.push_back({"hw.clone_us", Clone.med(), "us"});
  Out.push_back({"obs.probe_pct", pairedMedian(Probe, Bare, pct), "%"});
  Out.push_back({"obs.ledger_pct", pairedMedian(Ledger, Bare, pct), "%"});
  Out.push_back({"obs.misses_pct", pairedMedian(Misses, Bare, pct), "%"});
  Out.push_back({"obs.audit_us", pairedMedian(AuditHook, Bare, diff), "us"});
  Out.push_back({"obs.export_us", Export.med(), "us"});
  Out.push_back({"obs.trace_bytes", Bytes, "bytes"});
  Out.push_back({"adv.audit_us", Ingest.med(), "us"});
  Out.push_back(
      {"exp.runner_overhead_pct", pairedMedian(Mapped, Plain, pct), "%"});
}

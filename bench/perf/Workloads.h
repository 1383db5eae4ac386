//===- Workloads.h - The four zam_perf workloads ----------------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unit of work is one simulated run: a program × a machine env × a
/// hardware design. Each workload drives those runs through the public API
/// its users call (RsaSession, LoginSession, streamObservations, the
/// profile pipeline), checks every run against an independent reference,
/// and can replay a representative run for the per-layer measurements.
///
/// All workloads are single-threaded closed loops: the next run starts
/// when the previous one has returned.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_BENCH_PERF_WORKLOADS_H
#define ZAM_BENCH_PERF_WORKLOADS_H

#include "hw/MachineEnv.h"
#include "lang/Ast.h"
#include "sem/FullInterpreter.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace zam::perf {

using Clock = std::chrono::steady_clock;

inline double elapsedUs(Clock::time_point Start, Clock::time_point End) {
  return std::chrono::duration<double, std::micro>(End - Start).count();
}

/// One named metric value with its unit.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};
using MetricList = std::vector<Metric>;

/// Host time of one setup repetition, split by the layer that spent it.
/// A phase the workload does not have stays negative.
struct SetupSplit {
  double BuildUs = -1;     ///< apps: program construction.
  double CalibrateUs = -1; ///< apps: initial-prediction calibration.
  double ParseUs = -1;     ///< lang: parsing the source text.
  double CheckUs = -1;     ///< types: label inference and type checking.
  double TotalS = 0;       ///< The whole repetition.
};

/// Simulated runs attempted and failed (any oracle mismatch).
struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// A representative simulated run the per-layer measurements repeat on a
/// fresh copy of the pre-run state each time: the program, the env as it
/// was before the run, the options (no hooks), the shared Miss table as it
/// was before the run (sessions only), and one or more inputs. Every
/// measurement runs all inputs and reports the mean per input.
struct LayerRun {
  const Program *P = nullptr;
  const MachineEnv *EnvBefore = nullptr;
  InterpreterOptions Opts;
  std::optional<MitigationState> MitBefore;
  std::vector<std::function<void(Memory &)>> Inputs;
};

class SpanRecorder;

class Workload {
public:
  virtual ~Workload() = default;

  virtual const char *name() const = 0;

  /// Operations in one rep at the default 10 s budget, sized to about
  /// 0.1 s per rep on a 4-core Xeon; the benchmark scales it linearly
  /// with --seconds so the count is the same on every commit.
  virtual size_t opsPerRep() const = 0;

  /// Builds every input from \p Seed, builds or parses and checks the
  /// program, calibrates, creates the env and performs one warm-up run.
  /// Replaces any state of an earlier setup.
  virtual SetupSplit setup(uint64_t Seed) = 0;

  /// Runs \p Ops operations, appending one host-latency sample in µs per
  /// operation (attack_sweep: one per-sample mean per chunk) to \p LatUs.
  virtual void runOps(size_t Ops, std::vector<double> &LatUs, Tally &T) = 0;

  /// The same work as runOps, decomposed into the calls each layer makes
  /// and recorded as spans under \p Parent.
  virtual void runOpsTraced(size_t Ops, SpanRecorder &Spans, uint32_t Parent,
                            Tally &T) = 0;

  /// The representative run for the per-layer measurements.
  virtual LayerRun layerRun() = 0;

  /// Per-layer metrics only this workload has (appended to \p Out); runs
  /// for about \p Seconds.
  virtual void extraLayers(double Seconds, MetricList &Out, Tally &T) {}

  /// FNV-1a over the simulated statistics of the first kDigestRuns
  /// measured runs since the last setup.
  uint64_t digest() const { return Digest; }
  bool digestComplete() const { return DigestRuns == kDigestRuns; }

  static constexpr unsigned kDigestRuns = 32;

protected:
  void digestWords(std::initializer_list<uint64_t> Words);
  void digestHw(const HwStats &S);
  /// Call after each measured run's words were added.
  void digestRunDone() {
    if (DigestRuns < kDigestRuns)
      ++DigestRuns;
  }
  void resetDigest() {
    Digest = kFnvBasis;
    DigestRuns = 0;
  }

private:
  static constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
  uint64_t Digest = kFnvBasis;
  unsigned DigestRuns = 0;
};

/// The workload names, in the order the full benchmark runs them.
const std::vector<std::string> &workloadNames();

/// nullptr for an unknown name.
std::unique_ptr<Workload> makeWorkload(const std::string &Name);

} // namespace zam::perf

#endif // ZAM_BENCH_PERF_WORKLOADS_H

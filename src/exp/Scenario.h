//===- Scenario.h - Uniform description of deterministic runs ---*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The run-description layer of the experiment harness. A Scenario bundles
/// everything one deterministic execution needs — the program, a machine
/// environment template (lattice + HwKind + cache geometry), and the
/// interpreter options — and a RunSpec describes one run's inputs (scalar
/// and array overrides plus an arbitrary memory-preparation hook).
///
/// Scenarios are shared read-only across worker threads; every run clones
/// the environment template, so concurrent runs never touch shared mutable
/// state. Session-style workloads (persistent mitigation state across
/// requests) fan out at series granularity instead, via SeriesSpec.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_EXP_SCENARIO_H
#define ZAM_EXP_SCENARIO_H

#include "exp/ParallelRunner.h"
#include "exp/Report.h"
#include "hw/MachineEnv.h"
#include "lang/Ast.h"
#include "sem/CompiledProgram.h"
#include "sem/FullInterpreter.h"

#include <functional>
#include <string>
#include <vector>

namespace zam {

/// One deterministic run's inputs, applied to the interpreter's initial
/// memory before execution: scalar overrides, array overrides, then the
/// optional Prepare hook (in that order).
struct RunSpec {
  std::vector<std::pair<std::string, int64_t>> Scalars;
  std::vector<std::pair<std::string, std::vector<int64_t>>> Arrays;
  std::function<void(Memory &)> Prepare;

  void applyTo(Memory &M) const;
};

/// A shared experiment context: program + environment template + options.
/// Immutable after construction; safe to use from any number of worker
/// threads concurrently (each run clones the template).
class Scenario {
public:
  /// Builds the machine environment from a design kind and configuration.
  Scenario(const Program &P, HwKind Hw,
           MachineEnvConfig Config = MachineEnvConfig(),
           InterpreterOptions Opts = InterpreterOptions());

  /// Clones an existing environment template (e.g. a pre-warmed machine).
  Scenario(const Program &P, const MachineEnv &EnvTemplate,
           InterpreterOptions Opts = InterpreterOptions());

  const Program &program() const { return *P; }
  const MachineEnv &envTemplate() const { return *EnvTemplate; }
  const InterpreterOptions &options() const { return Opts; }
  std::unique_ptr<MachineEnv> cloneEnv() const {
    return EnvTemplate->clone();
  }

  /// Executes one run on a fresh clone of the environment template.
  RunResult run(const RunSpec &Spec) const;

  /// Executes every spec (fanned out over \p Runner) and returns results in
  /// submission order.
  std::vector<RunResult> runAll(const std::vector<RunSpec> &Specs,
                                const ParallelRunner &Runner) const;

private:
  const Program *P;
  InterpreterOptions Opts;
  std::unique_ptr<const CompiledProgram> Compiled; ///< Shared by every run.
  std::unique_ptr<MachineEnv> EnvTemplate;
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

#endif // ZAM_EXP_SCENARIO_H

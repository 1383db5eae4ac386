//===- FullInterpreter.h - Run-to-completion IR driver ----------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The production engine for the full semantics: configurations
/// ⟨c, m, E, G⟩ executed over the flat timing-IR (ir/Ir.h) by the shared
/// execution core (sem/ExecCore.h). It runs a compiled form
/// (sem/CompiledProgram.h) — the program lowered once, with variables
/// resolved to memory slots, code addresses, timing labels and attribution
/// locations — and run() drives the core to completion in a tight
/// program-counter loop. It charges exactly the same costs as the
/// resumable small-step cursor (sem/StepInterpreter.h) — both execute the
/// same IR through the same core, and the agreement is additionally
/// checked cycle-for-cycle by the property-based tests.
///
/// Timing of one evaluation step:
///   BaseStep + instruction fetch at the command's code address
///            + data accesses and ALU costs of the expressions evaluated
///            + Branch for if/while, + max(n,0) for sleep.
/// Mitigate commands implement the predictive semantics of Fig. 6: the
/// padded duration of the mitigated body (measured from the completion of
/// the entry step) always equals the schedule's final prediction.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_SEM_FULLINTERPRETER_H
#define ZAM_SEM_FULLINTERPRETER_H

#include "hw/MachineEnv.h"
#include "lang/Ast.h"
#include "sem/CostModel.h"
#include "sem/Event.h"
#include "sem/Limits.h"
#include "sem/Memory.h"
#include "sem/Mitigation.h"
#include "sem/Provenance.h"

#include <functional>
#include <memory>

namespace zam {

class CompiledProgram;
class ExecCore;

/// Knobs shared by both full-semantics engines. Costs and Mitigation are
/// the *lowering inputs*: they shape the compiled form
/// (sem/CompiledProgram.h), so every run of one compiled form must pass the
/// same ones. All other fields may change from run to run.
struct InterpreterOptions {
  CostModel Costs;
  /// Which mitigation policy governs each mitigate site: a run-wide default
  /// (fast-doubling when unset) plus optional per-η overrides. Lowering
  /// resolves each mitigate instruction's policy from this selection, and
  /// the same selection must be handed to the leakage accountant / trace
  /// exporter so windows are priced by the policy that scheduled them.
  PolicySelection Mitigation;
  PenaltyPolicy Penalty = PenaltyPolicy::PerLevel;
  /// Bound on primitive evaluation steps (diverging-program safety net;
  /// rationale at the constant's definition).
  uint64_t StepLimit = kDefaultStepLimit;
  /// When set, the interpreter uses (and mutates) this external Miss table
  /// instead of a fresh one, so predictive-mitigation state persists across
  /// runs — e.g. over the requests of one login session (Sec. 8.3). The
  /// state must be over the program's lattice; Penalty (and the selection's
  /// default policy) are ignored in favor of the shared state's own.
  MitigationState *SharedMitState = nullptr;
  /// Record a per-access miss timeline into Trace::Misses (big-step engine
  /// only; costs an observer callback per hardware access, so it is off by
  /// default and enabled by the trace exporters).
  bool RecordMisses = false;
  /// Invoked by both engines right after a mitigate window settles and its
  /// record is appended to the trace. This is how the online leakage
  /// accountant (obs/LeakAudit.h) observes windows without sem depending on
  /// obs. Must be deterministic; called on the interpreter's thread.
  std::function<void(const MitigateRecord &)> OnMitigateWindow;
  /// When set, both engines charge every cost event (step cycles, hardware
  /// accesses, sleep and mitigation padding) to this sink tagged with the
  /// current attribution cursor — the source profiler's data feed
  /// (obs/CostLedger.h implements it). Installs the hardware observer for
  /// the run like RecordMisses does. Not owned.
  CostSink *Provenance = nullptr;
  /// When set, both engines report every instruction dispatch, branch
  /// direction, and mitigate-window settle to this probe — the engine
  /// self-profiler's data feed (obs/ExecProfile.h implements it). Purely
  /// observational: attaching a probe never changes costs, the trace, or
  /// the leakage ledger. Not owned.
  ExecProbe *Probe = nullptr;
};

/// Outcome of a full-semantics run.
struct RunResult {
  Memory FinalMemory;
  Trace T;
  /// The machine environment's counters at completion. Cumulative for the
  /// borrowed environment: callers wanting per-run numbers reset the env's
  /// stats (or use a fresh clone) before running.
  HwStats Hw;
};

/// Run-to-completion driver over the shared execution core. The machine
/// environment is borrowed and mutated in place (callers snapshot via
/// MachineEnv::clone()).
///
/// Every non-Seq command in the program must carry complete [er,ew] labels
/// (run type checking / label inference first); violations abort when the
/// program is compiled.
class FullInterpreter {
public:
  /// Compiles \p P under \p Opts (sem/CompiledProgram.h), then runs the
  /// compiled form.
  FullInterpreter(const Program &P, MachineEnv &Env,
                  InterpreterOptions Opts = InterpreterOptions());
  /// Runs the compiled form \p C, which must outlive the interpreter.
  /// \p Opts' lowering inputs must be those \p C was compiled with; any
  /// other field may differ per run.
  FullInterpreter(const CompiledProgram &C, MachineEnv &Env,
                  InterpreterOptions Opts = InterpreterOptions());
  ~FullInterpreter();
  FullInterpreter(FullInterpreter &&) = delete;

  /// The pre-run memory (a copy of the compiled form's image); callers may
  /// poke experiment-specific inputs before run().
  Memory &memory();

  /// Runs the program body to completion and returns the final memory and
  /// trace. The interpreter is single-shot: run() may be called once.
  RunResult run();

  uint64_t clock() const;

private:
  FullInterpreter(std::unique_ptr<CompiledProgram> C, MachineEnv &Env,
                  InterpreterOptions Opts);

  MachineEnv &Env;
  InterpreterOptions Opts;
  /// The compiled form the Program constructor made; null otherwise.
  std::unique_ptr<const CompiledProgram> Owned;
  std::unique_ptr<ExecCore> Core;
  bool Consumed = false;
};

/// Convenience wrapper: construct, run, and return the result.
RunResult runFull(const Program &P, MachineEnv &Env,
                  InterpreterOptions Opts = InterpreterOptions());

/// Convenience wrapper: construct, poke experiment-specific inputs into the
/// initial memory via \p Prepare (may be null), run, and return the result.
RunResult runFull(const Program &P, MachineEnv &Env,
                  const std::function<void(Memory &)> &Prepare,
                  InterpreterOptions Opts = InterpreterOptions());

} // namespace zam

#endif // ZAM_SEM_FULLINTERPRETER_H

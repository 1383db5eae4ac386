//===- FullInterpreter.h - The full-semantics engine ------------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine for the full semantics: configurations ⟨c, m, E, G⟩ executed
/// over the flat timing-IR (ir/Ir.h) by the execution core
/// (sem/ExecCore.h). It runs a compiled form (sem/CompiledProgram.h) — the
/// program lowered once, with variables resolved to memory slots, code
/// addresses, timing labels and attribution locations. complete() drives
/// the core to completion in a tight program-counter loop; step() performs
/// exactly one transition of the paper's small-step rules (Fig. 2 plus the
/// predictive rules of Fig. 6), and the two interleave freely:
///
///   c1;c2 steps into c1's instructions (Seq lowers away entirely)
///   while e do c  →  a loop branch with a back edge      (one step/guard)
///   mitigate_η (e,ℓ) c  →  MitEnter ... body ... MitEnd  (S-MTGPRED)
///
/// The dynamic checkers for Properties 1-7 (analysis/PropertyCheckers.h)
/// step it one transition at a time; the agreement tests check stepped
/// runs against complete() cycle for cycle.
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
#include "sem/Event.h"
#include "sem/ExecCore.h"
#include "sem/InterpreterOptions.h"
#include "sem/Memory.h"

#include <functional>
#include <memory>

namespace zam {

class CompiledProgram;

/// Outcome of a full-semantics run.
struct RunResult {
  Memory FinalMemory;
  Trace T;
  /// The machine environment's counters at completion. Cumulative for the
  /// borrowed environment: callers wanting per-run numbers reset the env's
  /// stats (or use a fresh clone) before running.
  HwStats Hw;
};

/// The one engine over the execution core. The machine environment is
/// borrowed and mutated in place (callers snapshot via MachineEnv::clone()).
///
/// One interpreter serves any number of runs of a shared compiled form:
/// complete() each run, read its memory and trace in place, and restart()
/// for the next. Loops over many runs (the adversary's samples, a login
/// session's attempts) do so instead of constructing an interpreter per
/// run. run() is the single-shot form: complete() once, then move the
/// results out. A bare command runs as the compiled form
/// CompiledProgram(P, C, Opts), from a given memory poked in through
/// memory().restoreValues().
///
/// step() and complete() install the core as the env's observer around
/// the core call, under one rule: when the options ask for misses or
/// provenance. A run therefore observes the same whether it was stepped,
/// completed, or both.
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
  /// poke experiment-specific inputs before the first step(), complete()
  /// or run(). After complete(), the final memory.
  Memory &memory();

  /// Whether the configuration has reached ⟨stop, m, E, G⟩ (or a run
  /// limit).
  bool done() const { return Core.done(); }

  /// Performs exactly one transition. No-op when done. complete() may
  /// follow any number of steps and runs the rest.
  void step() { observing([this] { Core.step(); }); }

  /// Runs the program body to completion (or on from where step() left
  /// it), and leaves the final memory and trace in place: memory() and
  /// the returned trace stay readable until the next restart(). Once per
  /// construction or restart().
  const Trace &complete();

  /// Starts another run: the interpreter becomes indistinguishable from a
  /// fresh one over the same compiled form, env and options (memory back
  /// to the image, trace empty, clock and counters zero, own Miss table
  /// cleared; a SharedMitState carries over), without allocating. Needs
  /// the CompiledProgram constructor — the Program one hands its image to
  /// the single run — and results not moved out by run().
  void restart();

  /// complete(), then moves the final memory and trace out. The
  /// interpreter is spent afterwards: no run(), complete() or restart().
  RunResult run();

  uint64_t clock() const;
  /// The trace so far; complete() returns the same one.
  const Trace &trace() const { return Core.trace(); }
  /// The source command the next transition executes (nullptr when done).
  /// Seq nodes lower away, so this is always a primitive command, a guard
  /// (if/while), or a mitigate about to enter or settle.
  const Cmd *current() const { return Core.currentCmd(); }
  const MitigationState &mitigationState() const {
    return Core.mitigationState();
  }

private:
  FullInterpreter(std::unique_ptr<CompiledProgram> C, MachineEnv &Env,
                  InterpreterOptions Opts);

  /// Calls \p Drive with the core installed as the env's observer when
  /// the options ask for misses or provenance; the displaced observer is
  /// back when it returns. The core doubles as the hardware observer, but
  /// installing it sends every access through the env's observed walk —
  /// only pay when someone listens.
  template <typename Fn> void observing(Fn &&Drive) {
    const InterpreterOptions &Opts = Core.options();
    const bool Observe = Opts.RecordMisses || Opts.Provenance != nullptr;
    HwObserver *Prior = nullptr;
    if (Observe) {
      Prior = Env.observer();
      Env.setObserver(&Core);
    }
    Drive();
    if (Observe)
      Env.setObserver(Prior);
  }

  MachineEnv &Env;
  /// The compiled form the Program constructor made; null otherwise.
  std::unique_ptr<CompiledProgram> Owned;
  /// The image restart() rewinds to: the shared compiled form's; null for
  /// an owned form, whose image the core took.
  const Memory *Image = nullptr;
  /// Held inline, with the run's only copy of the options.
  ExecCore Core;
  /// complete() has run since construction or the last restart().
  bool Completed = false;
  /// run() moved the results out.
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

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
  /// The compiled form the Program constructor made; null otherwise.
  std::unique_ptr<CompiledProgram> Owned;
  /// Held inline, with the run's only copy of the options.
  ExecCore Core;
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

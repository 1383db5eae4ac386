//===- RunSlice.h - A worker slice of restored runs -------------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The run path of the batch loops that run one program many times from
/// one machine-env template: adv's streamObservations (the adversary's
/// samples) and analysis' measureLeakage (Definition 1's variations). Each
/// compiles the program once and fans its runs out through
/// ParallelRunner::mapWithState, which hands every run of a slice the
/// slice's RunSlice. A RunSlice keeps an env, restored from the template
/// before each run (MachineEnv::copyInto, in place when it can), and the
/// FullInterpreter bound to that env, restarted for each run and rebuilt
/// only when copyInto replaced the env object. A restored run observes
/// exactly what a run on a fresh clone of the template does, so a run's
/// result does not depend on which runs its slice ran before.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_EXP_RUNSLICE_H
#define ZAM_EXP_RUNSLICE_H

#include "hw/MachineEnv.h"
#include "sem/FullInterpreter.h"

#include <cstddef>
#include <memory>
#include <string>

namespace zam {

class CompiledProgram;

class RunSlice {
public:
  /// Starts a run of \p C under \p Opts on a copy of \p Template and
  /// returns its memory, at \p C's image, for the run's inputs. Every
  /// start() of one slice passes the same \p C and \p Opts.
  Memory &start(const CompiledProgram &C, const MachineEnv &Template,
                const InterpreterOptions &Opts);

  /// Runs the started run to its end. The final memory and the trace stay
  /// readable until the next start().
  const Trace &complete() { return Interp->complete(); }

private:
  std::unique_ptr<MachineEnv> Env;
  std::unique_ptr<FullInterpreter> Interp;
};

/// The slot of the input \p Var in \p M: a scalar, or an array when
/// \p IsArray. Aborts with a message that starts with \p Who and names
/// \p Var when \p Var is undeclared or of the other kind.
size_t inputSlot(const Memory &M, const std::string &Var, const char *Who,
                 bool IsArray = false);

} // namespace zam

#endif // ZAM_EXP_RUNSLICE_H

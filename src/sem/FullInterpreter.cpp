//===- FullInterpreter.cpp - The full-semantics engine --------------------===//

#include "sem/FullInterpreter.h"

#include "sem/CompiledProgram.h"
#include "sem/ExecCore.h"
#include "support/Diagnostics.h"

using namespace zam;

FullInterpreter::FullInterpreter(const Program &P, MachineEnv &Env,
                                 InterpreterOptions Opts)
    : FullInterpreter(std::make_unique<CompiledProgram>(P, Opts), Env, Opts) {
}

FullInterpreter::FullInterpreter(std::unique_ptr<CompiledProgram> C,
                                 MachineEnv &Env, InterpreterOptions Opts)
    : Env(Env), Owned(std::move(C)),
      Core(Owned->ir(), Owned->program(), Owned->takeInitialMemory(), Env,
           std::move(Opts)) {}

FullInterpreter::FullInterpreter(const CompiledProgram &C, MachineEnv &Env,
                                 InterpreterOptions Opts)
    : Env(Env), Image(&C.initialMemory()),
      Core(C.ir(), C.program(),
           (C.requireInputsOf(Opts, "FullInterpreter"), C.initialMemory()),
           Env, std::move(Opts)) {}

FullInterpreter::~FullInterpreter() = default;

Memory &FullInterpreter::memory() { return Core.memory(); }

uint64_t FullInterpreter::clock() const { return Core.clock(); }

const Trace &FullInterpreter::complete() {
  if (Completed)
    reportFatalError(Consumed ? "FullInterpreter::run() called twice"
                              : "FullInterpreter: a second run needs "
                                "restart() first");
  Completed = true;

  observing([this] { Core.run(); });
  return Core.trace();
}

void FullInterpreter::restart() {
  if (!Image)
    reportFatalError("FullInterpreter::restart() needs an interpreter over "
                     "a shared CompiledProgram");
  if (Consumed)
    reportFatalError("FullInterpreter::restart() after run() moved the "
                     "results out");
  Core.restart(*Image);
  Completed = false;
}

RunResult FullInterpreter::run() {
  complete();
  Consumed = true;
  RunResult R;
  R.FinalMemory = std::move(Core.memory());
  R.T = std::move(Core.trace());
  R.Hw = Env.stats();
  return R;
}

RunResult zam::runFull(const Program &P, MachineEnv &Env,
                       InterpreterOptions Opts) {
  FullInterpreter I(P, Env, Opts);
  return I.run();
}

RunResult zam::runFull(const Program &P, MachineEnv &Env,
                       const std::function<void(Memory &)> &Prepare,
                       InterpreterOptions Opts) {
  FullInterpreter I(P, Env, Opts);
  if (Prepare)
    Prepare(I.memory());
  return I.run();
}

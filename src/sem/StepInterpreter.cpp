//===- StepInterpreter.cpp - Resumable small-step full semantics ----------===//

#include "sem/StepInterpreter.h"

using namespace zam;

StepInterpreter::StepInterpreter(const Program &P, MachineEnv &Env,
                                 InterpreterOptions Opts)
    : StepInterpreter(std::make_unique<CompiledProgram>(P, Opts), nullptr,
                      Env, Opts) {}

StepInterpreter::StepInterpreter(const Program &P, CmdPtr C,
                                 Memory InitialMemory, MachineEnv &Env,
                                 InterpreterOptions Opts)
    : StepInterpreter(
          std::make_unique<CompiledProgram>(P, std::move(C), Opts),
          &InitialMemory, Env, Opts) {}

StepInterpreter::StepInterpreter(std::unique_ptr<CompiledProgram> C,
                                 Memory *InitialMemory, MachineEnv &Env,
                                 const InterpreterOptions &Opts)
    : Env(Env) {
  Memory M = InitialMemory ? std::move(*InitialMemory) : C->takeInitialMemory();
  Core = std::make_unique<ExecCore>(C->ir(), C->program(), std::move(M), Env,
                                    InterpreterOptions(Opts));
  Owned = std::move(C);
  observe(Opts);
}

StepInterpreter::StepInterpreter(const CompiledProgram &C, MachineEnv &Env,
                                 InterpreterOptions Opts)
    : Env(Env) {
  C.requireInputsOf(Opts, "StepInterpreter");
  Core = std::make_unique<ExecCore>(C.ir(), C.program(), C.initialMemory(),
                                    Env, InterpreterOptions(Opts));
  observe(Opts);
}

void StepInterpreter::observe(const InterpreterOptions &Opts) {
  if (Opts.Provenance) {
    PriorObserver = Env.observer();
    Env.setObserver(Core.get());
    ObserverInstalled = true;
  }
}

StepInterpreter::StepInterpreter(StepInterpreter &&Other)
    : Env(Other.Env), Owned(std::move(Other.Owned)),
      Core(std::move(Other.Core)),
      ObserverInstalled(Other.ObserverInstalled),
      PriorObserver(Other.PriorObserver) {
  // The core (and with it Env's observer registration) moved by pointer;
  // the source must not restore the prior observer a second time.
  Other.ObserverInstalled = false;
}

StepInterpreter::~StepInterpreter() {
  if (ObserverInstalled && Env.observer() == Core.get())
    Env.setObserver(PriorObserver);
}

Trace StepInterpreter::runToCompletion() {
  Core->run();
  return Core->trace();
}

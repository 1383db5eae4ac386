//===- RunSlice.cpp -------------------------------------------------------===//

#include "exp/RunSlice.h"

#include "support/Diagnostics.h"

using namespace zam;

Memory &RunSlice::start(const CompiledProgram &C, const MachineEnv &Template,
                        const InterpreterOptions &Opts) {
  const MachineEnv *Before = Env.get();
  Template.copyInto(Env);
  // The interpreter is bound to its env, so a new env object (the slice's
  // first run, or a template of another shape) needs a new one; the old
  // one, whose run has stopped, is replaced without touching the env
  // copyInto freed.
  if (!Interp || Env.get() != Before)
    Interp = std::make_unique<FullInterpreter>(C, *Env, Opts);
  else
    Interp->restart();
  return Interp->memory();
}

size_t zam::inputSlot(const Memory &M, const std::string &Var,
                      const char *Who, bool IsArray) {
  const size_t Slot = M.slotIndexOf(Var);
  if (Slot == Memory::npos)
    reportFatalError(
        (std::string(Who) + ": no variable '" + Var + "'").c_str());
  if (M.slotAt(Slot).IsArray != IsArray)
    reportFatalError((std::string(Who) + ": '" + Var +
                      (IsArray ? "' is a scalar, not an array input"
                               : "' is an array, not a scalar input"))
                         .c_str());
  return Slot;
}

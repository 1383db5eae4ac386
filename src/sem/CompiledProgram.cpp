//===- CompiledProgram.cpp - A program compiled once, run many times ------===//

#include "sem/CompiledProgram.h"

#include "ir/Lowering.h"
#include "support/Diagnostics.h"

#include <string>

using namespace zam;

CompiledProgram::CompiledProgram(const Program &P,
                                 const InterpreterOptions &Opts)
    : P(P), Costs(Opts.Costs), Mitigation(Opts.Mitigation),
      IR(lowerProgram(P, Opts.Costs, Opts.Mitigation)),
      Init(Memory::fromProgram(P, Opts.Costs.DataBase, IR.Names)) {}

CompiledProgram::CompiledProgram(const Program &P, CmdPtr C,
                                 const InterpreterOptions &Opts)
    : P(P), Owned(std::move(C)), Costs(Opts.Costs),
      Mitigation(Opts.Mitigation),
      IR(lowerCommand(P, *Owned, Opts.Costs, Opts.Mitigation)),
      Init(Memory::fromProgram(P, Opts.Costs.DataBase, IR.Names)) {}

CompiledProgram::~CompiledProgram() = default;

const char *
CompiledProgram::mismatchedInput(const InterpreterOptions &Opts) const {
  if (!(Opts.Costs == Costs))
    return "Costs";
  // Lowering stores the resolved policy objects in the IR, so the
  // selections must name the same objects.
  if (&Opts.Mitigation.base() != &Mitigation.base() ||
      Opts.Mitigation.PerSite != Mitigation.PerSite)
    return "Mitigation";
  return nullptr;
}

void CompiledProgram::requireInputsOf(const InterpreterOptions &Opts,
                                      const char *Engine) const {
  if (const char *Input = mismatchedInput(Opts))
    reportFatalError((std::string(Engine) + ": the options' " + Input +
                      " differs from the one the program was compiled with")
                         .c_str());
}

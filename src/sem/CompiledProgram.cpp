//===- CompiledProgram.cpp - A program compiled once, run many times ------===//

#include "sem/CompiledProgram.h"

#include "ir/Fusion.h"
#include "ir/Lowering.h"
#include "support/Diagnostics.h"

#include <string>

using namespace zam;

namespace {
/// The profile fusion plans with under \p Opts, or null when fusion is off.
const FusionProfile *effectiveProfile(const InterpreterOptions &Opts) {
  if (!Opts.Fusion)
    return nullptr;
  return Opts.FuseProfile ? Opts.FuseProfile : &FusionProfile::defaultProfile();
}

/// Lowers \p IR to the LIR tier and overlays the fusion plan of \p Prof.
std::unique_ptr<LirProgram> compileLir(const IrProgram &IR,
                                       const FusionProfile *Prof) {
  auto L = std::make_unique<LirProgram>(lowerToLir(IR));
  if (Prof)
    planFusion(*L, *Prof);
  return L;
}
} // namespace

CompiledProgram::CompiledProgram(const Program &P,
                                 const InterpreterOptions &Opts)
    : P(P), Costs(Opts.Costs), Mitigation(Opts.Mitigation),
      Fusion(Opts.Fusion), FuseProfile(effectiveProfile(Opts)),
      IR(std::make_unique<IrProgram>(
          lowerProgram(P, Opts.Costs, Opts.Mitigation))),
      LIR(compileLir(*IR, FuseProfile)),
      Init(Memory::fromProgram(P, Opts.Costs.DataBase)) {}

CompiledProgram::CompiledProgram(const Program &P, CmdPtr C,
                                 const InterpreterOptions &Opts)
    : P(P), Owned(std::move(C)), Costs(Opts.Costs),
      Mitigation(Opts.Mitigation), Fusion(Opts.Fusion),
      FuseProfile(effectiveProfile(Opts)),
      IR(std::make_unique<IrProgram>(
          lowerCommand(P, *Owned, Opts.Costs, Opts.Mitigation))),
      LIR(compileLir(*IR, FuseProfile)),
      Init(Memory::fromProgram(P, Opts.Costs.DataBase)) {}

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
  if (Opts.Fusion != Fusion)
    return "Fusion";
  const FusionProfile *Prof = effectiveProfile(Opts);
  if (Prof != FuseProfile && Prof->digrams() != FuseProfile->digrams())
    return "FuseProfile";
  return nullptr;
}

void CompiledProgram::requireInputsOf(const InterpreterOptions &Opts,
                                      const char *Engine) const {
  if (const char *Input = mismatchedInput(Opts))
    reportFatalError((std::string(Engine) + ": the options' " + Input +
                      " differs from the one the program was compiled with")
                         .c_str());
}

//===- Scenario.cpp -------------------------------------------------------===//

#include "exp/Scenario.h"

#include "support/Diagnostics.h"

using namespace zam;

void RunSpec::applyTo(Memory &M) const {
  for (const auto &[Name, Value] : Scalars)
    M.store(Name, Value);
  for (const auto &[Name, Values] : Arrays) {
    MemorySlot &S = M.slot(Name);
    if (!S.IsArray)
      reportFatalError("array override applied to a scalar");
    for (size_t I = 0; I != Values.size() && I != S.Data.size(); ++I)
      S.Data[I] = Values[I];
  }
  if (Prepare)
    Prepare(M);
}

Scenario::Scenario(const Program &P, HwKind Hw, MachineEnvConfig Config,
                   InterpreterOptions Opts)
    : P(&P), Opts(Opts),
      Compiled(std::make_unique<const CompiledProgram>(P, Opts)),
      EnvTemplate(createMachineEnv(Hw, P.lattice(), Config)) {}

Scenario::Scenario(const Program &P, const MachineEnv &EnvTemplate,
                   InterpreterOptions Opts)
    : P(&P), Opts(Opts),
      Compiled(std::make_unique<const CompiledProgram>(P, Opts)),
      EnvTemplate(EnvTemplate.clone()) {}

RunResult Scenario::run(const RunSpec &Spec) const {
  std::unique_ptr<MachineEnv> Env = EnvTemplate->clone();
  FullInterpreter Interp(*Compiled, *Env, Opts);
  Spec.applyTo(Interp.memory());
  return Interp.run();
}

std::vector<RunResult> Scenario::runAll(const std::vector<RunSpec> &Specs,
                                        const ParallelRunner &Runner) const {
  return Runner.map(Specs.size(),
                    [&](size_t I) { return run(Specs[I]); });
}

void zam::runSeriesInto(Report &R, const std::vector<SeriesSpec> &Specs,
                        const ParallelRunner &Runner) {
  std::vector<std::vector<uint64_t>> Values =
      Runner.map(Specs.size(), [&](size_t I) { return Specs[I].Run(); });
  for (size_t I = 0; I != Specs.size(); ++I)
    R.addSeries(Specs[I].Name, Values[I]);
}

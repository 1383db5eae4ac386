//===- Adversary.cpp - Secret sampler / observation collector -------------===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "adv/Adversary.h"

#include "obs/LeakAudit.h"
#include "sem/CompiledProgram.h"
#include "support/StrAppend.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace zam;

size_t zam::streamObservations(
    const Program &P, const MachineEnv &EnvTemplate,
    const std::vector<SecretClassSpec> &Classes, const AttackOptions &Opts,
    const InterpreterOptions &IOpts, const ParallelRunner &Runner,
    const std::function<void(const Observation &, size_t)> &OnObservation) {
  if (Classes.empty()) {
    std::fprintf(stderr, "streamObservations: no secret classes\n");
    std::abort();
  }
  const size_t K = Classes.size();
  const size_t Total = Opts.Samples;
  // Compiled once and shared, read-only, by every sample on every thread.
  const CompiledProgram Compiled(P, IOpts);
  // A sample reads the final clock and the mitigate windows only.
  InterpreterOptions RunOpts = IOpts;
  RunOpts.RetainEvents = false;
  // Sample I on Env, a copy of the template.
  auto RunSample = [&](size_t I, MachineEnv &Env) {
    const SecretClassSpec &Spec = Classes[I % K];
    Rng R(sampleSeed(Opts.Seed, I));
    // No hooks: the audit replays the finished trace, which onWindow
    // matches bit-for-bit (LeakAudit's documented equivalence).
    FullInterpreter Interp(Compiled, Env, RunOpts);
    Memory &M = Interp.memory();
    for (const auto &[Var, Value] : Spec.Fixed)
      M.store(Var, Value);
    for (const SecretClassSpec::Range &Rg : Spec.Ranges)
      M.store(Rg.Var, R.nextInRange(Rg.Lo, Rg.Hi));
    if (Spec.Prepare)
      Spec.Prepare(M, R);
    RunResult RR = Interp.run();
    LeakAudit Audit(P.lattice(), Opts.Adversary, IOpts.Mitigation);
    Audit.ingest(RR.T);
    Observation O;
    O.ClassIndex = static_cast<uint32_t>(I % K);
    O.EndToEnd = RR.T.FinalTime;
    for (const LeakWindow &W : Audit.windows())
      O.Windows.push_back(W.Duration);
    O.BoundBits = Audit.totalBitsBound();
    return O;
  };
  // One env per slice, kept across chunks and restored from the template
  // before every sample.
  std::vector<std::unique_ptr<MachineEnv>> Envs;
  for (size_t Base = 0; Base < Total; Base += kObservationChunk) {
    const size_t ChunkLen = std::min(kObservationChunk, Total - Base);
    std::vector<Observation> Chunk = Runner.mapWithState(
        ChunkLen, Envs, [&](size_t Offset, std::unique_ptr<MachineEnv> &Env) {
          EnvTemplate.copyInto(Env);
          return RunSample(Base + Offset, *Env);
        });
    for (size_t Offset = 0; Offset < Chunk.size(); ++Offset)
      OnObservation(Chunk[Offset], Base + Offset);
  }
  return Total;
}

std::vector<Observation> zam::collectObservations(
    const Program &P, const MachineEnv &EnvTemplate,
    const std::vector<SecretClassSpec> &Classes, const AttackOptions &Opts,
    const InterpreterOptions &IOpts, const ParallelRunner &Runner) {
  std::vector<Observation> Obs;
  Obs.reserve(Opts.Samples);
  streamObservations(P, EnvTemplate, Classes, Opts, IOpts, Runner,
                     [&](const Observation &O, size_t) { Obs.push_back(O); });
  return Obs;
}

size_t zam::exportObservation(TraceSink &Sink, const Observation &O,
                              size_t Index,
                              const std::vector<std::string> &ClassNames) {
  std::string Windows;
  for (size_t W = 0; W < O.Windows.size(); ++W) {
    if (W)
      Windows += ',';
    appendInt(Windows, O.Windows[W]);
  }
  withEncoder(Sink, [&](auto &Enc) {
    Enc.begin(TraceRecord::Kind::Instant, "sample#", TraceNameIndex(Index),
              "adv", Index);
    if (O.ClassIndex < ClassNames.size())
      Enc.argText("class", ClassNames[O.ClassIndex]);
    Enc.argInt("class_index", O.ClassIndex);
    Enc.argInt("end_to_end", O.EndToEnd);
    // A one-element list like "256" reads as a number and leaves bare;
    // offline readers treat the arg as display-only either way.
    Enc.argText("windows", Windows);
    Enc.argDouble("bound_bits", O.BoundBits);
    Enc.end();
  });
  return 1;
}

size_t zam::exportObservations(TraceSink &Sink,
                               const std::vector<Observation> &Obs,
                               const std::vector<std::string> &ClassNames) {
  for (size_t I = 0; I < Obs.size(); ++I)
    exportObservation(Sink, Obs[I], I, ClassNames);
  return Obs.size();
}

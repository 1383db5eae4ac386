//===- Adversary.cpp - Secret sampler / observation collector -------------===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "adv/Adversary.h"

#include "exp/RunSlice.h"
#include "obs/LeakAudit.h"
#include "sem/CompiledProgram.h"
#include "support/StrAppend.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace zam;

namespace {
/// A class's Fixed and Ranges inputs with their variables resolved to
/// memory slots.
struct ResolvedClass {
  std::vector<std::pair<size_t, int64_t>> Fixed;
  struct Range {
    size_t Slot;
    int64_t Lo, Hi;
  };
  std::vector<Range> Ranges;
};

/// A worker slice's scratch state, kept across the chunks of one call:
/// its restored runs, and the audit, reset for every sample.
struct SampleSlice {
  RunSlice Run;
  std::optional<LeakAudit> Audit;
};
} // namespace

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
  const Memory &Image = Compiled.initialMemory();
  static constexpr const char *kWho = "streamObservations";
  std::vector<ResolvedClass> Resolved(K);
  for (size_t C = 0; C != K; ++C) {
    for (const auto &[Var, Value] : Classes[C].Fixed)
      Resolved[C].Fixed.emplace_back(inputSlot(Image, Var, kWho), Value);
    for (const SecretClassSpec::Range &Rg : Classes[C].Ranges)
      Resolved[C].Ranges.push_back({inputSlot(Image, Rg.Var, kWho), Rg.Lo,
                                    Rg.Hi});
  }
  // A sample reads the final clock and the mitigate windows only.
  InterpreterOptions RunOpts = IOpts;
  RunOpts.RetainEvents = false;
  // Sample I on slice S. Restoring S's run and resetting its audit leaves
  // nothing of the slice's earlier samples behind, so the observation is
  // the same whatever sample the slice ran before.
  auto RunSample = [&](size_t I, SampleSlice &S) {
    const SecretClassSpec &Spec = Classes[I % K];
    const ResolvedClass &RC = Resolved[I % K];
    Rng R(sampleSeed(Opts.Seed, I));
    // No hooks: the audit replays the finished trace, which onWindow
    // matches bit-for-bit (LeakAudit's documented equivalence).
    Memory &M = S.Run.start(Compiled, EnvTemplate, RunOpts);
    for (const auto &[Slot, Value] : RC.Fixed)
      M.slotAt(Slot).Data[0] = Value;
    for (const ResolvedClass::Range &Rg : RC.Ranges)
      M.slotAt(Rg.Slot).Data[0] = R.nextInRange(Rg.Lo, Rg.Hi);
    if (Spec.Prepare)
      Spec.Prepare(M, R);
    const Trace &T = S.Run.complete();
    if (S.Audit)
      S.Audit->reset();
    else
      S.Audit.emplace(P.lattice(), Opts.Adversary, IOpts.Mitigation);
    S.Audit->ingest(T);
    Observation O;
    O.ClassIndex = static_cast<uint32_t>(I % K);
    O.EndToEnd = T.FinalTime;
    O.Windows.reserve(S.Audit->windows().size());
    for (const LeakWindow &W : S.Audit->windows())
      O.Windows.push_back(W.Duration);
    O.BoundBits = S.Audit->totalBitsBound();
    return O;
  };
  // Kept across chunks: a slice builds its env, interpreter and audit once
  // per call.
  std::vector<SampleSlice> Slices;
  for (size_t Base = 0; Base < Total; Base += kObservationChunk) {
    const size_t ChunkLen = std::min(kObservationChunk, Total - Base);
    std::vector<Observation> Chunk = Runner.mapWithState(
        ChunkLen, Slices, [&](size_t Offset, SampleSlice &S) {
          return RunSample(Base + Offset, S);
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

size_t ObservationExporter::write(const Observation &O, size_t Index) {
  Windows.clear();
  for (size_t W = 0; W < O.Windows.size(); ++W) {
    if (W)
      Windows += ',';
    appendInt(Windows, O.Windows[W]);
  }
  withEncoder(Sink, [&](auto &Enc) {
    if (Head.empty())
      Head = Enc.head(TraceRecord::Kind::Instant, "sample#",
                      Enc.category("adv"));
    auto W = Enc.writer();
    Enc.begin(W, Head, TraceNameIndex(Index), Index);
    if (O.ClassIndex < ClassNames.size())
      W.argText("class", ClassNames[O.ClassIndex]);
    W.argInt("class_index", O.ClassIndex);
    W.argInt("end_to_end", O.EndToEnd);
    // A one-element list like "256" reads as a number and leaves bare;
    // offline readers treat the arg as display-only either way.
    W.argText("windows", Windows);
    W.argDouble("bound_bits", O.BoundBits);
    W.end();
    W.commit();
  });
  return 1;
}

size_t ObservationExporter::snapshot(size_t Index, uint64_t EndToEndP50) {
  withEncoder(Sink, [&](auto &Enc) {
    if (SnapshotHead.empty())
      SnapshotHead = Enc.head(TraceRecord::Kind::Meta, "snapshot",
                              Enc.category("obs"));
    auto W = Enc.writer();
    Enc.begin(W, SnapshotHead, {}, Index);
    W.argInt("samples", Index + 1);
    W.argInt("end_to_end_p50", EndToEndP50);
    W.end();
    W.commit();
  });
  return 1;
}

size_t zam::exportObservations(TraceSink &Sink,
                               const std::vector<Observation> &Obs,
                               const std::vector<std::string> &ClassNames) {
  ObservationExporter Exporter(Sink, ClassNames);
  for (size_t I = 0; I < Obs.size(); ++I)
    Exporter.write(Obs[I], I);
  return Obs.size();
}

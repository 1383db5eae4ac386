//===- Leakage.cpp --------------------------------------------------------===//

#include "analysis/Leakage.h"

#include "exp/ParallelRunner.h"
#include "exp/Scenario.h"
#include "support/Diagnostics.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>

using namespace zam;

void SecretAssignment::applyTo(Memory &M) const {
  for (const auto &[Name, Value] : Scalars)
    M.store(Name, Value);
  for (const auto &[Name, Values] : Arrays) {
    MemorySlot &S = M.slot(Name);
    if (!S.IsArray)
      reportFatalError("array override applied to a scalar");
    for (size_t I = 0; I != Values.size() && I != S.Data.size(); ++I)
      S.Data[I] = Values[I];
  }
}

std::string zam::timingVectorKey(const Trace &T, const SecurityLattice &Lat,
                                 const LabelSet &UnobsUpward) {
  std::string Key;
  char Buf[64];
  for (const MitigateRecord &R : T.Mitigations) {
    if (UnobsUpward.contains(R.PcLabel))
      continue; // High-context mitigate: excluded by the projection.
    if (!UnobsUpward.contains(R.Level))
      continue; // Mitigation level carries no LeA↑ information.
    std::snprintf(Buf, sizeof(Buf), "%" PRIu64 ";", R.Duration);
    Key += Buf;
  }
  return Key;
}

std::vector<unsigned>
zam::mitigateIdentityProjection(const Trace &T, const LabelSet &UnobsUpward) {
  std::vector<unsigned> Out;
  for (const MitigateRecord &R : T.Mitigations)
    if (!UnobsUpward.contains(R.PcLabel))
      Out.push_back(R.Eta);
  return Out;
}

namespace {

/// Everything one variation's run contributes to the measurement; computed
/// in a worker, reduced serially in submission order.
struct VariationRecord {
  std::string ObservationKey;
  std::string TimingKey;
  std::vector<unsigned> Identity;
  uint64_t FinalTime = 0;
  uint64_t Relevant = 0;
  bool HitStepLimit = false;
  bool HitEventLimit = false;
};

} // namespace

LeakageResult zam::measureLeakage(const Program &P,
                                  const MachineEnv &EnvTemplate,
                                  const LeakageSpec &Spec,
                                  InterpreterOptions Opts, unsigned Threads) {
  const SecurityLattice &Lat = P.lattice();
  const LabelSet UnobsUpward =
      unobservableUpwardClosure(Lat, Spec.SourceLevels, Spec.Adversary);

  const Memory Base = Memory::fromProgram(P, Opts.Costs.DataBase);
  const Scenario Scn(P, EnvTemplate, Opts);
  const ParallelRunner Runner(Threads);

  // The enumeration over secret variations is the hottest loop of the
  // quantitative analysis: every run is deterministic and independent, so
  // it fans out over the worker pool. Workers share only the immutable
  // program, lattice, base memory and environment template.
  std::vector<VariationRecord> Records =
      Runner.map(Spec.Variations.size(), [&](size_t Index) {
        const SecretAssignment &Variation = Spec.Variations[Index];
        RunSpec RS;
        RS.Prepare = [&](Memory &M) {
          Variation.applyTo(M);
          // Validate that the variation only touches LeA↑ variables;
          // anything else would measure flows Definition 1 does not
          // quantify over.
          for (size_t I = 0; I != M.slotCount(); ++I) {
            const MemorySlot &S = M.slotAt(I);
            if (S.Data != Base.slotAt(I).Data &&
                !UnobsUpward.contains(S.SecLabel))
              reportFatalError(
                  "secret variation modifies a variable outside LeA-upward");
          }
        };
        RunResult R = Scn.run(RS);

        VariationRecord Rec;
        Rec.HitStepLimit = R.T.HitStepLimit;
        Rec.HitEventLimit = R.T.HitEventLimit;
        if (R.T.hitLimit())
          return Rec; // Incomplete: the caller reports the limit.
        Rec.ObservationKey = R.T.observationKey(Spec.Adversary, Lat);
        Rec.TimingKey = timingVectorKey(R.T, Lat, UnobsUpward);
        Rec.Identity = mitigateIdentityProjection(R.T, UnobsUpward);
        Rec.FinalTime = R.T.FinalTime;
        for (const MitigateRecord &M : R.T.Mitigations)
          if (!UnobsUpward.contains(M.PcLabel) &&
              UnobsUpward.contains(M.Level))
            ++Rec.Relevant;
        return Rec;
      });

  LeakageResult Result;
  std::map<std::string, unsigned> Observations;
  std::set<std::string> TimingVectors;
  Result.MitigatesLowDeterministic = true;

  for (const VariationRecord &Rec : Records) {
    ++Observations[Rec.ObservationKey];
    TimingVectors.insert(Rec.TimingKey);
    if (&Rec != &Records.front() && Rec.Identity != Records.front().Identity)
      Result.MitigatesLowDeterministic = false;
    Result.MaxFinalTime = std::max(Result.MaxFinalTime, Rec.FinalTime);
    Result.RelevantMitigates =
        std::max(Result.RelevantMitigates, Rec.Relevant);
    Result.HitStepLimit |= Rec.HitStepLimit;
    Result.HitEventLimit |= Rec.HitEventLimit;
  }

  Result.DistinctObservations = Observations.size();
  Result.QBits = Observations.empty()
                     ? 0.0
                     : std::log2(static_cast<double>(Observations.size()));
  // Under a uniform prior on the variations, the run is a deterministic
  // channel S → O: Shannon leakage I(S;O) = H(O); min-entropy leakage is
  // log2 of the number of observation classes (= Q).
  const double N = static_cast<double>(Spec.Variations.size());
  for (const auto &[Key, Count] : Observations) {
    double Prob = static_cast<double>(Count) / N;
    Result.ShannonBits -= Prob * std::log2(Prob);
  }
  Result.MinEntropyBits = Result.QBits;
  Result.DistinctTimingVectors = TimingVectors.size();
  Result.VBits = TimingVectors.empty()
                     ? 0.0
                     : std::log2(static_cast<double>(TimingVectors.size()));
  Result.TheoremTwoHolds =
      Result.DistinctObservations <=
      std::max<unsigned>(Result.DistinctTimingVectors, 1);
  // The summary bound is the run-default policy's closed form (per-site
  // overrides refine the per-window account, not this coarse global one);
  // under the default selection this is the paper's
  // |LeA↑|·log2(K+1)·(1+log2 T) bit for bit.
  Result.ClosedFormBoundBits = Opts.Mitigation.base().closedFormBoundBits(
      UnobsUpward.count(), Result.RelevantMitigates, Result.MaxFinalTime);
  return Result;
}

//===- Leakage.cpp --------------------------------------------------------===//

#include "analysis/Leakage.h"

#include "exp/ParallelRunner.h"
#include "exp/RunSlice.h"
#include "sem/CompiledProgram.h"
#include "support/Diagnostics.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>

using namespace zam;

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

  // Compiled once and shared, read-only, by every run on every thread.
  const CompiledProgram Compiled(P, Opts);
  const Memory &Image = Compiled.initialMemory();
  // The slots of every variation's overrides, scalars then arrays, in
  // order: variation V's are Slots[Begin[V], Begin[V + 1]).
  static constexpr const char *kWho = "measureLeakage";
  std::vector<size_t> Slots;
  std::vector<size_t> Begin{0};
  for (const SecretAssignment &A : Spec.Variations) {
    for (const auto &Override : A.Scalars)
      Slots.push_back(inputSlot(Image, Override.first, kWho));
    for (const auto &Override : A.Arrays)
      Slots.push_back(inputSlot(Image, Override.first, kWho, /*IsArray=*/true));
    Begin.push_back(Slots.size());
  }
  const ParallelRunner Runner(Threads);

  // The enumeration over secret variations is the hottest loop of the
  // quantitative analysis: every run is deterministic and independent, so
  // it fans out over the worker pool, one restored run per variation.
  // Workers share only the immutable compiled program, lattice and
  // environment template.
  auto RunVariation = [&](size_t Index, RunSlice &S) {
    const SecretAssignment &A = Spec.Variations[Index];
    Memory &M = S.start(Compiled, EnvTemplate, Opts);
    auto Slot = Slots.begin() + Begin[Index];
    for (const auto &Override : A.Scalars)
      M.slotAt(*Slot++).Data[0] = Override.second;
    for (const auto &Override : A.Arrays) {
      std::vector<int64_t> &Data = M.slotAt(*Slot++).Data;
      const std::vector<int64_t> &Values = Override.second;
      std::copy_n(Values.begin(), std::min(Values.size(), Data.size()),
                  Data.begin());
    }
    // Validate that the variation only touches LeA↑ variables; anything
    // else would measure flows Definition 1 does not quantify over.
    for (size_t I = Begin[Index]; I != Begin[Index + 1]; ++I) {
      const MemorySlot &MS = M.slotAt(Slots[I]);
      if (!UnobsUpward.contains(MS.SecLabel) &&
          MS.Data != Image.slotAt(Slots[I]).Data)
        reportFatalError(
            "secret variation modifies a variable outside LeA-upward");
    }
    const Trace &T = S.complete();

    VariationRecord Rec;
    Rec.HitStepLimit = T.HitStepLimit;
    Rec.HitEventLimit = T.HitEventLimit;
    if (T.hitLimit())
      return Rec; // Incomplete: the caller reports the limit.
    Rec.ObservationKey = T.observationKey(Spec.Adversary, Lat);
    Rec.TimingKey = timingVectorKey(T, Lat, UnobsUpward);
    Rec.Identity = mitigateIdentityProjection(T, UnobsUpward);
    Rec.FinalTime = T.FinalTime;
    for (const MitigateRecord &MR : T.Mitigations)
      if (!UnobsUpward.contains(MR.PcLabel) && UnobsUpward.contains(MR.Level))
        ++Rec.Relevant;
    return Rec;
  };
  std::vector<RunSlice> Slices;
  std::vector<VariationRecord> Records =
      Runner.mapWithState(Spec.Variations.size(), Slices, RunVariation);

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

//===- LeakAudit.cpp ------------------------------------------------------===//

#include "obs/LeakAudit.h"

#include "obs/TraceReader.h"

#include <cmath>
#include <utility>

using namespace zam;

// The paper-default free functions delegate to the fast-doubling policy
// object, so the doubling math has exactly one home (sem/Mitigation.cpp)
// and these stay bit-identical to the historical implementations.

uint64_t zam::attainableScheduleValues(int64_t Estimate, uint64_t ElapsedTime) {
  return fastDoublingPolicy().attainableValues(Estimate, ElapsedTime);
}

double zam::windowBoundBits(int64_t Estimate, uint64_t ElapsedTime) {
  return fastDoublingPolicy().windowBoundBits(Estimate, ElapsedTime);
}

double zam::mispredictPenaltyBits(unsigned Misses) {
  return fastDoublingPolicy().penaltyBits(Misses);
}

double zam::leakageBoundBits(unsigned UpwardClosureSize,
                             uint64_t RelevantMitigates, uint64_t ElapsedTime) {
  return fastDoublingPolicy().closedFormBoundBits(
      UpwardClosureSize, RelevantMitigates, ElapsedTime);
}

LeakAudit::LeakAudit(const SecurityLattice &Lat, std::optional<Label> Adversary,
                     PolicySelection Policies)
    : Lat(Lat), Adversary(Adversary), Policies(std::move(Policies)),
      Accounts(Lat.size()) {}

bool LeakAudit::counts(const MitigateRecord &R) const {
  if (!Adversary)
    return true;
  // Sec. 6.1: the window is an ℓA-observation iff its context is visible
  // (pc ⊑ ℓA) and its duration carries above-ℓA information (lev ⋢ ℓA) —
  // the Definition 2 projection under the conservative all-sources L.
  return Lat.flowsTo(R.PcLabel, *Adversary) &&
         !Lat.flowsTo(R.Level, *Adversary);
}

void LeakAudit::onWindow(const MitigateRecord &R) {
  if (!counts(R))
    return;
  LeakWindow W;
  W.Eta = R.Eta;
  W.Level = R.Level;
  W.Pc = R.PcLabel;
  W.Start = R.Start;
  W.Duration = R.Duration;
  W.Estimate = R.Estimate;
  W.MissesAfter = R.MissesAfter;
  W.Mispredicted = R.Mispredicted;
  W.Line = R.Line;
  // T_i is the window's own completion time on the global clock: every
  // schedule value attainable by then was a possible public duration —
  // counted under the policy that actually scheduled this site.
  W.Policy = &Policies.forSite(R.Eta);
  W.Attainable = W.Policy->attainableValues(R.Estimate, R.Start + R.Duration);
  W.WindowBits = std::log2(static_cast<double>(W.Attainable));

  LevelAccount &A = Accounts[R.Level.index()];
  ++A.Windows;
  A.Misses = R.MissesAfter;
  A.BitsBound += W.WindowBits;
  W.CumLevelBits = A.BitsBound;
  ++CountedWindows;
  if (RetainWindows)
    Counted.push_back(W);
}

void LeakAudit::ingest(const Trace &T) {
  for (const MitigateRecord &R : T.Mitigations)
    onWindow(R);
}

bool LeakAudit::replay(TraceReader &Reader, std::string &Err) {
  // Miss[ℓ] rebuilt from the stream by re-running the Fig. 6 update loop:
  // one window can bump Miss[ℓ] several times (each doubling epoch the
  // body outran), so the span's boolean mispredicted flag is not enough —
  // settle() on the recorded estimate and consumed time reproduces the
  // exact increment count. exportTrace always emits every mitigate span,
  // so replay order reproduces the online table; the recomputed padded
  // duration is checked against the recorded one to catch a policy or
  // penalty-granularity mismatch.
  MitigationState State(Lat, Policies.base(), PenaltyPolicy::PerLevel);
  TraceRecord R;
  while (Reader.next(R)) {
    if (R.Type != TraceRecordType::Mitigate)
      continue;
    MitigateRecord M;
    // Numeric fields must hold their type: a malformed one fails the
    // replay rather than reading as 0.
    auto Malformed = [&](const char *Key) {
      Err = "mitigate span '" + R.Name + "' has a malformed '" + Key +
            "' value";
      return false;
    };
    if (!R.Index || !std::in_range<unsigned>(*R.Index))
      return Malformed("eta");
    M.Eta = static_cast<unsigned>(*R.Index);
    if (!R.read("estimate", M.Estimate))
      return Malformed("estimate");
    if (!R.read("consumed", M.BodyTime))
      return Malformed("consumed");
    if (!R.read("loc", M.Line))
      return Malformed("loc");
    M.Mispredicted = R.get<bool>("mispredicted").value_or(false);
    const std::optional<Label> Level =
        Lat.byName(std::string(R.get<std::string_view>("level").value_or("")));
    const std::optional<Label> Pc =
        Lat.byName(std::string(R.get<std::string_view>("pc").value_or("")));
    if (!Level || !Pc) {
      Err = "mitigate span '" + R.Name + "' names an unknown level";
      return false;
    }
    M.Level = *Level;
    M.PcLabel = *Pc;
    M.Start = R.Ts;
    M.Duration = R.Dur;
    const MitigationState::Outcome Out =
        State.settle(M.Estimate, M.Level, M.BodyTime, Policies.forSite(M.Eta));
    if (Out.Duration != M.Duration || Out.Mispredicted != M.Mispredicted) {
      Err = "mitigate span '" + R.Name +
            "' diverges from the replayed schedule (policy or penalty "
            "mismatch)";
      return false;
    }
    M.MissesAfter = State.misses(M.Level);
    onWindow(M);
  }
  if (!Reader.ok()) {
    Err = Reader.error();
    return false;
  }
  return true;
}

void LeakAudit::reset() {
  Counted.clear();
  CountedWindows = 0;
  Accounts.assign(Lat.size(), LevelAccount());
}

double LeakAudit::totalBitsBound() const {
  double Total = 0;
  for (const LevelAccount &A : Accounts)
    Total += A.BitsBound;
  return Total;
}

void LeakAudit::exportMetrics(MetricsRegistry &Reg,
                              const std::string &Prefix) const {
  for (Label L : Lat.allLabels()) {
    const LevelAccount &A = Accounts[L.index()];
    const std::string Base = Prefix + "leak." + Lat.name(L) + ".";
    Reg.setCounter(Base + "windows", A.Windows);
    Reg.setGauge(Base + "bits_bound", A.BitsBound);
    Reg.setGauge(Base + "mispredict_penalty_bits",
                 Policies.base().penaltyBits(A.Misses));
  }
  Reg.setCounter(Prefix + "leak.windows", CountedWindows);
  Reg.setGauge(Prefix + "leak.total_bits_bound", totalBitsBound());
}

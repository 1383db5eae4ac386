//===- Mitigation.cpp -----------------------------------------------------===//

#include "sem/Mitigation.h"

#include "support/ParseInt.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>

using namespace zam;

MitigationPolicy::~MitigationPolicy() = default;

/// Cap on the doubling exponent so predictions cannot overflow: with
/// estimates below 2^20 the prediction stays below 2^60.
static constexpr unsigned MaxDoublings = 40;

uint64_t MitigationPolicy::saturatingMul(uint64_t Base, uint64_t Mult) {
  if (Mult != 0 && Base > kPredictionCap / Mult)
    return kPredictionCap;
  return Base * Mult;
}

uint64_t MitigationPolicy::doublingPredict(uint64_t Base, unsigned Misses) {
  Base = std::max<uint64_t>(Base, 1);
  const unsigned Shift = std::min(Misses, MaxDoublings);
  if (Base >= (kPredictionCap >> Shift))
    return kPredictionCap;
  return Base << Shift;
}

/// The N(T) ladder count for doubling from a resolved base value \p N.
static uint64_t attainableDoublingFrom(uint64_t N, uint64_t ElapsedTime) {
  if (ElapsedTime <= N)
    return 1;
  uint64_t Count = 1;
  // v ≤ T/2 (integer division) ⟺ 2v ≤ T without overflow.
  for (uint64_t V = N; V <= ElapsedTime / 2; V <<= 1)
    ++Count;
  return Count;
}

uint64_t MitigationPolicy::doublingAttainable(int64_t Estimate,
                                              uint64_t ElapsedTime) {
  const uint64_t N = Estimate > 0 ? static_cast<uint64_t>(Estimate) : 1;
  return attainableDoublingFrom(N, ElapsedTime);
}

double MitigationPolicy::windowBoundBits(int64_t Estimate,
                                         uint64_t ElapsedTime) const {
  return std::log2(
      static_cast<double>(attainableValues(Estimate, ElapsedTime)));
}

double MitigationPolicy::penaltyBits(unsigned Misses) const {
  return std::log2(static_cast<double>(Misses) + 1.0);
}

/// The paper's |LeA↑| · log2(K+1) · (1 + log2 T) — the default summary for
/// any doubling-shaped ladder, zero when no relevant window ran.
static double doublingClosedForm(unsigned UpwardClosureSize,
                                 uint64_t RelevantMitigates,
                                 uint64_t ElapsedTime) {
  if (RelevantMitigates == 0)
    return 0;
  double LogK = std::log2(static_cast<double>(RelevantMitigates) + 1.0);
  double LogT =
      ElapsedTime > 0 ? std::log2(static_cast<double>(ElapsedTime)) : 0.0;
  return static_cast<double>(UpwardClosureSize) * LogK * (1.0 + LogT);
}

double MitigationPolicy::closedFormBoundBits(unsigned UpwardClosureSize,
                                             uint64_t RelevantMitigates,
                                             uint64_t ElapsedTime) const {
  return doublingClosedForm(UpwardClosureSize, RelevantMitigates, ElapsedTime);
}

//===----------------------------------------------------------------------===//
// fast-doubling
//===----------------------------------------------------------------------===//

uint64_t FastDoublingPolicy::predict(uint64_t InitialEstimate,
                                     unsigned Misses) const {
  return doublingPredict(InitialEstimate, Misses);
}

uint64_t FastDoublingPolicy::attainableValues(int64_t Estimate,
                                              uint64_t ElapsedTime) const {
  return doublingAttainable(Estimate, ElapsedTime);
}

double FastDoublingPolicy::closedFormBoundBits(unsigned UpwardClosureSize,
                                               uint64_t RelevantMitigates,
                                               uint64_t ElapsedTime) const {
  return doublingClosedForm(UpwardClosureSize, RelevantMitigates, ElapsedTime);
}

//===----------------------------------------------------------------------===//
// linear
//===----------------------------------------------------------------------===//

uint64_t LinearPolicy::predict(uint64_t InitialEstimate,
                               unsigned Misses) const {
  uint64_t Base = std::max<uint64_t>(InitialEstimate, 1);
  return saturatingMul(Base, static_cast<uint64_t>(Misses) + 1);
}

uint64_t LinearPolicy::attainableValues(int64_t Estimate,
                                        uint64_t ElapsedTime) const {
  const uint64_t N = Estimate > 0 ? static_cast<uint64_t>(Estimate) : 1;
  // Values n, 2n, 3n, … ≤ T: exactly ⌊T/n⌋ of them (at least 1).
  if (ElapsedTime <= N)
    return 1;
  return ElapsedTime / N;
}

double LinearPolicy::closedFormBoundBits(unsigned UpwardClosureSize,
                                         uint64_t RelevantMitigates,
                                         uint64_t ElapsedTime) const {
  // A linear ladder admits up to T distinct values by time T (the estimate
  // is unknown to the summary bound), so L(T) = T: the guarantee collapses
  // to |LeA↑|·log2(K+1)·T — the closed form is honest about how little a
  // linear schedule promises, even when the per-window account is modest.
  if (RelevantMitigates == 0)
    return 0;
  double LogK = std::log2(static_cast<double>(RelevantMitigates) + 1.0);
  return static_cast<double>(UpwardClosureSize) * LogK *
         static_cast<double>(ElapsedTime);
}

//===----------------------------------------------------------------------===//
// bucketed
//===----------------------------------------------------------------------===//

BucketedPolicy::BucketedPolicy(unsigned Q) : Q(std::max(Q, 1u)) {}

uint64_t BucketedPolicy::predict(uint64_t InitialEstimate,
                                 unsigned Misses) const {
  const uint64_t Octave = doublingPredict(InitialEstimate, Misses / Q);
  const uint64_t Step = Octave / Q;
  // Octave ≤ kPredictionCap and Step·(Q-1) < Octave, so the sum stays well
  // below 2^63; clamp back to the cap for uniform saturation.
  const uint64_t V = Octave + Step * (Misses % Q);
  return std::min(V, kPredictionCap);
}

uint64_t BucketedPolicy::attainableValues(int64_t Estimate,
                                          uint64_t ElapsedTime) const {
  const uint64_t N = Estimate > 0 ? static_cast<uint64_t>(Estimate) : 1;
  // Bounded enumeration counting *distinct* values: integer division can
  // plateau consecutive sub-steps (Step = 0 for small octaves), so "stop at
  // the first repeat" would undercount — walk the whole capped ladder.
  uint64_t Count = 0, Prev = 0;
  const unsigned MaxSteps = (MaxDoublings + 2) * Q;
  for (unsigned K = 0; K <= MaxSteps; ++K) {
    const uint64_t V = predict(N, K);
    if (V > ElapsedTime)
      break;
    if (Count == 0 || V != Prev) {
      ++Count;
      Prev = V;
    }
    if (V >= kPredictionCap)
      break;
  }
  return std::max<uint64_t>(Count, 1);
}

double BucketedPolicy::closedFormBoundBits(unsigned UpwardClosureSize,
                                           uint64_t RelevantMitigates,
                                           uint64_t ElapsedTime) const {
  // Q sub-steps per octave multiply the ladder size by at most Q:
  // L(T) = Q·(1+log2 T), so the bound degrades linearly in the quantum —
  // strictly between doubling (Q=1) and linear for every finite Q.
  if (RelevantMitigates == 0)
    return 0;
  double LogK = std::log2(static_cast<double>(RelevantMitigates) + 1.0);
  double LogT =
      ElapsedTime > 0 ? std::log2(static_cast<double>(ElapsedTime)) : 0.0;
  return static_cast<double>(UpwardClosureSize) * LogK *
         static_cast<double>(Q) * (1.0 + LogT);
}

std::string BucketedPolicy::spec() const {
  return "bucketed:q=" + std::to_string(Q);
}

//===----------------------------------------------------------------------===//
// seeded
//===----------------------------------------------------------------------===//

SeededPolicy::SeededPolicy(uint64_t EstimateFloor)
    : Floor(std::max<uint64_t>(EstimateFloor, 1)) {}

uint64_t SeededPolicy::predict(uint64_t InitialEstimate,
                               unsigned Misses) const {
  return doublingPredict(std::max(InitialEstimate, Floor), Misses);
}

uint64_t SeededPolicy::attainableValues(int64_t Estimate,
                                        uint64_t ElapsedTime) const {
  const uint64_t N = std::max<uint64_t>(
      Estimate > 0 ? static_cast<uint64_t>(Estimate) : 1, Floor);
  return attainableDoublingFrom(N, ElapsedTime);
}

double SeededPolicy::closedFormBoundBits(unsigned UpwardClosureSize,
                                         uint64_t RelevantMitigates,
                                         uint64_t ElapsedTime) const {
  return doublingClosedForm(UpwardClosureSize, RelevantMitigates, ElapsedTime);
}

std::string SeededPolicy::spec() const {
  return "seeded:est=" + std::to_string(Floor);
}

//===----------------------------------------------------------------------===//
// Registry / parsing / selection
//===----------------------------------------------------------------------===//

const MitigationPolicy &zam::fastDoublingPolicy() {
  static const FastDoublingPolicy P;
  return P;
}

const MitigationPolicy &zam::linearPolicy() {
  static const LinearPolicy P;
  return P;
}

const std::vector<MitigationPolicyInfo> &zam::mitigationPolicyRegistry() {
  static const std::vector<MitigationPolicyInfo> Registry = {
      {"fast-doubling", "fast-doubling",
       "the paper's schedule max(n,1)*2^k: minimal leakage, up to 2x "
       "padding per window"},
      {"bucketed", "bucketed:q=<Q>",
       "doubling split into Q linear sub-steps per octave: ~(1+1/Q)x "
       "padding, ~Q*log T attainable values"},
      {"linear", "linear",
       "max(n,1)*(k+1): tightest padding, ~T/n attainable values (leaks "
       "the most per unit time)"},
      {"seeded", "seeded:est=<N>",
       "fast-doubling with the initial estimate floored at a calibrated N "
       "(e.g. from `zamc profile --recommend`)"},
  };
  return Registry;
}

MitigationPolicyPtr zam::parseMitigationPolicy(const std::string &Spec,
                                               std::string *Error) {
  const auto Fail = [&](const std::string &Why) -> MitigationPolicyPtr {
    if (Error)
      *Error = Why;
    return nullptr;
  };
  const auto Singleton = [](const MitigationPolicy &P) {
    return MitigationPolicyPtr(&P, [](const MitigationPolicy *) {});
  };

  const size_t Colon = Spec.find(':');
  const std::string Name = Spec.substr(0, Colon);
  const std::string Params =
      Colon == std::string::npos ? std::string() : Spec.substr(Colon + 1);
  if (Colon != std::string::npos && Params.empty())
    return Fail("policy '" + Name + "' has an empty parameter list after ':'");

  if (Name == "fast-doubling" || Name == "linear") {
    if (!Params.empty())
      return Fail("policy '" + Name + "' takes no parameters");
    return Singleton(Name == "linear" ? linearPolicy() : fastDoublingPolicy());
  }
  if (Name == "bucketed") {
    uint64_t Q = 4; // Default quantum: quarter-octave steps.
    if (!Params.empty()) {
      if (Params.rfind("q=", 0) != 0 || !parseInteger(Params.substr(2), Q) ||
          Q == 0 || Q > 4096)
        return Fail("bucketed wants q=<1..4096>, got '" + Params + "'");
    }
    return std::make_shared<BucketedPolicy>(static_cast<unsigned>(Q));
  }
  if (Name == "seeded") {
    uint64_t Est = 0;
    if (Params.rfind("est=", 0) != 0 || !parseInteger(Params.substr(4), Est) ||
        Est == 0)
      return Fail("seeded wants est=<positive cycles>, got '" + Params + "'");
    return std::make_shared<SeededPolicy>(Est);
  }
  return Fail("unknown mitigation policy '" + Name +
              "' (see `zamc policies`)");
}

const MitigationPolicy &PolicySelection::forSite(unsigned Eta) const {
  for (const auto &[Site, P] : PerSite)
    if (Site == Eta)
      return *P;
  return base();
}

void PolicySelection::overrideSite(unsigned Eta, const MitigationPolicy &P) {
  for (auto &[Site, Existing] : PerSite)
    if (Site == Eta) {
      Existing = &P;
      return;
    }
  auto It = std::lower_bound(
      PerSite.begin(), PerSite.end(), Eta,
      [](const auto &Entry, unsigned E) { return Entry.first < E; });
  PerSite.insert(It, {Eta, &P});
}

bool PolicySelection::isDefaultOnly() const {
  return PerSite.empty() && &base() == &fastDoublingPolicy();
}

//===----------------------------------------------------------------------===//
// MitigationState
//===----------------------------------------------------------------------===//

MitigationState::MitigationState(const SecurityLattice &Lat,
                                 const MitigationPolicy &Policy,
                                 PenaltyPolicy Penalty)
    : Lat(&Lat), Policy(&Policy), Penalty(Penalty) {
  Miss.assign(Penalty == PenaltyPolicy::PerLevel ? Lat.size() : 1, 0);
}

unsigned &MitigationState::missSlot(Label Level) {
  assert(Lat->contains(Level) && "label from another lattice");
  return Miss[Penalty == PenaltyPolicy::PerLevel ? Level.index() : 0];
}

unsigned MitigationState::missSlotValue(Label Level) const {
  assert(Lat->contains(Level) && "label from another lattice");
  return Miss[Penalty == PenaltyPolicy::PerLevel ? Level.index() : 0];
}

uint64_t MitigationState::predict(int64_t Estimate, Label Level) const {
  return predict(Estimate, Level, *Policy);
}

uint64_t MitigationState::predict(int64_t Estimate, Label Level,
                                  const MitigationPolicy &P) const {
  uint64_t N = Estimate > 0 ? static_cast<uint64_t>(Estimate) : 1;
  return P.predict(N, missSlotValue(Level));
}

unsigned MitigationState::misses(Label Level) const {
  return missSlotValue(Level);
}

MitigationState::Outcome MitigationState::settle(int64_t Estimate, Label Level,
                                                 uint64_t Elapsed) {
  return settle(Estimate, Level, Elapsed, *Policy);
}

MitigationState::Outcome MitigationState::settle(int64_t Estimate, Label Level,
                                                 uint64_t Elapsed,
                                                 const MitigationPolicy &P) {
  Outcome Out;
  unsigned &Count = missSlot(Level);
  // The Fig. 6 update loop: while (time - s_η >= predict(n,ℓ)) Miss[ℓ]++.
  while (Elapsed >= predict(Estimate, Level, P)) {
    ++Count;
    Out.Mispredicted = true;
    if (Count >= 2 * MaxDoublings)
      break; // Schedule saturated; duration below still covers Elapsed.
  }
  Out.Duration = std::max(predict(Estimate, Level, P), Elapsed + 1);
  return Out;
}

void MitigationState::reset() {
  std::fill(Miss.begin(), Miss.end(), 0u);
}

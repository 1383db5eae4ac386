//===- mitigation_test.cpp - Predictive mitigation (Sec. 7, Fig. 6) --------===//

#include "sem/Mitigation.h"

#include "hw/HardwareModels.h"
#include "obs/LeakAudit.h"
#include "sem/FullInterpreter.h"
#include "types/LabelInference.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

#include <cmath>
#include <set>

using namespace zam;
using namespace zam::test;

TEST(FastDoubling, Schedule) {
  FastDoublingPolicy S;
  EXPECT_EQ(S.predict(10, 0), 10u);
  EXPECT_EQ(S.predict(10, 1), 20u);
  EXPECT_EQ(S.predict(10, 5), 320u);
  // predict(n,ℓ) = max(n,1)·2^Miss: a zero estimate behaves as 1.
  EXPECT_EQ(S.predict(0, 3), 8u);
}

TEST(FastDoubling, ShiftIsCapped) {
  FastDoublingPolicy S;
  EXPECT_EQ(S.predict(1, 40), 1ull << 40);
  EXPECT_EQ(S.predict(1, 100), 1ull << 40); // No overflow.
}

TEST(LinearPolicy, Schedule) {
  LinearPolicy S;
  EXPECT_EQ(S.predict(10, 0), 10u);
  EXPECT_EQ(S.predict(10, 3), 40u);
}

TEST(LinearPolicy, PredictSaturatesInsteadOfWrapping) {
  // Regression: max(n,1)·(k+1) used to wrap uint64_t for huge estimates or
  // miss counts, producing a *smaller* (schedule-violating) prediction.
  LinearPolicy S;
  const uint64_t Huge = uint64_t(1) << 60;
  EXPECT_EQ(S.predict(Huge, 1000), MitigationPolicy::kPredictionCap);
  EXPECT_EQ(S.predict(uint64_t(1) << 40, 0xFFFFFFFFu),
            MitigationPolicy::kPredictionCap);
  // Below the cap the product is exact even for huge miss counts.
  EXPECT_EQ(S.predict(3, 0xFFFFFFFFu), 3 * (uint64_t(0xFFFFFFFF) + 1));
  // Monotone non-decreasing across the saturation boundary.
  uint64_t Prev = 0;
  for (unsigned K = 0; K < 80; ++K) {
    uint64_t V = S.predict(Huge / 8, K);
    EXPECT_GE(V, Prev) << "k=" << K;
    Prev = V;
  }
}

TEST(FastDoubling, PredictSaturatesForHugeEstimates) {
  FastDoublingPolicy S;
  // Base ≥ cap >> shift would have shifted into the sign bit and wrapped.
  const uint64_t Huge = uint64_t(1) << 60;
  EXPECT_EQ(S.predict(Huge, 40), MitigationPolicy::kPredictionCap);
  EXPECT_EQ(S.predict(Huge, 100), MitigationPolicy::kPredictionCap);
}

TEST(BucketedPolicy, InterpolatesBetweenOctaves) {
  // q=4: predict walks 100, 125, 150, 175, 200, 250, ... — a factor
  // (1+1/q) per miss instead of 2.
  BucketedPolicy S(4);
  EXPECT_EQ(S.predict(100, 0), 100u);
  EXPECT_EQ(S.predict(100, 1), 125u);
  EXPECT_EQ(S.predict(100, 2), 150u);
  EXPECT_EQ(S.predict(100, 3), 175u);
  EXPECT_EQ(S.predict(100, 4), 200u);
  EXPECT_EQ(S.predict(100, 5), 250u);
}

TEST(BucketedPolicy, QuantumOneIsFastDoubling) {
  BucketedPolicy B(1);
  FastDoublingPolicy D;
  for (unsigned K = 0; K != 50; ++K) {
    EXPECT_EQ(B.predict(7, K), D.predict(7, K)) << "k=" << K;
    EXPECT_EQ(B.attainableValues(7, 1 << 20), D.attainableValues(7, 1 << 20));
  }
}

TEST(BucketedPolicy, PredictSaturatesInsteadOfWrapping) {
  BucketedPolicy S(8);
  const uint64_t Huge = uint64_t(1) << 61;
  EXPECT_EQ(S.predict(Huge, 4000), MitigationPolicy::kPredictionCap);
  uint64_t Prev = 0;
  for (unsigned K = 0; K < 400; ++K) {
    uint64_t V = S.predict(Huge / 4, K);
    EXPECT_GE(V, Prev) << "k=" << K;
    Prev = V;
  }
}

TEST(SeededPolicy, FloorsTheEstimate) {
  SeededPolicy S(1000);
  EXPECT_EQ(S.predict(10, 0), 1000u);   // Floored.
  EXPECT_EQ(S.predict(4000, 0), 4000u); // Estimate already above the floor.
  EXPECT_EQ(S.predict(10, 2), 4000u);   // Doubling from the floor.
}

//===----------------------------------------------------------------------===//
// Policy-owned accounting: attainableValues counts the policy's own ladder
//===----------------------------------------------------------------------===//

TEST(PolicyAccounting, AttainableCountsMatchBruteForce) {
  // For each registered policy shape, N(T) must equal the number of
  // *distinct* schedule values predict(n, k) ≤ T — the set the Sec. 6
  // argument counts. predict is monotone non-decreasing in k for every
  // policy, so walking k and counting value changes enumerates the ladder.
  FastDoublingPolicy Doubling;
  LinearPolicy Linear;
  BucketedPolicy Bucketed3(3);
  BucketedPolicy Bucketed7(7);
  SeededPolicy Seeded(64);
  const MitigationPolicy *Policies[] = {&Doubling, &Linear, &Bucketed3,
                                        &Bucketed7, &Seeded};
  for (const MitigationPolicy *P : Policies) {
    for (int64_t Est : {0, 1, 5, 64, 1000}) {
      for (uint64_t T :
           {0ull, 1ull, 5ull, 63ull, 64ull, 65ull, 1000ull, 100000ull}) {
        uint64_t Count = 0, Prev = 0;
        for (unsigned K = 0;; ++K) {
          uint64_t V =
              P->predict(Est > 0 ? static_cast<uint64_t>(Est) : 1, K);
          if (V > T)
            break; // Monotone: no later value can re-enter [0, T].
          if (Count == 0 || V != Prev)
            ++Count;
          Prev = V;
        }
        uint64_t Want = std::max<uint64_t>(Count, 1);
        EXPECT_EQ(P->attainableValues(Est, T), Want)
            << P->spec() << " est=" << Est << " T=" << T;
      }
    }
  }
}

TEST(PolicyAccounting, WindowBitsAreLogOfAttainable) {
  BucketedPolicy S(4);
  EXPECT_DOUBLE_EQ(S.windowBoundBits(100, 100000),
                   std::log2(static_cast<double>(
                       S.attainableValues(100, 100000))));
}

TEST(PolicyAccounting, ClosedFormDefaultsMatchPaperBound) {
  // Fast-doubling's closed form must reproduce the free-function bound
  // bit for bit (the analysis layer depends on this equivalence).
  FastDoublingPolicy S;
  for (uint64_t K : {0ull, 1ull, 7ull, 100ull})
    for (uint64_t T : {0ull, 1ull, 1000ull, 123456789ull})
      EXPECT_EQ(S.closedFormBoundBits(3, K, T), leakageBoundBits(3, K, T));
  // Linear admits more values per window, so its summary bound dominates
  // doubling's for any nontrivial horizon.
  LinearPolicy L;
  EXPECT_GT(L.closedFormBoundBits(3, 7, 100000),
            S.closedFormBoundBits(3, 7, 100000));
}

//===----------------------------------------------------------------------===//
// Registry, parsing, and per-site selection
//===----------------------------------------------------------------------===//

TEST(PolicyRegistry, ParsesEveryRegisteredSpec) {
  for (const MitigationPolicyInfo &Info : mitigationPolicyRegistry()) {
    std::string Spec = Info.ParamSyntax;
    // Instantiate the syntax with a concrete parameter value.
    size_t Lt = Spec.find('<');
    if (Lt != std::string::npos)
      Spec = Spec.substr(0, Lt) + "8";
    std::string Err;
    MitigationPolicyPtr P = parseMitigationPolicy(Spec, &Err);
    ASSERT_NE(P, nullptr) << Spec << ": " << Err;
    EXPECT_EQ(P->name(), std::string(Info.Name));
    // The canonical spec round-trips.
    MitigationPolicyPtr Q = parseMitigationPolicy(P->spec(), &Err);
    ASSERT_NE(Q, nullptr);
    EXPECT_EQ(Q->spec(), P->spec());
  }
}

TEST(PolicyRegistry, RejectsMalformedSpecs) {
  std::string Err;
  EXPECT_EQ(parseMitigationPolicy("quadratic", &Err), nullptr);
  EXPECT_NE(Err.find("unknown"), std::string::npos);
  EXPECT_EQ(parseMitigationPolicy("bucketed:q=0", &Err), nullptr);
  EXPECT_EQ(parseMitigationPolicy("bucketed:q=nope", &Err), nullptr);
  EXPECT_EQ(parseMitigationPolicy("seeded", &Err), nullptr);
  EXPECT_EQ(parseMitigationPolicy("seeded:est=0", &Err), nullptr);
  EXPECT_EQ(parseMitigationPolicy("fast-doubling:q=2", &Err), nullptr);
}

TEST(PolicySelection, PerSiteOverridesResolveByEta) {
  PolicySelection Sel;
  EXPECT_TRUE(Sel.isDefaultOnly());
  EXPECT_EQ(&Sel.forSite(3), &fastDoublingPolicy());
  Sel.overrideSite(3, linearPolicy());
  EXPECT_FALSE(Sel.isDefaultOnly());
  EXPECT_EQ(&Sel.forSite(3), &linearPolicy());
  EXPECT_EQ(&Sel.forSite(0), &fastDoublingPolicy());
  Sel.overrideSite(3, fastDoublingPolicy()); // Replace, not duplicate.
  EXPECT_EQ(Sel.PerSite.size(), 1u);
}

TEST(SiteOverride, ParsesEtaEqualsSpec) {
  std::string Err = "stale";
  std::optional<SiteOverride> S = parseSiteOverride("0=linear", Err);
  ASSERT_TRUE(S);
  EXPECT_EQ(S->Eta, 0u);
  EXPECT_EQ(S->Policy.get(), &linearPolicy());
  EXPECT_TRUE(Err.empty());
  S = parseSiteOverride("4294967295=bucketed:q=2", Err);
  ASSERT_TRUE(S);
  EXPECT_EQ(S->Eta, 4294967295u);
  EXPECT_EQ(S->Policy->spec(), "bucketed:q=2");
}

TEST(SiteOverride, RejectsMalformedItems) {
  // Not ETA=SPEC at all: no diagnostic of the policy's.
  for (const char *Item : {"=linear", "-1=linear", "x=linear", "linear",
                           "4294967296=linear", " 0=linear"}) {
    std::string Err = "stale";
    EXPECT_FALSE(parseSiteOverride(Item, Err)) << Item;
    EXPECT_TRUE(Err.empty()) << Item;
  }
  // A well-formed η with a spec that is no policy: the policy's message.
  std::string Err;
  EXPECT_FALSE(parseSiteOverride("0=", Err));
  EXPECT_NE(Err.find("unknown mitigation policy ''"), std::string::npos);
  EXPECT_FALSE(parseSiteOverride("0=nosuch", Err));
  EXPECT_NE(Err.find("unknown mitigation policy 'nosuch'"), std::string::npos);
  EXPECT_FALSE(parseSiteOverride("1=seeded:est=0", Err));
  EXPECT_NE(Err.find("seeded wants est="), std::string::npos);
}

TEST(SiteOverride, FormatIsWhatTheParserReads) {
  PolicySelection Sel;
  EXPECT_EQ(formatSiteOverrides(Sel), "");
  std::vector<MitigationPolicyPtr> Owned;
  std::string Err;
  for (const char *Item : {"7=seeded:est=64", "0=linear"}) {
    std::optional<SiteOverride> S = parseSiteOverride(Item, Err);
    ASSERT_TRUE(S) << Item;
    Sel.overrideSite(S->Eta, *S->Policy);
    Owned.push_back(S->Policy);
  }
  EXPECT_EQ(formatSiteOverrides(Sel), "0=linear,7=seeded:est=64");
}

TEST(MitigationState, NoMispredictionLeavesMissUntouched) {
  MitigationState St(lh(), fastDoublingPolicy(), PenaltyPolicy::PerLevel);
  auto Out = St.settle(100, high(), 60);
  EXPECT_FALSE(Out.Mispredicted);
  EXPECT_EQ(Out.Duration, 100u);
  EXPECT_EQ(St.misses(high()), 0u);
}

TEST(MitigationState, MispredictionDoublesUntilCovered) {
  MitigationState St(lh(), fastDoublingPolicy(), PenaltyPolicy::PerLevel);
  // Elapsed 900 with estimate 100: 100→200→400→800→1600.
  auto Out = St.settle(100, high(), 900);
  EXPECT_TRUE(Out.Mispredicted);
  EXPECT_EQ(Out.Duration, 1600u);
  EXPECT_EQ(St.misses(high()), 4u);
}

TEST(MitigationState, ExactBoundaryCountsAsMiss) {
  // Fig. 6 loop condition: while (elapsed >= predict) Miss++.
  MitigationState St(lh(), fastDoublingPolicy(), PenaltyPolicy::PerLevel);
  auto Out = St.settle(100, high(), 100);
  EXPECT_TRUE(Out.Mispredicted);
  EXPECT_EQ(Out.Duration, 200u);
}

TEST(MitigationState, PerLevelPolicyIsolatesLevels) {
  const TotalOrderLattice &Lat = lmh();
  Label M = *Lat.byName("M"), H = *Lat.byName("H");
  MitigationState St(Lat, fastDoublingPolicy(), PenaltyPolicy::PerLevel);
  St.settle(10, H, 500);
  EXPECT_GT(St.misses(H), 0u);
  EXPECT_EQ(St.misses(M), 0u); // Local penalty policy: no cross-charging.
  EXPECT_EQ(St.predict(10, M), 10u);
}

TEST(MitigationState, GlobalPolicySharesPenalty) {
  const TotalOrderLattice &Lat = lmh();
  Label M = *Lat.byName("M"), H = *Lat.byName("H");
  MitigationState St(Lat, fastDoublingPolicy(), PenaltyPolicy::Global);
  St.settle(10, H, 500);
  EXPECT_EQ(St.misses(M), St.misses(H)); // One shared counter.
  EXPECT_GT(St.predict(10, M), 10u);
}

TEST(MitigationState, ResetClearsMisses) {
  MitigationState St(lh(), fastDoublingPolicy(), PenaltyPolicy::PerLevel);
  St.settle(1, high(), 1000);
  St.reset();
  EXPECT_EQ(St.misses(high()), 0u);
  EXPECT_EQ(St.predict(1, high()), 1u);
}

TEST(MitigationState, DurationAlwaysExceedsElapsed) {
  MitigationState St(lh(), fastDoublingPolicy(), PenaltyPolicy::PerLevel);
  Rng R(9);
  for (int I = 0; I != 200; ++I) {
    uint64_t Elapsed = R.nextBelow(1 << 20);
    int64_t Estimate = static_cast<int64_t>(R.nextBelow(1 << 10));
    auto Out = St.settle(Estimate, high(), Elapsed);
    EXPECT_GT(Out.Duration, Elapsed);
  }
}

//===----------------------------------------------------------------------===//
// End-to-end: mitigated durations are schedule-valued
//===----------------------------------------------------------------------===//

TEST(Mitigation, PaddedDurationsComeFromTheSchedule) {
  // Run sleep(h) under mitigate(1,H) for many h; the mitigate duration must
  // always be a power of two (the fast-doubling schedule with estimate 1),
  // exactly the "powers of 2" behavior described in Sec. 2.3.
  for (int64_t H : {0, 1, 3, 10, 100, 500, 1000}) {
    Program P = parseOrDie("var h : H = " + std::to_string(H) + ";\n"
                           "mitigate (1, H) { sleep(h) @[H,H] }");
    inferTimingLabels(P);
    auto Env = createMachineEnv(HwKind::Partitioned, lh(), MachineEnvConfig());
    RunResult R = runFull(P, *Env);
    ASSERT_EQ(R.T.Mitigations.size(), 1u);
    uint64_t D = R.T.Mitigations[0].Duration;
    EXPECT_EQ(D & (D - 1), 0u) << "duration " << D << " for h=" << H;
    EXPECT_GT(D, static_cast<uint64_t>(H));
  }
}

TEST(Mitigation, DistinctDurationsAreLogarithmicInRange) {
  // Over secrets in [0, 1000], the number of distinct mitigated durations
  // is at most log2(max duration) + 1 — the quantitative heart of the
  // leakage bound.
  std::set<uint64_t> Durations;
  uint64_t MaxDuration = 0;
  for (int64_t H = 0; H <= 1000; H += 13) {
    Program P = parseOrDie("var h : H = " + std::to_string(H) + ";\n"
                           "mitigate (1, H) { sleep(h) @[H,H] }");
    inferTimingLabels(P);
    auto Env = createMachineEnv(HwKind::Partitioned, lh(), MachineEnvConfig());
    RunResult R = runFull(P, *Env);
    Durations.insert(R.T.Mitigations[0].Duration);
    MaxDuration = std::max(MaxDuration, R.T.Mitigations[0].Duration);
  }
  double Bound = std::log2(static_cast<double>(MaxDuration)) + 1;
  EXPECT_LE(Durations.size(), static_cast<size_t>(Bound));
}

TEST(Mitigation, EstimateExpressionIsEvaluated) {
  Program P = parseOrDie("var n : L = 512;\nvar h : H = 3;\n"
                         "mitigate (n * 2, H) { sleep(h) @[H,H] }");
  inferTimingLabels(P);
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), MachineEnvConfig());
  RunResult R = runFull(P, *Env);
  EXPECT_EQ(R.T.Mitigations[0].Duration, 1024u);
}

TEST(Mitigation, LinearSchemeProducesLinearPadding) {
  Program P = parseOrDie("var h : H = 350;\n"
                         "mitigate (100, H) { sleep(h) @[H,H] }");
  inferTimingLabels(P);
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), MachineEnvConfig());
  InterpreterOptions Opts;
  Opts.Mitigation.Default = &linearPolicy();
  RunResult R = runFull(P, *Env, Opts);
  // Body takes ≥350; linear schedule 100,200,300,400,...
  EXPECT_EQ(R.T.Mitigations[0].Duration % 100, 0u);
  EXPECT_TRUE(R.T.Mitigations[0].Mispredicted);
}

TEST(Mitigation, WellPredictedBlockAddsOnlySlack) {
  // With an accurate initial estimate, the mitigated time is the estimate
  // itself: mitigation costs only the gap between estimate and actual.
  // The body is sleep(h)=100 plus the cold-cache cost of reading h
  // (~137 cycles); an estimate of 400 covers it.
  Program P = parseOrDie("var h : H = 100;\n"
                         "mitigate (400, H) { sleep(h) @[H,H] }");
  inferTimingLabels(P);
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), MachineEnvConfig());
  RunResult R = runFull(P, *Env);
  EXPECT_FALSE(R.T.Mitigations[0].Mispredicted);
  EXPECT_EQ(R.T.Mitigations[0].Duration, 400u);
}

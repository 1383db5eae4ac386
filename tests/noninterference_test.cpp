//===- noninterference_test.cpp - Theorems 1 & 2, Lemma 1 ------------------===//
//
// End-to-end validation of the type system's guarantees:
//   Theorem 1: well-typed programs preserve ℓ-equivalence of memory and
//              machine environments.
//   Lemma 1:   the low-context mitigate-command sequence is low-deterministic.
//   Theorem 2: leakage Q is bounded by log |V| of the mitigate timing
//              variations.
//
//===----------------------------------------------------------------------===//

#include "analysis/Leakage.h"
#include "analysis/PropertyCheckers.h"
#include "analysis/RandomProgram.h"
#include "hw/HardwareModels.h"
#include "types/LabelInference.h"
#include "types/TypeChecker.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

using namespace zam;
using namespace zam::test;

namespace {
/// Builds ℓ-equivalent memory pairs: copy, then rerandomize variables whose
/// labels do not flow to Level.
Memory perturbAboveMemory(const Memory &M, Label Level,
                          const SecurityLattice &Lat, Rng &R) {
  Memory Out = M;
  perturbMemoryAbove(Out, Level, Lat, R);
  return Out;
}
} // namespace

class NoninterferenceOnSecureHw : public ::testing::TestWithParam<HwKind> {};

TEST_P(NoninterferenceOnSecureHw, Theorem1OnRandomWellTypedPrograms) {
  Rng R(0x7E0 + static_cast<uint64_t>(GetParam()));
  auto Env = createMachineEnv(GetParam(), lh(), MachineEnvConfig());
  unsigned Checked = 0;
  for (unsigned Trial = 0; Trial != 60 && Checked < 12; ++Trial) {
    std::optional<Program> P = randomWellTypedProgram(lh(), R);
    if (!P)
      continue;
    ++Checked;
    Memory M1 = Memory::fromProgram(*P, CostModel().DataBase);
    randomizeMemoryValues(M1, R);
    for (Label Level : lh().allLabels()) {
      Memory M2 = perturbAboveMemory(M1, Level, lh(), R);
      auto E1 = Env->clone();
      E1->randomize(R);
      auto E2 = E1->clone();
      E2->perturbAbove(Level, R);
      PropertyReport Rep = checkNoninterference(*P, M1, M2, *E1, *E2, Level);
      EXPECT_TRUE(Rep.Holds)
          << Rep.Detail << "\nat level " << lh().name(Level);
    }
  }
  EXPECT_GE(Checked, 6u);
}

TEST_P(NoninterferenceOnSecureHw, Theorem1ThreeLevelLattice) {
  Rng R(0x3E0 + static_cast<uint64_t>(GetParam()));
  auto Env = createMachineEnv(GetParam(), lmh(), MachineEnvConfig());
  unsigned Checked = 0;
  for (unsigned Trial = 0; Trial != 60 && Checked < 8; ++Trial) {
    std::optional<Program> P = randomWellTypedProgram(lmh(), R);
    if (!P)
      continue;
    ++Checked;
    Memory M1 = Memory::fromProgram(*P, CostModel().DataBase);
    randomizeMemoryValues(M1, R);
    Label Mid = *lmh().byName("M");
    Memory M2 = perturbAboveMemory(M1, Mid, lmh(), R);
    auto E1 = Env->clone();
    auto E2 = E1->clone();
    E2->perturbAbove(Mid, R);
    PropertyReport Rep = checkNoninterference(*P, M1, M2, *E1, *E2, Mid);
    EXPECT_TRUE(Rep.Holds) << Rep.Detail;
  }
  EXPECT_GE(Checked, 4u);
}

INSTANTIATE_TEST_SUITE_P(SecureDesigns, NoninterferenceOnSecureHw,
                         ::testing::ValuesIn(secureHwKinds()),
                         [](const auto &Info) {
                           return std::string(hwKindName(Info.param));
                         });

TEST(Noninterference, CommodityHardwareBreaksTheorem1) {
  // The same well-typed program on nopar hardware can violate
  // machine-environment noninterference: the cache does not respect the
  // write-label contract, so the theorem's hardware assumptions fail.
  Program P = parseOrDie("var h : H = 1;\nvar h2 : H;\n"
                         "if h then { h2 := 1 } else { skip }");
  inferTimingLabels(P);
  DiagnosticEngine Diags;
  ASSERT_TRUE(typeCheck(P, Diags)) << Diags.str();

  Rng R(99);
  Memory M1 = Memory::fromProgram(P, CostModel().DataBase);
  Memory M2 = M1;
  M2.store("h", 0); // Low-equivalent: h is high.
  auto E1 = createMachineEnv(HwKind::NoPartition, lh(), MachineEnvConfig());
  auto E2 = E1->clone();
  PropertyReport Rep =
      checkNoninterference(P, M1, M2, *E1, *E2, low());
  EXPECT_FALSE(Rep.Holds); // The branch's fetches polluted shared state.
}

//===----------------------------------------------------------------------===//
// Timing noninterference without mitigates (Theorem 2 corollary)
//===----------------------------------------------------------------------===//

TEST(Noninterference, MitigateFreeProgramsHaveSecretIndependentTiming) {
  // Corollary of Theorem 2: no mitigate ⇒ zero leakage ⇒ final time and
  // low event times are independent of high inputs.
  Rng R(0xFACE);
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), MachineEnvConfig());
  RandomProgramOptions O;
  O.AllowMitigate = false;
  unsigned Checked = 0;
  for (unsigned Trial = 0; Trial != 80 && Checked < 12; ++Trial) {
    std::optional<Program> P = randomWellTypedProgram(lh(), R, O);
    if (!P)
      continue;
    ++Checked;
    auto E1 = Env->clone();
    auto E2 = Env->clone();
    FullInterpreter I1(*P, *E1);
    FullInterpreter I2(*P, *E2);
    randomizeMemoryValues(I1.memory(), R);
    I2.memory() = I1.memory();
    // Vary only high variables.
    for (size_t I = 0; I != I1.memory().slotCount(); ++I)
      if (I1.memory().slotAt(I).SecLabel == high())
        for (int64_t &V : I2.memory().slotAt(I).Data)
          V = R.nextInRange(-64, 64);
    RunResult R1 = I1.run();
    RunResult R2 = I2.run();
    // The adversary-visible part — every low assignment's value AND
    // timestamp — must be identical. (Termination time itself may differ:
    // the adversary does not observe it directly, and a well-typed program
    // cannot convert a high-τ suffix back into a low event; see Sec. 6.1.)
    EXPECT_EQ(R1.T.observationKey(low(), lh()),
              R2.T.observationKey(low(), lh()));
  }
  EXPECT_GE(Checked, 6u);
}

//===----------------------------------------------------------------------===//
// Lemma 1 and Theorem 2 via the leakage analyzer
//===----------------------------------------------------------------------===//

TEST(Leakage, Lemma1LowDeterministicMitigates) {
  // High branches select different *high* mitigates, but the low-context
  // mitigate sequence is the same across secrets.
  Program P = parseOrDie(
      "var h : H;\nvar l : L;\n"
      "mitigate (1, H) {\n"
      "  if h then { mitigate (1, H) { h := h + 1 } } else { skip }\n"
      "};\n"
      "l := 1");
  inferTimingLabels(P);
  DiagnosticEngine Diags;
  ASSERT_TRUE(typeCheck(P, Diags)) << Diags.str();

  auto Env = createMachineEnv(HwKind::Partitioned, lh(), MachineEnvConfig());
  LeakageSpec Spec;
  Spec.SourceLevels = LabelSet(lh(), {high()});
  Spec.Adversary = low();
  for (int64_t H : {0, 1, 2, 7, 100})
    Spec.Variations.push_back(SecretAssignment{{{"h", H}}, {}});
  LeakageResult R = measureLeakage(P, *Env, Spec);
  EXPECT_TRUE(R.MitigatesLowDeterministic);
  EXPECT_TRUE(R.TheoremTwoHolds);
}

TEST(Leakage, Theorem2BoundsObservationsByTimingVectors) {
  Program P = parseOrDie("var h : H;\nvar l : L;\n"
                         "mitigate (1, H) { sleep(h) @[H,H] };\n"
                         "l := 1");
  inferTimingLabels(P);
  DiagnosticEngine Diags;
  ASSERT_TRUE(typeCheck(P, Diags)) << Diags.str();

  auto Env = createMachineEnv(HwKind::Partitioned, lh(), MachineEnvConfig());
  LeakageSpec Spec;
  Spec.SourceLevels = LabelSet(lh(), {high()});
  Spec.Adversary = low();
  for (int64_t H = 0; H < 2000; H += 61)
    Spec.Variations.push_back(SecretAssignment{{{"h", H}}, {}});
  LeakageResult R = measureLeakage(P, *Env, Spec);
  EXPECT_TRUE(R.TheoremTwoHolds);
  EXPECT_GT(R.DistinctObservations, 1u); // Some leakage exists...
  EXPECT_LE(R.DistinctObservations, R.DistinctTimingVectors);
  // ...but far less than the log2(#secrets) a raw channel would carry.
  EXPECT_LE(R.VBits, leakageBoundBits(1, R.RelevantMitigates,
                                      R.MaxFinalTime) +
                         1.0);
}

TEST(Leakage, ThreeLevelFlowSeparation) {
  // Sec. 6.2: leakage from {M} to L is zero even though flow from {H} to L
  // is not, for a program sleeping on an H secret.
  Program P = parseOrDie("var m : M;\nvar h : H;\nvar l : L;\n"
                         "mitigate (1, H) { sleep(h) @[H,H] };\n"
                         "l := 1",
                         lmh());
  inferTimingLabels(P);
  DiagnosticEngine Diags;
  ASSERT_TRUE(typeCheck(P, Diags)) << Diags.str();

  auto Env = createMachineEnv(HwKind::Partitioned, lmh(), MachineEnvConfig());
  Label M = *lmh().byName("M");
  Label H = *lmh().byName("H");

  // Vary only m: the observation must not change at all.
  LeakageSpec SpecM;
  SpecM.SourceLevels = LabelSet(lmh(), {M});
  SpecM.Adversary = lmh().bottom();
  for (int64_t V : {0, 50, 500})
    SpecM.Variations.push_back(SecretAssignment{{{"m", V}}, {}});
  LeakageResult RM = measureLeakage(P, *Env, SpecM);
  EXPECT_EQ(RM.DistinctObservations, 1u);
  EXPECT_EQ(RM.QBits, 0.0);

  // Vary h: bounded, nonzero leakage through the mitigate.
  LeakageSpec SpecH;
  SpecH.SourceLevels = LabelSet(lmh(), {H});
  SpecH.Adversary = lmh().bottom();
  for (int64_t V : {0, 50, 500, 5000})
    SpecH.Variations.push_back(SecretAssignment{{{"h", V}}, {}});
  LeakageResult RH = measureLeakage(P, *Env, SpecH);
  EXPECT_GT(RH.DistinctObservations, 1u);
  EXPECT_TRUE(RH.TheoremTwoHolds);
}

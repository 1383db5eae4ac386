//===- properties_test.cpp - Properties 1-7 of the contract ----------------===//
//
// Property-based validation of the software/hardware contract (Sec. 3.5 and
// 3.6) for every hardware design, driven by random labeled commands,
// memories, and machine-environment states. The commodity design
// (NoPartition) is asserted to VIOLATE the security properties — that
// violation is the attack surface the paper's designs close.
//
//===----------------------------------------------------------------------===//

#include "analysis/PropertyCheckers.h"
#include "analysis/RandomProgram.h"
#include "hw/HardwareModels.h"
#include "lang/ProgramBuilder.h"
#include "sem/StepInterpreter.h"
#include "types/LabelInference.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

using namespace zam;
using namespace zam::test;

namespace {
/// A program supplying declarations for random commands.
Program declsOnly(const SecurityLattice &Lat, Rng &R,
                  const RandomProgramOptions &O) {
  Program P(Lat);
  addRandomDeclarations(P, R, O);
  P.setBody(std::make_unique<SkipCmd>());
  P.number();
  return P;
}

Memory randomMemory(const Program &P, Rng &R) {
  Memory M = Memory::fromProgram(P, CostModel().DataBase);
  randomizeMemoryValues(M, R);
  return M;
}
} // namespace

//===----------------------------------------------------------------------===//
// Faithfulness properties (1-4): all designs
//===----------------------------------------------------------------------===//

class Faithfulness : public ::testing::TestWithParam<HwKind> {};

TEST_P(Faithfulness, Property1AdequacyOnRandomPrograms) {
  Rng R(101 + static_cast<uint64_t>(GetParam()));
  auto Env = createMachineEnv(GetParam(), lh(), MachineEnvConfig());
  unsigned Checked = 0;
  for (unsigned Trial = 0; Trial != 40 && Checked < 10; ++Trial) {
    std::optional<Program> P = randomWellTypedProgram(lh(), R);
    if (!P)
      continue;
    ++Checked;
    PropertyReport Rep = checkAdequacy(*P, *Env);
    EXPECT_TRUE(Rep.Holds) << Rep.Detail;
  }
  EXPECT_GE(Checked, 5u);
}

TEST_P(Faithfulness, Property2DeterminismOnRandomPrograms) {
  Rng R(202 + static_cast<uint64_t>(GetParam()));
  auto Env = createMachineEnv(GetParam(), lh(), MachineEnvConfig());
  Env->randomize(R); // Determinism must hold from any starting state.
  unsigned Checked = 0;
  for (unsigned Trial = 0; Trial != 40 && Checked < 10; ++Trial) {
    std::optional<Program> P = randomWellTypedProgram(lh(), R);
    if (!P)
      continue;
    ++Checked;
    PropertyReport Rep = checkDeterminism(*P, *Env);
    EXPECT_TRUE(Rep.Holds) << Rep.Detail;
  }
  EXPECT_GE(Checked, 5u);
}

TEST_P(Faithfulness, Property3SequentialComposition) {
  Rng R(303 + static_cast<uint64_t>(GetParam()));
  RandomProgramOptions O;
  O.MaxDepth = 3;
  Program Decls = declsOnly(lh(), R, O);
  auto Env = createMachineEnv(GetParam(), lh(), MachineEnvConfig());
  for (unsigned Trial = 0; Trial != 15; ++Trial) {
    CmdPtr C1 = randomCommand(Decls, R, O);
    CmdPtr C2 = randomCommand(Decls, R, O);
    Memory M = randomMemory(Decls, R);
    auto EnvT = Env->clone();
    EnvT->randomize(R);
    PropertyReport Rep =
        checkSequentialComposition(Decls, *C1, *C2, M, *EnvT);
    EXPECT_TRUE(Rep.Holds) << Rep.Detail;
  }
}

TEST_P(Faithfulness, Property4SleepDuration) {
  Rng R(404);
  RandomProgramOptions O;
  Program Decls = declsOnly(lh(), R, O);
  auto Env = createMachineEnv(GetParam(), lh(), MachineEnvConfig());
  Env->randomize(R);
  for (int64_t N : {-10ll, -1ll, 0ll, 1ll, 7ll, 1000ll, 1000000ll})
    for (Label Read : lh().allLabels())
      for (Label Write : lh().allLabels()) {
        PropertyReport Rep = checkSleepDuration(Decls, N, Read, Write, *Env);
        EXPECT_TRUE(Rep.Holds) << Rep.Detail;
      }
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, Faithfulness,
                         ::testing::ValuesIn(allHwKinds()),
                         [](const auto &Info) {
                           return std::string(hwKindName(Info.param));
                         });

//===----------------------------------------------------------------------===//
// Security properties (5-7): the secure designs
//===----------------------------------------------------------------------===//

namespace {
struct SecurityCase {
  HwKind Kind;
  const SecurityLattice *Lat;
  const char *Name;
};

std::vector<SecurityCase> securityCases() {
  return {
      {HwKind::NoFill, &lh(), "nofill_2level"},
      {HwKind::Partitioned, &lh(), "partitioned_2level"},
      {HwKind::Partitioned, &lmh(), "partitioned_3level"},
      {HwKind::NoFill, &lmh(), "nofill_3level"},
  };
}
} // namespace

class SecurityProperties : public ::testing::TestWithParam<SecurityCase> {};

TEST_P(SecurityProperties, Property5WriteLabel) {
  const SecurityCase &Case = GetParam();
  Rng R(505);
  RandomProgramOptions O;
  O.MaxDepth = 2;
  O.EqualTimingLabels = false; // Exercise er ≠ ew too.
  Program Decls = declsOnly(*Case.Lat, R, O);
  auto Env = createMachineEnv(Case.Kind, *Case.Lat, MachineEnvConfig());
  for (unsigned Trial = 0; Trial != 120; ++Trial) {
    CmdPtr C = randomCommand(Decls, R, O);
    Memory M = randomMemory(Decls, R);
    auto EnvT = Env->clone();
    EnvT->randomize(R);
    PropertyReport Rep = checkWriteLabel(Decls, *C, M, *EnvT);
    EXPECT_TRUE(Rep.Holds) << Rep.Detail;
  }
}

TEST_P(SecurityProperties, Property6ReadLabel) {
  const SecurityCase &Case = GetParam();
  Rng R(606);
  RandomProgramOptions O;
  O.MaxDepth = 2;
  Program Decls = declsOnly(*Case.Lat, R, O);
  auto Env = createMachineEnv(Case.Kind, *Case.Lat, MachineEnvConfig());
  unsigned Checked = 0;
  for (unsigned Trial = 0; Trial != 120; ++Trial) {
    CmdPtr C = randomCommand(Decls, R, O);
    Label Er = *activeCommand(*C).labels().Read;
    // Premise: memories agree on vars1(C); everything else may differ.
    Memory M1 = randomMemory(Decls, R);
    Memory M2 = randomMemory(Decls, R);
    for (const std::string &V : vars1(*C))
      M2.slot(V).Data = M1.slot(V).Data;
    // Premise: E1 ~er E2 — perturb only state above er.
    auto E1 = Env->clone();
    E1->randomize(R);
    auto E2 = E1->clone();
    E2->perturbAbove(Er, R);
    ++Checked;
    PropertyReport Rep = checkReadLabel(Decls, *C, M1, M2, *E1, *E2);
    EXPECT_TRUE(Rep.Holds) << Rep.Detail;
  }
  EXPECT_GT(Checked, 0u);
}

TEST_P(SecurityProperties, Property7SingleStepNoninterference) {
  const SecurityCase &Case = GetParam();
  const SecurityLattice &Lat = *Case.Lat;
  Rng R(707);
  RandomProgramOptions O;
  O.MaxDepth = 2;
  Program Decls = declsOnly(Lat, R, O);
  auto Env = createMachineEnv(Case.Kind, Lat, MachineEnvConfig());
  for (unsigned Trial = 0; Trial != 80; ++Trial) {
    CmdPtr C = randomCommand(Decls, R, O);
    for (Label Level : Lat.allLabels()) {
      // Premise: m1 ~ℓ m2 and E1 ~ℓ E2.
      Memory M1 = randomMemory(Decls, R);
      Memory M2 = M1;
      perturbMemoryAbove(M2, Level, Lat, R);
      auto E1 = Env->clone();
      E1->randomize(R);
      auto E2 = E1->clone();
      E2->perturbAbove(Level, R);
      PropertyReport Rep =
          checkSingleStepNI(Decls, *C, M1, M2, *E1, *E2, Level);
      EXPECT_TRUE(Rep.Holds)
          << Rep.Detail << " at level " << Lat.name(Level);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SecureDesigns, SecurityProperties,
                         ::testing::ValuesIn(securityCases()),
                         [](const auto &Info) {
                           return std::string(Info.param.Name);
                         });

//===----------------------------------------------------------------------===//
// The commodity design violates the security properties
//===----------------------------------------------------------------------===//

TEST(CommodityHardware, ViolatesProperty5) {
  // A high-write-label access on nopar hardware modifies the shared
  // (⊥-labeled) cache: the contract is broken, enabling the Sec. 2.1
  // indirect-dependency attack.
  Rng R(808);
  RandomProgramOptions O;
  Program Decls = declsOnly(lh(), R, O);
  auto Env = createMachineEnv(HwKind::NoPartition, lh(), MachineEnvConfig());

  ProgramBuilder B(lh());
  CmdPtr C = B.assign("v0", B.v("v1"), high(), high());
  Memory M = randomMemory(Decls, R);
  PropertyReport Rep = checkWriteLabel(Decls, *C, M, *Env);
  EXPECT_FALSE(Rep.Holds); // The violation is the finding.
}

TEST(CommodityHardware, ViolatesProperty6) {
  // With a cold vs warm shared cache (difference only in "high" state —
  // which nopar does not separate), a low-read-label access times
  // differently: the read label's guarantee fails.
  Rng R(909);
  RandomProgramOptions O;
  Program Decls = declsOnly(lh(), R, O);

  auto E1 = createMachineEnv(HwKind::NoPartition, lh(), MachineEnvConfig());
  auto E2 = E1->clone();
  // Warm v0's line in E2 via a high-context access. On partitioned
  // hardware this would land in the H partition and keep E1 ~L E2; on
  // nopar it lands in the single shared cache. To build the premise pair
  // we must compare against hardware where the state difference is
  // invisible at L — nopar cannot represent that, so we emulate the
  // adversary's setup directly and observe the timing difference.
  Memory M = Memory::fromProgram(Decls, CostModel().DataBase);
  E2->dataAccess(M.addrOf("v0"), false, high(), high());

  ProgramBuilder B(lh());
  CmdPtr C = B.assign("v1", B.v("v0"), low(), low());
  auto Run = [&](MachineEnv &Env) {
    auto EnvC = Env.clone();
    StepInterpreter S(Decls, C->clone(), M, *EnvC);
    S.step();
    return S.clock();
  };
  EXPECT_NE(Run(*E1), Run(*E2)); // Timing depends on "high" history.
}

//===----------------------------------------------------------------------===//
// Checker self-tests: premise violations are reported, not crashes
//===----------------------------------------------------------------------===//

TEST(PropertyCheckers, ReadLabelRejectsBadPremises) {
  Rng R(111);
  RandomProgramOptions O;
  Program Decls = declsOnly(lh(), R, O);
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), MachineEnvConfig());
  ProgramBuilder B(lh());
  CmdPtr C = B.assign("v0", B.v("v1"), low(), low());
  Memory M1 = Memory::fromProgram(Decls, CostModel().DataBase);
  Memory M2 = M1;
  M2.slot("v1").Data[0] = 999; // vars1 disagreement.
  PropertyReport Rep = checkReadLabel(Decls, *C, M1, M2, *Env, *Env);
  EXPECT_FALSE(Rep.Holds);
  EXPECT_NE(Rep.Detail.find("premise"), std::string::npos);
}

TEST(PropertyCheckers, SequentialCompositionWithMitigates) {
  // Property 3 must hold through predictive-mitigation bookkeeping too.
  Rng R(222);
  RandomProgramOptions O;
  Program Decls = declsOnly(lh(), R, O);
  Program P(lh());
  for (const VarDecl &D : Decls.vars())
    P.addVar(D);
  P.setBody(std::make_unique<SkipCmd>());
  P.number();

  ProgramBuilder B(lh());
  CmdPtr C1 = B.mitigate(B.lit(4), high(),
                         B.sleep(B.v("v0"), high(), high()), low(), low());
  CmdPtr C2 = B.assign("v1", B.lit(3), low(), low());
  Memory M = Memory::fromProgram(P, CostModel().DataBase);
  M.store("v0", 37);
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), MachineEnvConfig());
  PropertyReport Rep = checkSequentialComposition(P, *C1, *C2, M, *Env);
  EXPECT_TRUE(Rep.Holds) << Rep.Detail;
}

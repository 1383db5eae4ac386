//===- multilevel_test.cpp - Beyond two levels -------------------------------===//
//
// The paper's machinery is multilevel throughout (Sec. 6 emphasizes this
// over prior two-level work). These tests run the whole stack — hardware,
// semantics, typing, leakage — on the three-level chain L ⊑ M ⊑ H and on a
// powerset lattice with incomparable levels {A}, {B}.
//
//===----------------------------------------------------------------------===//

#include "analysis/Leakage.h"
#include "analysis/PropertyCheckers.h"
#include "hw/HardwareModels.h"
#include "lang/Parser.h"
#include "lang/ProgramBuilder.h"
#include "sem/CostModel.h"
#include "types/LabelInference.h"
#include "types/TypeChecker.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

using namespace zam;
using namespace zam::test;

namespace {
const PowersetLattice &ab() {
  static const PowersetLattice Lat({"A", "B"});
  return Lat;
}

Program wellTyped(const std::string &Source, const SecurityLattice &Lat) {
  Program P = parseOrDie(Source, Lat);
  inferTimingLabels(P);
  DiagnosticEngine Diags;
  EXPECT_TRUE(typeCheck(P, Diags)) << Diags.str();
  return P;
}
} // namespace

//===----------------------------------------------------------------------===//
// Powerset hardware behavior
//===----------------------------------------------------------------------===//

TEST(PowersetHardware, IncomparablePartitionsAreIsolated) {
  auto Env = createMachineEnv(HwKind::Partitioned, ab());
  Label A = ab().singleton(0);
  Label B = ab().singleton(1);
  constexpr Addr Target = 0x10000000;

  // Install in the {A} partition.
  Env->dataAccess(Target, false, A, A);
  auto After = Env->clone();

  // A {B}-labeled access cannot see it (incomparable): full miss.
  uint64_t Miss = Env->dataAccess(Target, false, B, B);
  MachineEnvConfig C;
  EXPECT_EQ(Miss, C.DTlb.Latency + C.L1D.Latency + C.L2D.Latency +
                      C.MemLatency);
  // And it cannot evict it either (B ⋢ A): the {A} projection is intact.
  EXPECT_TRUE(Env->projectionEquals(*After, A));
}

TEST(PowersetHardware, TopSearchesAllPartitions) {
  auto Env = createMachineEnv(HwKind::Partitioned, ab());
  Label A = ab().singleton(0);
  constexpr Addr Target = 0x10000000;
  Env->dataAccess(Target, false, A, A);
  // ⊤ ⊒ {A}: the joint level sees the cached line.
  EXPECT_EQ(Env->dataAccess(Target, false, ab().top(), ab().top()),
            MachineEnvConfig().L1D.Latency);
}

TEST(PowersetHardware, SecurityPropertiesHold) {
  auto Env = createMachineEnv(HwKind::Partitioned, ab());
  Program Decls(ab());
  VarDecl D;
  D.Name = "xa";
  D.SecLabel = ab().singleton(0);
  D.Init.push_back(3);
  Decls.addVar(D);
  VarDecl D2;
  D2.Name = "xb";
  D2.SecLabel = ab().singleton(1);
  D2.Init.push_back(4);
  Decls.addVar(D2);
  Decls.setBody(std::make_unique<SkipCmd>());
  Decls.number();

  ProgramBuilder B(ab());
  Label A = ab().singleton(0);
  CmdPtr C = B.assign("xa", B.add(B.v("xa"), B.lit(1)), A, A);
  Memory M = Memory::fromProgram(Decls, CostModel().DataBase);

  // Property 5: an {A}-write-labeled step must leave the {B} and {} (⊥)
  // projections untouched.
  PropertyReport Rep = checkWriteLabel(Decls, *C, M, *Env);
  EXPECT_TRUE(Rep.Holds) << Rep.Detail;

  // Property 7 at the incomparable level {B}.
  Rng R(3);
  auto E1 = Env->clone();
  E1->randomize(R);
  auto E2 = E1->clone();
  E2->perturbAbove(ab().singleton(1), R);
  PropertyReport NI = checkSingleStepNI(Decls, *C, M, M, *E1, *E2,
                                        ab().singleton(1));
  EXPECT_TRUE(NI.Holds) << NI.Detail;
}

//===----------------------------------------------------------------------===//
// Powerset typing and noninterference
//===----------------------------------------------------------------------===//

TEST(PowersetTyping, IncomparableFlowsRejected) {
  DiagnosticEngine Diags;
  std::optional<Program> P = parseProgram(
      "var a : {A};\nvar b : {B};\nvar t : {A,B};\n"
      "t := a + b;\n"
      "b := a",
      ab(), Diags);
  ASSERT_TRUE(P.has_value()) << Diags.str();
  inferTimingLabels(*P);
  EXPECT_FALSE(typeCheck(*P, Diags));
  EXPECT_NE(Diags.str().find("leaks"), std::string::npos);
}

TEST(PowersetTyping, MitigationLevelPerPrincipal) {
  // A mitigate at level {A} bounds {A}-timing but not {B}-timing.
  Program POk = wellTyped("var a : {A};\nvar out : {};\n"
                          "mitigate (4, {A}) { sleep(a) };\nout := 1",
                          ab());
  (void)POk;
  DiagnosticEngine Diags;
  std::optional<Program> PBad = parseProgram(
      "var b : {B};\nvar out : {};\n"
      "mitigate (4, {A}) { sleep(b) };\nout := 1",
      ab(), Diags);
  ASSERT_TRUE(PBad.has_value());
  inferTimingLabels(*PBad);
  EXPECT_FALSE(typeCheck(*PBad, Diags));
}

TEST(PowersetNoninterference, TheoremOneAtEachPrincipal) {
  // Each principal's timing is bounded by its own mitigate; a single
  // mitigate would make the second branch's start label {A,B}, which could
  // not flow back into b (the type system catches the cross-principal mix).
  Program P = wellTyped("var a : {A};\nvar b : {B};\nvar out : {};\n"
                        "out := 1;\n"
                        "mitigate (64, {A}) {\n"
                        "  if a then { a := a + 1 } else { skip }\n"
                        "};\n"
                        "mitigate (64, {B}) {\n"
                        "  if b then { b := b * 2 } else { skip }\n"
                        "}",
                        ab());
  auto Env = createMachineEnv(HwKind::Partitioned, ab());
  Memory M1 = Memory::fromProgram(P, CostModel().DataBase);
  M1.store("a", 1);
  M1.store("b", 1);

  // An observer at {A} must not learn about b.
  Memory M2 = M1;
  M2.store("b", 7);
  PropertyReport Rep =
      checkNoninterference(P, M1, M2, *Env, *Env, ab().singleton(0));
  EXPECT_TRUE(Rep.Holds) << Rep.Detail;

  // And vice versa.
  Memory M3 = M1;
  M3.store("a", 9);
  PropertyReport Rep2 =
      checkNoninterference(P, M1, M3, *Env, *Env, ab().singleton(1));
  EXPECT_TRUE(Rep2.Holds) << Rep2.Detail;
}

//===----------------------------------------------------------------------===//
// Per-principal leakage accounting (Definition 1's fine grain)
//===----------------------------------------------------------------------===//

TEST(PowersetLeakage, FlowsAreAccountedPerPrincipal) {
  Program P = wellTyped("var a : {A};\nvar b : {B};\nvar out : {};\n"
                        "mitigate (1, {A}) { sleep(a) };\n"
                        "out := 1",
                        ab());
  auto Env = createMachineEnv(HwKind::Partitioned, ab());

  // Varying b changes nothing the ⊥ adversary sees (it is never used in a
  // timing-relevant way).
  LeakageSpec SpecB;
  SpecB.SourceLevels = LabelSet(ab(), {ab().singleton(1)});
  SpecB.Adversary = ab().bottom();
  for (int64_t V : {0, 100, 999})
    SpecB.Variations.push_back(SecretAssignment{{{"b", V}}, {}});
  LeakageResult RB = measureLeakage(P, *Env, SpecB);
  EXPECT_EQ(RB.DistinctObservations, 1u);

  // Varying a leaks (boundedly) through the mitigate.
  LeakageSpec SpecA;
  SpecA.SourceLevels = LabelSet(ab(), {ab().singleton(0)});
  SpecA.Adversary = ab().bottom();
  for (int64_t V : {0, 100, 999, 5000})
    SpecA.Variations.push_back(SecretAssignment{{{"a", V}}, {}});
  LeakageResult RA = measureLeakage(P, *Env, SpecA);
  EXPECT_GT(RA.DistinctObservations, 1u);
  EXPECT_TRUE(RA.TheoremTwoHolds);
}

//===----------------------------------------------------------------------===//
// Five-level chain: inference and the full pipeline
//===----------------------------------------------------------------------===//

TEST(DeepChain, FullPipelineOnFiveLevels) {
  TotalOrderLattice Lat({"P0", "P1", "P2", "P3", "P4"});
  Program P = wellTyped("var s1 : P1;\nvar s3 : P3;\nvar out : P0;\n"
                        "out := 1;\n"
                        "mitigate (16, P3) {\n"
                        "  if s1 then { s3 := s3 + 1 } else { skip };\n"
                        "  sleep(s3)\n"
                        "}",
                        Lat);
  auto Env = createMachineEnv(HwKind::Partitioned, Lat);
  RunResult R = runFull(P, *Env);
  ASSERT_EQ(R.T.Mitigations.size(), 1u);
  EXPECT_EQ(R.T.Mitigations[0].Level, *Lat.byName("P3"));
  // Partition geometry: five partitions of the 128-set L1D.
  HardwareEnv Hw(HwKind::Partitioned, Lat, MachineEnvConfig());
  EXPECT_EQ(Hw.partitionConfig(MachineEnvConfig().L1D).NumSets, 128u / 5);
}

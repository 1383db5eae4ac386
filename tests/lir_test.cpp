//===- lir_test.cpp - The register-transfer tier -------------------------===//
//
// The LIR tier under the timing-IR: lowering invariants (verifyLir over
// random well-typed programs), stable printing, and the resume obligation
// of the execution core — single steps followed by run() observe exactly
// what one uninterrupted run does.
//
//===----------------------------------------------------------------------===//

#include "analysis/RandomProgram.h"
#include "hw/HardwareModels.h"
#include "ir/Lir.h"
#include "ir/Lowering.h"
#include "obs/CostLedger.h"
#include "sem/FullInterpreter.h"
#include "sem/StepInterpreter.h"
#include "types/LabelInference.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

using namespace zam;
using namespace zam::test;

namespace {

/// A loop with an array store and a secret-dependent sleep inside one
/// mitigate window, with work on both sides of it: resume points cover
/// every opcode, including the inside of an open window.
Program loopProgram() {
  Program P = parseOrDie("var h : H;\nvar x : L;\nvar y : L;\n"
                         "var a : L[4];\n"
                         "x := 6;\n"
                         "mitigate (32, H) {\n"
                         "  while x > 0 do {\n"
                         "    y := y + x; a[x] := y; x := x - 1\n"
                         "  };\n"
                         "  sleep(h + 20) @[H,H]\n"
                         "};\n"
                         "y := y + 1",
                         lh());
  inferTimingLabels(P);
  return P;
}

/// Observables of one run, for byte comparison across resume points.
struct Observed {
  Trace T;
  Memory M;
  std::string Ledger;
};

Observed runUninterrupted(const Program &P, HwKind Kind) {
  auto Env = createMachineEnv(Kind, P.lattice(), MachineEnvConfig());
  CostLedger Ledger;
  InterpreterOptions Opts;
  Opts.Provenance = &Ledger;
  RunResult R = runFull(P, *Env, Opts);
  EXPECT_FALSE(R.T.HitStepLimit);
  return {std::move(R.T), std::move(R.FinalMemory),
          Ledger.toJson().dump()};
}

void expectSameObservables(const Observed &A, const Observed &B,
                           const char *What) {
  EXPECT_EQ(A.T.FinalTime, B.T.FinalTime) << What;
  EXPECT_EQ(A.T.Steps, B.T.Steps) << What;
  EXPECT_EQ(A.T.FinalMissTable, B.T.FinalMissTable) << What;
  EXPECT_TRUE(A.M == B.M) << What;
  ASSERT_EQ(A.T.Events.size(), B.T.Events.size()) << What;
  for (size_t I = 0; I != A.T.Events.size(); ++I)
    EXPECT_TRUE(A.T.Events[I] == B.T.Events[I]) << What << " event " << I;
  ASSERT_EQ(A.T.Mitigations.size(), B.T.Mitigations.size()) << What;
  for (size_t I = 0; I != A.T.Mitigations.size(); ++I)
    EXPECT_TRUE(A.T.Mitigations[I] == B.T.Mitigations[I])
        << What << " mitigation " << I;
  EXPECT_EQ(A.Ledger, B.Ledger) << What;
}

} // namespace

TEST(Lir, LoweringPreservesShapeAndVerifies) {
  Program P = loopProgram();
  IrProgram IR = lowerProgram(P);
  LirProgram L = lowerToLir(IR);

  // 1:1 with the IR tier, micro-ops bounded.
  ASSERT_EQ(L.Insts.size(), IR.Instrs.size());
  EXPECT_EQ(L.IR, &IR);
  EXPECT_GE(L.NumRegs, 1u);
  std::string Err;
  EXPECT_TRUE(verifyLir(L, Err)) << Err;

  // Instruction kinds, successors and labels carry over unchanged.
  for (size_t I = 0; I != L.Insts.size(); ++I) {
    EXPECT_EQ(L.Insts[I].K, IR.Instrs[I].K) << "pc " << I;
    EXPECT_EQ(L.Insts[I].Next, IR.Instrs[I].Next) << "pc " << I;
  }
}

TEST(Lir, RandomProgramsLowerAndVerify) {
  Rng R(0x11F);
  unsigned Found = 0;
  for (unsigned Trial = 0; Trial != 200 && Found < 20; ++Trial) {
    RandomProgramOptions O;
    O.MaxDepth = 4;
    std::optional<Program> P = randomWellTypedProgram(lmh(), R, O);
    if (!P)
      continue;
    ++Found;
    IrProgram IR = lowerProgram(*P);
    LirProgram L = lowerToLir(IR);
    std::string Err;
    ASSERT_TRUE(verifyLir(L, Err)) << Err;
  }
  ASSERT_GE(Found, 10u);
}

TEST(Lir, PrintLirIsStable) {
  Program P = loopProgram();
  IrProgram IR = lowerProgram(P);
  LirProgram L = lowerToLir(IR);
  const std::string First = printLir(L, P.lattice());
  EXPECT_EQ(First.rfind("lir: ", 0), 0u);
  EXPECT_EQ(First, printLir(L, P.lattice())) << "rendering must be pure";
}

TEST(Lir, StepThenRunResumesExactly) {
  // run() picks up wherever single steps left the core — in the middle of
  // the loop body, on the back edge, or inside the open mitigate window —
  // and every observable matches one uninterrupted run.
  Program P = loopProgram();
  for (HwKind Kind : allHwKinds()) {
    const Observed Base = runUninterrupted(P, Kind);
    ASSERT_FALSE(Base.T.Mitigations.empty());
    for (uint64_t K = 0; K <= Base.T.Steps; ++K) {
      auto Env = createMachineEnv(Kind, P.lattice(), MachineEnvConfig());
      CostLedger Ledger;
      InterpreterOptions Opts;
      Opts.Provenance = &Ledger;
      StepInterpreter Step(P, *Env, Opts);
      for (uint64_t I = 0; I != K; ++I)
        Step.step();
      Trace T = Step.runToCompletion();
      const std::string What = "resume after " + std::to_string(K);
      expectSameObservables(
          Base, {std::move(T), Step.memory(), Ledger.toJson().dump()},
          What.c_str());
    }
  }
}

//===- lir_test.cpp - The lowered program's register micro-ops -----------===//
//
// The one program form: lowering invariants (verifyIr over random
// well-typed programs and every example), stable printing, and the resume
// obligation of the execution core — single steps followed by run()
// observe exactly what one uninterrupted run does.
//
//===----------------------------------------------------------------------===//

#include "analysis/RandomProgram.h"
#include "hw/HardwareModels.h"
#include "ir/IrPrinter.h"
#include "ir/Lowering.h"
#include "obs/CostLedger.h"
#include "sem/ExecCore.h"
#include "sem/FullInterpreter.h"
#include "sem/StepInterpreter.h"
#include "types/LabelInference.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

#include <filesystem>
#include <fstream>
#include <sstream>

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
    std::string Err;
    ASSERT_TRUE(verifyIr(IR, Err)) << Err;
  }
  ASSERT_GE(Found, 10u);
  unsigned Examples = 0;
  for (const auto &Entry :
       std::filesystem::directory_iterator(ZAM_EXAMPLES_DIR)) {
    if (Entry.path().extension() != ".zam")
      continue;
    ++Examples;
    std::ifstream In(Entry.path());
    std::stringstream Source;
    Source << In.rdbuf();
    Program P = parseOrDie(Source.str());
    inferTimingLabels(P);
    std::string Err;
    EXPECT_TRUE(verifyIr(lowerProgram(P), Err))
        << Entry.path().filename() << ": " << Err;
  }
  EXPECT_GE(Examples, 6u);
}

TEST(Lir, PrintLirIsStable) {
  Program P = loopProgram();
  IrProgram IR = lowerProgram(P);
  const std::string First = printIr(IR, P.lattice());
  EXPECT_EQ(First.rfind("ir: ", 0), 0u);
  EXPECT_EQ(First, printIr(IR, P.lattice())) << "rendering must be pure";
  // Each instruction line is followed by its micro-ops; the store's value
  // is evaluated above the index, in r1.
  EXPECT_NE(First.find("\n       u0   "), std::string::npos) << First;
  EXPECT_NE(First.find("-> r1"), std::string::npos) << First;
}

TEST(Lir, VerifierRejectsBrokenPrograms) {
  Program P = loopProgram();
  const IrProgram Good = lowerProgram(P);
  std::string Err;
  ASSERT_TRUE(verifyIr(Good, Err)) << Err;
  uint32_t Store = 0;
  while (Good.Instrs[Store].K != IrInstr::Op::ArrayAssign)
    ++Store;
  const std::pair<const char *, void (*)(IrProgram &, uint32_t)> Breaks[] = {
      {"successor", [](IrProgram &IR, uint32_t) {
         IR.Instrs[0].Next = static_cast<uint32_t>(IR.Instrs.size());
       }},
      {"span", [](IrProgram &IR, uint32_t S) {
         IR.Instrs[S].N1 = static_cast<uint32_t>(IR.Uops.size());
       }},
      {"register", [](IrProgram &IR, uint32_t S) {
         IR.Uops[IR.Instrs[S].U1].Dst = static_cast<uint16_t>(IR.NumRegs);
       }},
      {"second expression", [](IrProgram &IR, uint32_t S) {
         IR.Instrs[S - 1].U1 = IR.Instrs[S].U1;
         IR.Instrs[S - 1].N1 = 1;
       }},
  };
  for (const auto &[What, Break] : Breaks) {
    IrProgram Bad = Good;
    Break(Bad, Store);
    EXPECT_FALSE(verifyIr(Bad, Err)) << What;
  }
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

TEST(LirDeathTest, MitigateNestingAboveTheIrBoundIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The core sizes its mitigate frame stack by the IR's static nesting
  // bound. An IR that understates the bound must stop the run with a
  // diagnostic, in every build, instead of writing past the stack.
  Program P = loopProgram();
  IrProgram IR = lowerProgram(P);
  ASSERT_EQ(IR.MaxMitDepth, 1u);
  IR.MaxMitDepth = 0;
  auto Env = createMachineEnv(HwKind::Partitioned, P.lattice());
  EXPECT_DEATH(
      {
        ExecCore Core(IR, P,
                      Memory::fromProgram(P, CostModel().DataBase, IR.Names),
                      *Env, InterpreterOptions());
        Core.run();
      },
      "mitigate nesting above the IR's MaxMitDepth");
}

//===- lir_test.cpp - The lowered program's register micro-ops -----------===//
//
// The one program form: lowering invariants (verifyIr over random
// well-typed programs and every example, and a break for each check it
// makes), stable printing, the literal fold (every operator over edge
// values, and whole programs, run exactly as unfolded), and the resume
// obligation of the execution core — single steps followed by run()
// observe exactly what one uninterrupted run does.
//
//===----------------------------------------------------------------------===//

#include "analysis/RandomProgram.h"
#include "hw/HardwareModels.h"
#include "ir/IrPrinter.h"
#include "ir/Lowering.h"
#include "lang/ProgramBuilder.h"
#include "obs/CostLedger.h"
#include "sem/CoreInterpreter.h"
#include "sem/ExecCore.h"
#include "sem/FullInterpreter.h"
#include "types/LabelInference.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

using namespace zam;
using namespace zam::test;

namespace {

/// A loop with an array store and a secret-dependent sleep inside one
/// mitigate window, with work on both sides of it: resume points cover
/// every instruction opcode, including the inside of an open window, and
/// micro-ops of each kind (register and immediate forms, an element
/// read).
Program loopProgram() {
  Program P = parseOrDie("var h : H;\nvar x : L;\nvar y : L;\n"
                         "var a : L[4];\n"
                         "x := 6;\n"
                         "mitigate (32, H) {\n"
                         "  while x > 0 do {\n"
                         "    y := y + x; a[x] := y + a[x - 1]; x := x - 1\n"
                         "  };\n"
                         "  sleep(h + 20) @[H,H]\n"
                         "};\n"
                         "y := y + 1",
                         lh());
  inferTimingLabels(P);
  return P;
}

/// The first micro-op in \p IR's pool whose opcode satisfies \p Is.
IrUop &firstUop(IrProgram &IR, bool (*Is)(IrUop::K)) {
  return *std::find_if(IR.Uops.begin(), IR.Uops.end(),
                       [&](const IrUop &U) { return Is(U.Kind); });
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
  struct Break {
    const char *What;
    const char *Expect; ///< Part of the message of the check it fails.
    void (*Apply)(IrProgram &, uint32_t Store);
  };
  const Break Breaks[] = {
      {"successor", "successor",
       [](IrProgram &IR, uint32_t) {
         IR.Instrs[0].Next = static_cast<uint32_t>(IR.Instrs.size());
       }},
      {"span", "span", [](IrProgram &IR, uint32_t S) {
         IR.Instrs[S].N1 = static_cast<uint32_t>(IR.Uops.size());
       }},
      {"register", "register",
       [](IrProgram &IR, uint32_t S) {
         IR.Uops[IR.Instrs[S].U1].Dst = static_cast<uint16_t>(IR.NumRegs);
       }},
      {"second expression", "second expression",
       [](IrProgram &IR, uint32_t S) {
         IR.Instrs[S - 1].U1 = IR.Instrs[S].U1;
         IR.Instrs[S - 1].N1 = 1;
       }},
      {"opcode", "opcode",
       [](IrProgram &IR, uint32_t S) {
         IR.Uops[IR.Instrs[S].U0].Kind =
             static_cast<IrUop::K>(IrUop::kNumKinds);
       }},
      // Dst itself is in range; the right operand r[Dst+1] is not.
      {"second operand", "register",
       [](IrProgram &IR, uint32_t) {
         firstUop(IR, IrUop::isBinReg).Dst =
             static_cast<uint16_t>(IR.NumRegs - 1);
       }},
      {"load slot", "micro-op slot",
       [](IrProgram &IR, uint32_t) {
         firstUop(IR, [](IrUop::K K) { return K == IrUop::K::Var; }).Slot =
             static_cast<uint32_t>(IR.Slots.size());
       }},
      {"element slot", "micro-op slot",
       [](IrProgram &IR, uint32_t) {
         firstUop(IR, [](IrUop::K K) { return K == IrUop::K::Elem; }).Slot =
             static_cast<uint32_t>(IR.Slots.size());
       }},
      {"assign slot", "store slot",
       [](IrProgram &IR, uint32_t) {
         for (IrInstr &I : IR.Instrs)
           if (I.K == IrInstr::Op::Assign) {
             I.Slot = static_cast<uint32_t>(IR.Slots.size());
             return;
           }
       }},
      {"store slot", "store slot",
       [](IrProgram &IR, uint32_t S) {
         IR.Instrs[S].Slot = static_cast<uint32_t>(IR.Slots.size());
       }},
      {"element modulus", "modulus",
       [](IrProgram &IR, uint32_t) {
         firstUop(IR, [](IrUop::K K) { return K == IrUop::K::Elem; }).Mod += 1;
       }},
      {"store element count", "element count",
       [](IrProgram &IR, uint32_t S) {
         IR.Instrs[S].ElemCount += 1;
       }},
  };
  for (const Break &B : Breaks) {
    IrProgram Bad = Good;
    B.Apply(Bad, Store);
    Err.clear();
    EXPECT_FALSE(verifyIr(Bad, Err)) << B.What;
    EXPECT_NE(Err.find(B.Expect), std::string::npos)
        << B.What << " failed another check: " << Err;
  }
}

namespace {

/// \p IR with every immediate-form operator expanded back into the Const
/// micro-op lowering folded into it and the operator's register form.
IrProgram unfoldLiterals(const IrProgram &IR) {
  IrProgram Out = IR;
  Out.Uops.clear();
  auto Span = [&](uint32_t &U, uint32_t &N) {
    const uint32_t First = static_cast<uint32_t>(Out.Uops.size());
    for (uint32_t I = U; I != U + N; ++I) {
      IrUop Op = IR.Uops[I];
      if (IrUop::isBinImm(Op.Kind)) {
        IrUop Lit = Op;
        Lit.Kind = IrUop::K::Const;
        Lit.Dst = static_cast<uint16_t>(Op.Dst + 1);
        Out.Uops.push_back(Lit);
        Op.Kind = IrUop::binKind(IrUop::binOpOf(Op.Kind), /*Imm=*/false);
        Out.NumRegs = std::max<uint32_t>(Out.NumRegs, Op.Dst + 2u);
      }
      Out.Uops.push_back(Op);
    }
    U = First;
    N = static_cast<uint32_t>(Out.Uops.size()) - First;
  };
  for (IrInstr &I : Out.Instrs) {
    Span(I.U0, I.N0);
    Span(I.U1, I.N1);
  }
  return Out;
}

size_t countImm(const IrProgram &IR) {
  return std::count_if(IR.Uops.begin(), IR.Uops.end(), [](const IrUop &U) {
    return IrUop::isBinImm(U.Kind);
  });
}

/// Everything one run of the core shows.
struct CoreRun {
  Trace T;
  Memory M;
  std::string Ledger;
  HwStats Hw;
};

/// Runs \p IR, lowered from \p P, through the execution core on a fresh
/// \p Kind machine of geometry \p Config, with the ledger and miss
/// sampling attached.
CoreRun runIr(const IrProgram &IR, const Program &P, HwKind Kind,
              const MachineEnvConfig &Config = MachineEnvConfig()) {
  auto Env = createMachineEnv(Kind, P.lattice(), Config);
  CostLedger Ledger;
  InterpreterOptions Opts;
  Opts.Provenance = &Ledger;
  Opts.RecordMisses = true;
  CoreRun R;
  {
    ExecCore Core(IR, P,
                  Memory::fromProgram(P, CostModel().DataBase, IR.Names),
                  *Env, std::move(Opts));
    Env->setObserver(&Core);
    Core.run();
    Env->setObserver(nullptr);
    R.T = Core.trace();
    R.M = Core.memory();
  }
  R.Ledger = Ledger.toJson().dump();
  R.Hw = Env->stats();
  return R;
}

void expectSameRun(const CoreRun &A, const CoreRun &B) {
  expectSameObservables({A.T, A.M, A.Ledger}, {B.T, B.M, B.Ledger},
                        "unfolded");
  EXPECT_TRUE(A.T.Misses == B.T.Misses);
  EXPECT_TRUE(A.Hw == B.Hw);
}

/// x := A, y := B, and the body r := E for the \p Expr \p E makes.
template <typename Fn> Program opProgram(int64_t A, int64_t B, Fn &&E) {
  ProgramBuilder PB(lh());
  PB.var("x", low(), A).var("y", low(), B).var("r", low());
  PB.body(PB.assign("r", E(PB)));
  Program P = PB.take();
  inferTimingLabels(P);
  return P;
}

std::vector<IrUop::K> kindsOf(const IrProgram &IR) {
  std::vector<IrUop::K> Out;
  for (const IrUop &U : IR.Uops)
    Out.push_back(U.Kind);
  return Out;
}

} // namespace

// Every operator over an edge-value grid, with the left operand from a
// variable and the right one from a variable (register form) and from a
// literal (immediate form): the value is the operator's, on the full and
// the core semantics, and the folded literal costs exactly what the Const
// it replaced and the register form did. A literal on the left stays a
// Const.
TEST(Lir, EveryOperatorFoldsExactly) {
  const int64_t Grid[] = {0,
                          1,
                          -1,
                          63,
                          64,
                          65,
                          std::numeric_limits<int64_t>::min(),
                          std::numeric_limits<int64_t>::max(),
                          -7}; // A negative divisor that is not -1.
  using K = IrUop::K;
  auto Value = [](const Program &P) {
    auto Env = createMachineEnv(HwKind::Partitioned, P.lattice());
    RunResult R = FullInterpreter(P, *Env).run();
    EXPECT_EQ(runCore(P).FinalMemory.load("r"), R.FinalMemory.load("r"));
    return std::make_pair(R.FinalMemory.load("r"), R.T.FinalTime);
  };
  unsigned Checked = 0;
  for (unsigned O = 0; O <= static_cast<unsigned>(BinOpKind::Shr); ++O) {
    const auto Op = static_cast<BinOpKind>(O);
    const K Reg = IrUop::binKind(Op, false), Imm = IrUop::binKind(Op, true);
    for (int64_t A : Grid)
      for (int64_t B : Grid) {
        SCOPED_TRACE(std::string(binOpSpelling(Op)) + " " +
                     std::to_string(A) + " " + std::to_string(B));
        const int64_t Want = applyBinOp(Op, A, B);

        const Program PReg = opProgram(A, B, [&](ProgramBuilder &PB) {
          return PB.bin(Op, PB.v("x"), PB.v("y"));
        });
        EXPECT_EQ(kindsOf(lowerProgram(PReg)),
                  (std::vector<K>{K::Var, K::Var, Reg}));
        EXPECT_EQ(Value(PReg).first, Want);

        const Program PImm = opProgram(A, B, [&](ProgramBuilder &PB) {
          return PB.bin(Op, PB.v("x"), PB.lit(B));
        });
        const IrProgram Folded = lowerProgram(PImm);
        ASSERT_EQ(kindsOf(Folded), (std::vector<K>{K::Var, Imm}));
        EXPECT_EQ(Folded.Uops[1].Imm, B);
        const auto [V, Time] = Value(PImm);
        EXPECT_EQ(V, Want);
        const CoreRun Unfolded =
            runIr(unfoldLiterals(Folded), PImm, HwKind::Partitioned);
        EXPECT_EQ(Unfolded.M.load("r"), Want);
        EXPECT_EQ(Unfolded.T.FinalTime, Time);

        const Program PLeft = opProgram(A, B, [&](ProgramBuilder &PB) {
          return PB.bin(Op, PB.lit(A), PB.v("y"));
        });
        EXPECT_EQ(kindsOf(lowerProgram(PLeft)),
                  (std::vector<K>{K::Const, K::Var, Reg}));
        EXPECT_EQ(Value(PLeft).first, Want);
        ++Checked;
      }
  }
  for (unsigned O = 0; O <= static_cast<unsigned>(UnOpKind::BitNot); ++O) {
    const auto Op = static_cast<UnOpKind>(O);
    for (int64_t A : Grid) {
      SCOPED_TRACE(std::string(unOpSpelling(Op)) + " " + std::to_string(A));
      const Program P = opProgram(A, 0, [&](ProgramBuilder &PB) {
        return PB.un(Op, PB.v("x"));
      });
      EXPECT_EQ(kindsOf(lowerProgram(P)),
                (std::vector<K>{K::Var, IrUop::unKind(Op)}));
      EXPECT_EQ(Value(P).first, applyUnOp(Op, A));
      ++Checked;
    }
  }
  EXPECT_EQ(Checked, 18u * 81u + 3u * 9u);
}

// Whole programs: the folded IR runs exactly as its unfolded twin — same
// clock, events, windows, memory, misses, hardware counters and ledger —
// on every design, on Table 1's caches and on the two-set geometry.
TEST(Lir, FoldedProgramsRunAsUnfolded) {
  std::vector<Program> Programs;
  Programs.push_back(loopProgram());
  for (const auto &Entry :
       std::filesystem::directory_iterator(ZAM_EXAMPLES_DIR)) {
    if (Entry.path().extension() != ".zam")
      continue;
    std::ifstream In(Entry.path());
    std::stringstream Source;
    Source << In.rdbuf();
    Programs.push_back(parseOrDie(Source.str()));
    inferTimingLabels(Programs.back());
  }
  Rng R(0xF01D);
  for (unsigned Trial = 0; Trial != 100 && Programs.size() < 30; ++Trial) {
    RandomProgramOptions O;
    O.MaxDepth = 3;
    if (std::optional<Program> P = randomWellTypedProgram(lh(), R, O))
      Programs.push_back(std::move(*P));
  }
  size_t Folds = 0;
  for (size_t I = 0; I != Programs.size(); ++I) {
    const Program &P = Programs[I];
    const IrProgram Folded = lowerProgram(P);
    const IrProgram Unfolded = unfoldLiterals(Folded);
    std::string Err;
    ASSERT_TRUE(verifyIr(Unfolded, Err)) << Err;
    Folds += countImm(Folded);
    EXPECT_EQ(countImm(Unfolded), 0u);
    for (HwKind Kind : allHwKinds())
      for (const MachineEnvConfig &Config :
           {MachineEnvConfig(), twoSetTwoWayConfig()}) {
        SCOPED_TRACE("program " + std::to_string(I) + " on " +
                     hwKindName(Kind));
        expectSameRun(runIr(Folded, P, Kind, Config),
                      runIr(Unfolded, P, Kind, Config));
      }
  }
  EXPECT_GE(Programs.size(), 20u);
  EXPECT_GT(Folds, 20u) << "too few folded literals to compare";
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
      FullInterpreter Step(P, *Env, Opts);
      for (uint64_t I = 0; I != K; ++I)
        Step.step();
      const Trace &T = Step.complete();
      const std::string What = "resume after " + std::to_string(K);
      expectSameObservables(Base, {T, Step.memory(), Ledger.toJson().dump()},
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

//===- eval_test.cpp - Expression evaluation and static labels -------------===//

#include "sem/Eval.h"
#include "lang/StaticLabels.h"

#include "hw/HardwareModels.h"
#include "lang/Parser.h"
#include "lang/ProgramBuilder.h"
#include "sem/CompiledProgram.h"
#include "sem/FullInterpreter.h"
#include "support/Casting.h"
#include "types/LabelInference.h"
#include "TestUtil.h"
#include "gtest/gtest.h"

#include <limits>

using namespace zam;
using namespace zam::test;

//===----------------------------------------------------------------------===//
// Operator semantics (total, deterministic, no UB)
//===----------------------------------------------------------------------===//

TEST(ApplyBinOp, Arithmetic) {
  EXPECT_EQ(applyBinOp(BinOpKind::Add, 2, 3), 5);
  EXPECT_EQ(applyBinOp(BinOpKind::Sub, 2, 3), -1);
  EXPECT_EQ(applyBinOp(BinOpKind::Mul, -4, 3), -12);
  EXPECT_EQ(applyBinOp(BinOpKind::Div, 7, 2), 3);
  EXPECT_EQ(applyBinOp(BinOpKind::Mod, 7, 2), 1);
}

TEST(ApplyBinOp, DivisionByZeroYieldsZero) {
  EXPECT_EQ(applyBinOp(BinOpKind::Div, 5, 0), 0);
  EXPECT_EQ(applyBinOp(BinOpKind::Mod, 5, 0), 0);
}

TEST(ApplyBinOp, Int64MinOverflowCases) {
  int64_t Min = std::numeric_limits<int64_t>::min();
  EXPECT_EQ(applyBinOp(BinOpKind::Div, Min, -1), Min); // Wraps, no trap.
  EXPECT_EQ(applyBinOp(BinOpKind::Mod, Min, -1), 0);
}

TEST(ApplyBinOp, AdditionWrapsModulo2To64) {
  int64_t Max = std::numeric_limits<int64_t>::max();
  EXPECT_EQ(applyBinOp(BinOpKind::Add, Max, 1),
            std::numeric_limits<int64_t>::min());
}

TEST(ApplyBinOp, ShiftsMaskTheCount) {
  EXPECT_EQ(applyBinOp(BinOpKind::Shl, 1, 64), 1);  // 64 & 63 == 0.
  EXPECT_EQ(applyBinOp(BinOpKind::Shl, 1, 65), 2);  // 65 & 63 == 1.
  EXPECT_EQ(applyBinOp(BinOpKind::Shr, -1, 1),
            std::numeric_limits<int64_t>::max()); // Logical shift.
}

TEST(ApplyBinOp, ComparisonsAndLogic) {
  EXPECT_EQ(applyBinOp(BinOpKind::Lt, 1, 2), 1);
  EXPECT_EQ(applyBinOp(BinOpKind::Ge, 1, 2), 0);
  EXPECT_EQ(applyBinOp(BinOpKind::LogicalAnd, 5, 0), 0);
  EXPECT_EQ(applyBinOp(BinOpKind::LogicalAnd, 5, -1), 1);
  EXPECT_EQ(applyBinOp(BinOpKind::LogicalOr, 0, 0), 0);
  EXPECT_EQ(applyBinOp(BinOpKind::BitXor, 0b1100, 0b1010), 0b0110);
}

TEST(ApplyUnOp, AllOperators) {
  EXPECT_EQ(applyUnOp(UnOpKind::Neg, 5), -5);
  EXPECT_EQ(applyUnOp(UnOpKind::Neg, std::numeric_limits<int64_t>::min()),
            std::numeric_limits<int64_t>::min());
  EXPECT_EQ(applyUnOp(UnOpKind::LogicalNot, 0), 1);
  EXPECT_EQ(applyUnOp(UnOpKind::LogicalNot, 7), 0);
  EXPECT_EQ(applyUnOp(UnOpKind::BitNot, 0), -1);
}

//===----------------------------------------------------------------------===//
// Pure evaluation
//===----------------------------------------------------------------------===//

namespace {
Program exprProgram() {
  ProgramBuilder B(lh());
  B.var("x", low(), 10);
  B.var("h", high(), 3);
  B.array("a", low(), 4, {10, 20, 30, 40});
  B.body(B.skip());
  return B.take();
}
} // namespace

TEST(EvalPure, VariablesAndArrays) {
  Program P = exprProgram();
  Memory M = Memory::fromProgram(P);
  ProgramBuilder B(lh());
  EXPECT_EQ(evalExprPure(*B.v("x"), M), 10);
  EXPECT_EQ(evalExprPure(*B.idx("a", B.lit(2)), M), 30);
  EXPECT_EQ(evalExprPure(*B.idx("a", B.lit(6)), M), 30); // Wraps.
  EXPECT_EQ(evalExprPure(*B.add(B.v("x"), B.mul(B.v("h"), B.lit(4))), M), 22);
}

TEST(EvalPure, NoShortCircuit) {
  // Logical operators evaluate both sides: timing must not depend on
  // operand values beyond vars1.
  Program P = exprProgram();
  Memory M = Memory::fromProgram(P);
  ProgramBuilder B(lh());
  // 0 && (a[h] read) — the array read still happens; with a wrapping index
  // this is observable only through timing, which is the point.
  EXPECT_EQ(evalExprPure(
                *B.land(B.lit(0), B.idx("a", B.v("h"))), M),
            0);
}

//===----------------------------------------------------------------------===//
// Timed evaluation (through the execution engine)
//===----------------------------------------------------------------------===//

namespace {
/// exprProgram's declarations plus a high target t, with the body t := E.
Program assignProgram(const std::string &E) {
  Program P = parseOrDie("var x : L = 10;\nvar h : H = 3;\n"
                         "var a : L[4] = {10, 20, 30, 40};\nvar t : H;\n"
                         "t := " +
                         E);
  inferTimingLabels(P);
  return P;
}

/// The cycles of the one step t := E — first on a cold environment, then
/// again on the same, now warm, one — and the value it stored.
struct AssignRun {
  uint64_t Cold = 0;
  uint64_t Warm = 0;
  int64_t Value = 0;
};

AssignRun runAssign(const std::string &E, HwKind Kind = HwKind::NoPartition) {
  Program P = assignProgram(E);
  const CompiledProgram C(P);
  auto Env = createMachineEnv(Kind, lh(), MachineEnvConfig());
  AssignRun Run;
  Run.Cold = FullInterpreter(C, *Env).run().T.FinalTime;
  RunResult Warm = FullInterpreter(C, *Env).run();
  EXPECT_EQ(Warm.T.Steps, 1u);
  Run.Warm = Warm.T.FinalTime;
  Run.Value = Warm.FinalMemory.load("t");
  return Run;
}
} // namespace

TEST(EvalTimed, ChargesAluAndMemoryCosts) {
  const MachineEnvConfig Hw;
  const CostModel Costs;

  // Literal: free, so the step pays only its base, fetch and store.
  const AssignRun Lit = runAssign("5");
  EXPECT_EQ(Lit.Warm, Costs.BaseStep + Hw.L1I.Latency + Hw.L1D.Latency);

  // Variable: one data access — a miss when cold, an L1 hit when warm.
  const AssignRun X = runAssign("x");
  EXPECT_GT(X.Cold - Lit.Cold, Hw.L1D.Latency);
  EXPECT_EQ(X.Warm - Lit.Warm, Hw.L1D.Latency);

  // x + x (both warm): two hits + one ALU op.
  EXPECT_EQ(runAssign("x + x").Warm - Lit.Warm,
            2 * Hw.L1D.Latency + Costs.AluOp);

  // a[1] (warm): one hit + the address computation.
  EXPECT_EQ(runAssign("a[1]").Warm - Lit.Warm, Hw.L1D.Latency + Costs.AluOp);
}

TEST(EvalTimed, AgreesWithPureOnValues) {
  const std::string Text = "(x + a[1]) * 3 - (a[x] & h)";
  DiagnosticEngine Diags;
  Parser Pr(Text, lh(), Diags);
  ExprPtr E = Pr.parseExprOnly();
  ASSERT_TRUE(E) << Diags.str();
  EXPECT_EQ(runAssign(Text, HwKind::Partitioned).Value,
            evalExprPure(*E, Memory::fromProgram(assignProgram(Text))));
}

//===----------------------------------------------------------------------===//
// Static expression labels
//===----------------------------------------------------------------------===//

TEST(StaticLabels, ExpressionLabels) {
  Program P = exprProgram();
  ProgramBuilder B(lh());
  EXPECT_EQ(exprLabel(*B.lit(1), P), low());
  EXPECT_EQ(exprLabel(*B.v("x"), P), low());
  EXPECT_EQ(exprLabel(*B.v("h"), P), high());
  EXPECT_EQ(exprLabel(*B.add(B.v("x"), B.v("h")), P), high());
  // Array read joins the element label with the index label.
  EXPECT_EQ(exprLabel(*B.idx("a", B.lit(0)), P), low());
  EXPECT_EQ(exprLabel(*B.idx("a", B.v("h")), P), high());
}

TEST(StaticLabels, PcLabels) {
  Program P = parseOrDie("var h : H;\nvar l : L;\n"
                         "l := 1;\n"
                         "if h then { h := 2 } else { skip };\n"
                         "while l do { l := 0 };\n"
                         "mitigate (1, H) { h := 3 }");
  auto Pc = computePcLabels(P);
  // Walk the body to find specific nodes.
  const auto &S1 = cast<SeqCmd>(P.body());
  const auto &Assign = S1.first(); // l := 1 at pc L.
  EXPECT_EQ(Pc.at(Assign.nodeId()), low());
  const auto &S2 = cast<SeqCmd>(S1.second());
  const auto &If = cast<IfCmd>(S2.first());
  EXPECT_EQ(Pc.at(If.nodeId()), low());
  EXPECT_EQ(Pc.at(If.thenCmd().nodeId()), high()); // High guard.
  const auto &S3 = cast<SeqCmd>(S2.second());
  const auto &While = cast<WhileCmd>(S3.first());
  EXPECT_EQ(Pc.at(While.body().nodeId()), low()); // Low guard.
  const auto &Mit = cast<MitigateCmd>(S3.second());
  // Mitigate does not raise pc (T-MTG types the body under the same pc).
  EXPECT_EQ(Pc.at(Mit.body().nodeId()), low());
}

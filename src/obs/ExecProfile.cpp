//===- ExecProfile.cpp - ExecCore self-profiler ---------------------------===//

#include "obs/ExecProfile.h"

#include "ir/IrPrinter.h"
#include "obs/Metrics.h"
#include "support/Diagnostics.h"

#include <algorithm>
#include <map>

using namespace zam;

void ExecProfile::onProgram(const IrProgram &IR) {
  if (Pcs.empty()) {
    Pcs.resize(IR.Instrs.size());
    HaltIndex = IR.haltIndex();
    for (uint32_t I = 0; I != IR.Instrs.size(); ++I) {
      const IrInstr &In = IR.Instrs[I];
      Pcs[I].K = In.K;
      Pcs[I].Line = In.Loc.Line;
      Pcs[I].Eta = In.Eta;
      if (In.K == IrInstr::Op::MitEnter &&
          std::none_of(Sites.begin(), Sites.end(), [&](const SiteStat &S) {
            return S.Eta == In.Eta;
          }))
        Sites.push_back({In.Eta, LogLinearHistogram()});
    }
    std::sort(Sites.begin(), Sites.end(),
              [](const SiteStat &A, const SiteStat &B) {
                return A.Eta < B.Eta;
              });
  } else if (Pcs.size() != IR.Instrs.size()) {
    reportFatalError("ExecProfile reattached to a different program");
  }
  ++Runs;
  // A new run has no predecessor instruction: the digram chain restarts.
  PrevValid = false;
}

void ExecProfile::onDispatch(uint32_t Pc) {
  PcStat &S = Pcs[Pc];
  ++S.Count;
  const unsigned Op = static_cast<unsigned>(S.K);
  ++OpCounts[Op];
  if (PrevValid)
    ++Digrams[static_cast<unsigned>(PrevOp)][Op];
  else
    ++Heads;
  PrevValid = true;
  PrevOp = S.K;
  ++Dispatches;
  if (--WallCountdown == 0) {
    sampleWall();
    WallCountdown = WallEpoch;
  }
}

void ExecProfile::onBranch(uint32_t Pc, bool Taken) {
  if (Taken)
    ++Pcs[Pc].Taken;
  else
    ++Pcs[Pc].NotTaken;
}

void ExecProfile::onSettle(unsigned Eta, unsigned Epochs) {
  for (SiteStat &S : Sites)
    if (S.Eta == Eta) {
      S.SettleEpochs.add(Epochs);
      return;
    }
  reportFatalError("ExecProfile: settle at unknown mitigate site");
}

void ExecProfile::sampleWall() {
  const auto Now = std::chrono::steady_clock::now();
  if (WallArmed) {
    ++Wall.Epochs;
    Wall.SampledDispatches += WallEpoch;
    Wall.ElapsedNs += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Now - WallStart)
            .count());
  }
  WallStart = Now;
  WallArmed = true;
}

uint64_t ExecProfile::branchTaken() const {
  uint64_t N = 0;
  for (const PcStat &S : Pcs)
    N += S.Taken;
  return N;
}

uint64_t ExecProfile::branchNotTaken() const {
  uint64_t N = 0;
  for (const PcStat &S : Pcs)
    N += S.NotTaken;
  return N;
}

std::vector<ExecProfile::DigramRank> ExecProfile::rankedDigrams() const {
  std::vector<DigramRank> Ranked;
  for (unsigned A = 0; A != kNumOps; ++A)
    for (unsigned B = 0; B != kNumOps; ++B)
      if (Digrams[A][B])
        Ranked.push_back({static_cast<IrInstr::Op>(A),
                          static_cast<IrInstr::Op>(B), Digrams[A][B]});
  std::stable_sort(Ranked.begin(), Ranked.end(),
                   [](const DigramRank &X, const DigramRank &Y) {
                     return X.Count > Y.Count;
                   });
  return Ranked;
}

bool ExecProfile::selfCheck(std::string &Err) const {
  auto Fail = [&](const std::string &What) {
    Err = "exec profile conservation violated: " + What;
    return false;
  };
  uint64_t PcSum = 0;
  for (const PcStat &S : Pcs)
    PcSum += S.Count;
  if (PcSum != Dispatches)
    return Fail("per-pc counts sum to " + std::to_string(PcSum) + ", not " +
                std::to_string(Dispatches) + " dispatches");
  uint64_t OpSum = 0;
  for (unsigned I = 0; I != kNumOps; ++I)
    OpSum += OpCounts[I];
  if (OpSum != Dispatches)
    return Fail("per-opcode counts sum to " + std::to_string(OpSum) +
                ", not " + std::to_string(Dispatches) + " dispatches");
  if (opCount(IrInstr::Op::Halt) != 0)
    return Fail("Halt was dispatched");
  if (!Pcs.empty() && Pcs[HaltIndex].Count != 0)
    return Fail("the halt pc has a non-zero count");
  uint64_t DigramSum = 0;
  for (unsigned A = 0; A != kNumOps; ++A)
    for (unsigned B = 0; B != kNumOps; ++B)
      DigramSum += Digrams[A][B];
  if (DigramSum + Heads != Dispatches)
    return Fail("digrams (" + std::to_string(DigramSum) + ") + run heads (" +
                std::to_string(Heads) + ") != dispatches (" +
                std::to_string(Dispatches) + ")");
  if (branchTaken() + branchNotTaken() != opCount(IrInstr::Op::Branch))
    return Fail("taken + not-taken != Branch dispatches");
  uint64_t Settles = 0;
  for (const SiteStat &S : Sites)
    Settles += S.SettleEpochs.total();
  if (Settles != opCount(IrInstr::Op::MitEnd))
    return Fail("settle-histogram totals (" + std::to_string(Settles) +
                ") != MitEnd dispatches (" +
                std::to_string(opCount(IrInstr::Op::MitEnd)) + ")");
  return true;
}

void ExecProfile::merge(const ExecProfile &Other) {
  if (Pcs.empty()) {
    Pcs = Other.Pcs;
    HaltIndex = Other.HaltIndex;
    Sites = Other.Sites;
  } else {
    if (Pcs.size() != Other.Pcs.size() || Sites.size() != Other.Sites.size())
      reportFatalError("ExecProfile::merge: profiles of different programs");
    for (size_t I = 0; I != Pcs.size(); ++I) {
      Pcs[I].Count += Other.Pcs[I].Count;
      Pcs[I].Taken += Other.Pcs[I].Taken;
      Pcs[I].NotTaken += Other.Pcs[I].NotTaken;
    }
    for (size_t I = 0; I != Sites.size(); ++I)
      Sites[I].SettleEpochs.merge(Other.Sites[I].SettleEpochs);
  }
  Runs += Other.Runs;
  Heads += Other.Heads;
  Dispatches += Other.Dispatches;
  for (unsigned A = 0; A != kNumOps; ++A) {
    OpCounts[A] += Other.OpCounts[A];
    for (unsigned B = 0; B != kNumOps; ++B)
      Digrams[A][B] += Other.Digrams[A][B];
  }
  Wall.Epochs += Other.Wall.Epochs;
  Wall.SampledDispatches += Other.Wall.SampledDispatches;
  Wall.ElapsedNs += Other.Wall.ElapsedNs;
}

void ExecProfile::exportMetrics(MetricsRegistry &Reg) const {
  Reg.setCounter("exec.runs", Runs);
  Reg.setCounter("exec.dispatches", Dispatches);
  Reg.setCounter("exec.heads", Heads);
  uint64_t DigramSum = 0;
  for (unsigned A = 0; A != kNumOps; ++A)
    for (unsigned B = 0; B != kNumOps; ++B)
      DigramSum += Digrams[A][B];
  Reg.setCounter("exec.digrams", DigramSum);
  for (unsigned I = 0; I != kNumOps; ++I)
    Reg.setCounter(std::string("exec.op.") +
                       irOpName(static_cast<IrInstr::Op>(I)),
                   OpCounts[I]);
  Reg.setCounter("exec.branch.taken", branchTaken());
  Reg.setCounter("exec.branch.not_taken", branchNotTaken());
  for (unsigned A = 0; A != kNumOps; ++A)
    for (unsigned B = 0; B != kNumOps; ++B)
      if (Digrams[A][B])
        Reg.setCounter(std::string("exec.digram.") +
                           irOpName(static_cast<IrInstr::Op>(A)) + "_" +
                           irOpName(static_cast<IrInstr::Op>(B)),
                       Digrams[A][B]);
  for (uint32_t I = 0; I != Pcs.size(); ++I) {
    const std::string Key = "exec.pc." + std::to_string(I);
    Reg.setCounter(Key, Pcs[I].Count);
    if (Pcs[I].K == IrInstr::Op::Branch) {
      Reg.setCounter(Key + ".taken", Pcs[I].Taken);
      Reg.setCounter(Key + ".not_taken", Pcs[I].NotTaken);
    }
  }
  Reg.setCounter("exec.sites", Sites.size());
  for (const SiteStat &S : Sites)
    S.SettleEpochs.exportMetrics(Reg, "settle_epochs",
                                 "exec.site.m" + std::to_string(S.Eta) + ".");
}

std::string ExecProfile::foldedStacks(const std::string &Root) const {
  // (line, opcode) -> dispatches; std::map gives the deterministic order.
  std::map<std::pair<uint32_t, unsigned>, uint64_t> Folded;
  for (const PcStat &S : Pcs)
    if (S.Count)
      Folded[{S.Line, static_cast<unsigned>(S.K)}] += S.Count;
  std::string Out;
  for (const auto &[Key, Count] : Folded) {
    Out += Root + ";line " +
           (Key.first ? std::to_string(Key.first) : std::string("?")) + ";" +
           irOpName(static_cast<IrInstr::Op>(Key.second)) + " " +
           std::to_string(Count) + "\n";
  }
  return Out;
}

//===- ExecCore.cpp - The shared LIR execution core -----------------------===//

#include "sem/ExecCore.h"

#include "support/Diagnostics.h"

using namespace zam;

ExecCore::ExecCore(const LirProgram &L, const Program &P, Memory InitM,
                   MachineEnv &Env, const InterpreterOptions &Opts)
    : P(P), Env(Env), Opts(Opts), Probe(this->Opts.Probe),
      Prov(this->Opts.Provenance), BaseStepCost(this->Opts.Costs.BaseStep),
      AluCost(this->Opts.Costs.AluOp), StepLimit(this->Opts.StepLimit),
      M(std::move(InitM)),
      OwnMitState(P.lattice(), this->Opts.Mitigation.base(), Opts.Penalty),
      MitState(Opts.SharedMitState ? *Opts.SharedMitState : OwnMitState),
      Code(L.Insts.data()), Uops(L.Uops.data()),
      TrackCursor(Opts.RecordMisses || Opts.Provenance != nullptr) {
  T.Names = M.slotNames();
  Regs.resize(L.NumRegs ? L.NumRegs : 1);
  SlotData.resize(M.slotCount());
  for (size_t I = 0; I != SlotData.size(); ++I)
    SlotData[I] = M.slotAt(I).Data.data();
  if (L.IR) {
    Frames.reserve(L.IR->MaxMitDepth);
    if (Probe)
      Probe->onProgram(*L.IR);
  }
  if (Code[PC].K == IrInstr::Op::Halt) {
    Halted = true;
    finalize();
  }
}

void ExecCore::onAccess(const HwAccess &Access) {
  if (Prov)
    Prov->chargeAccess(Cur, Access);
  if (!Opts.RecordMisses || (!Access.TlbMiss && !Access.L1Miss))
    return;
  AccessSample S;
  S.A = Access.A;
  S.Time = G; // Clock at the start of the enclosing step.
  S.Cycles = Access.Cycles;
  S.IsData = Access.IsData;
  S.IsStore = Access.IsStore;
  S.TlbMiss = Access.TlbMiss;
  S.L1Miss = Access.L1Miss;
  S.L2Miss = Access.L2Miss;
  S.Line = Cur.Loc.Line;
  T.Misses.push_back(S);
}

void ExecCore::record(uint32_t Slot, Label VarLabel, bool IsArray,
                      uint64_t Index, int64_t Value) {
  // 32 plain bytes per event: the name stays in T.Names. A run that
  // records one event (an attack sample) allocates one slot; a longer run
  // jumps straight to 512 instead of regrowing eight times through the
  // small sizes, which a few-hundred-event login attempt would pay.
  if (T.Events.size() == T.Events.capacity() && !T.Events.empty() &&
      T.Events.size() < 512)
    T.Events.reserve(512);
  AssignEvent &E = T.Events.emplace_back();
  E.Slot = Slot;
  E.IsArrayStore = IsArray;
  E.VarLabel = VarLabel;
  E.ElemIndex = Index;
  E.Value = Value;
  E.Time = G;
}

int64_t ExecCore::evalSpan(const LirInst &I, uint32_t U, uint32_t N,
                           uint64_t &Cycles) {
  int64_t *R = Regs.data();
  const LirUop *Op = Uops + U;
  const LirUop *const End = Op + N;
  uint16_t Result = 0;
  for (; Op != End; ++Op) {
    switch (Op->Kind) {
    case LirUop::K::Const: // Immediate operand: free.
      R[Op->Dst] = Op->Imm;
      break;
    case LirUop::K::Var:
      if (TrackCursor)
        Cur.Loc = Op->Loc;
      Cycles += Env.dataAccess(Op->Base, /*IsStore=*/false, I.Read, I.Write);
      R[Op->Dst] = SlotData[Op->Slot][0];
      break;
    case LirUop::K::Elem: {
      const uint64_t W = Memory::wrapRaw(R[Op->Dst], Op->Mod);
      if (TrackCursor)
        Cur.Loc = Op->Loc;
      Cycles += Env.dataAccess(Op->Base + W * 8, /*IsStore=*/false, I.Read,
                               I.Write);
      Cycles += AluCost; // Address computation.
      R[Op->Dst] = SlotData[Op->Slot][W];
      break;
    }
    case LirUop::K::Bin:
      R[Op->Dst] = applyBinOp(static_cast<BinOpKind>(Op->Op2), R[Op->Dst],
                              R[Op->Dst + 1]);
      Cycles += AluCost;
      break;
    case LirUop::K::Un:
      R[Op->Dst] = applyUnOp(static_cast<UnOpKind>(Op->Op2), R[Op->Dst]);
      Cycles += AluCost;
      break;
    }
    Result = Op->Dst;
  }
  // Restore the cursor to the command before any post-evaluation costs
  // (store access, step charge).
  if (TrackCursor)
    Cur.Loc = I.Loc;
  return R[Result];
}

void ExecCore::execSkip(const LirInst &I) {
  head(I);
  const uint64_t Cycles = stepBase(I);
  charge(CycleKind::Step, Cycles);
  G += Cycles;
  PC = I.Next;
}

void ExecCore::execAssign(const LirInst &I) {
  head(I);
  ++T.Ops.Assignments;
  uint64_t Cycles = stepBase(I);
  const int64_t V = evalSpan(I, I.U0, I.N0, Cycles);
  Cycles += Env.dataAccess(I.SlotBase, /*IsStore=*/true, I.Read, I.Write);
  charge(CycleKind::Step, Cycles);
  G += Cycles;
  MemorySlot &S = M.slotAt(I.Slot);
  S.Data[0] = V;
  record(I.Slot, S.SecLabel, false, 0, V);
  PC = I.Next;
}

void ExecCore::execStore(const LirInst &I) {
  head(I);
  ++T.Ops.Assignments;
  uint64_t Cycles = stepBase(I);
  const int64_t Index = evalSpan(I, I.U0, I.N0, Cycles);
  const int64_t V = evalSpan(I, I.U1, I.N1, Cycles);
  Cycles += AluCost; // Address computation.
  const uint64_t W = Memory::wrapRaw(Index, I.ElemCount);
  Cycles += Env.dataAccess(I.SlotBase + W * 8, /*IsStore=*/true, I.Read,
                           I.Write);
  charge(CycleKind::Step, Cycles);
  G += Cycles;
  MemorySlot &S = M.slotAt(I.Slot);
  S.Data[W] = V;
  record(I.Slot, S.SecLabel, true, W, V);
  PC = I.Next;
}

void ExecCore::execBranch(const LirInst &I) {
  head(I);
  ++T.Ops.Branches;
  uint64_t Cycles = stepBase(I) + Opts.Costs.Branch;
  const int64_t Guard = evalSpan(I, I.U0, I.N0, Cycles);
  charge(CycleKind::Step, Cycles);
  G += Cycles;
  if (Probe)
    Probe->onBranch(PC, Guard != 0);
  PC = Guard != 0 ? I.Target : I.Next;
}

void ExecCore::execSleep(const LirInst &I) {
  head(I);
  // Sleep is a calibrated timer, not a fetched instruction: with a
  // literal argument it consumes exactly max(n, 0) cycles (Property 4).
  uint64_t Cycles = 0;
  const int64_t N = evalSpan(I, I.U0, I.N0, Cycles);
  charge(CycleKind::Step, Cycles);
  G += Cycles;
  if (N > 0) {
    charge(CycleKind::Sleep, static_cast<uint64_t>(N));
    G += static_cast<uint64_t>(N);
  }
  PC = I.Next;
}

void ExecCore::execMitEnter(const LirInst &I) {
  head(I);
  ++T.Ops.MitigateEntries;
  uint64_t Cycles = stepBase(I);
  const int64_t N = evalSpan(I, I.U0, I.N0, Cycles);
  // The entry step belongs to the enclosing window; the site opens with
  // the body.
  charge(CycleKind::Step, Cycles);
  G += Cycles;
  Frames.push_back({I.Eta, N, I.MitLevel, I.PcLabel, G,
                    I.Policy ? I.Policy : &Opts.Mitigation.base()});
  Cur.Site = I.Eta;
  PC = I.Next;
}

void ExecCore::execMitEnd(const LirInst &I) {
  head(I);
  // The paper's MitigateEnd continuation: no fetch, no base cost — only
  // the update rule and the padding to the final prediction.
  const MitFrame &F = Frames.back();
  const uint64_t Elapsed = G - F.Start;
  const unsigned MissesBefore = Probe ? MitState.misses(F.Level) : 0;
  MitigationState::Outcome Out =
      MitState.settle(F.Estimate, F.Level, Elapsed, *F.Policy);
  G = F.Start + Out.Duration;
  if (Probe)
    Probe->onSettle(F.Eta, MitState.misses(F.Level) - MissesBefore);

  MitigateRecord R;
  R.Eta = F.Eta;
  R.PcLabel = F.Pc;
  R.Level = F.Level;
  R.Estimate = F.Estimate;
  R.Start = F.Start;
  R.Duration = Out.Duration;
  R.BodyTime = Elapsed;
  R.Mispredicted = Out.Mispredicted;
  R.MissesAfter = MitState.misses(R.Level);
  R.Line = I.Loc.Line;
  T.Mitigations.push_back(R);
  if (Opts.OnMitigateWindow)
    Opts.OnMitigateWindow(T.Mitigations.back());
  // Padding attributes to the window's own site at the mitigate line,
  // then the window closes and the site pops.
  Cur.Site = F.Eta;
  if (Out.Duration > Elapsed)
    charge(CycleKind::Pad, Out.Duration - Elapsed);
  if (Prov)
    Prov->closeWindow(Cur, T.Mitigations.back());
  Frames.pop_back();
  Cur.Site = Frames.empty() ? CostCursor::kNoSite : Frames.back().Eta;
  PC = I.Next;
}

void ExecCore::execInstr(const LirInst &I) {
  switch (I.K) {
  case IrInstr::Op::Skip:
    execSkip(I);
    return;
  case IrInstr::Op::Assign:
    execAssign(I);
    return;
  case IrInstr::Op::ArrayAssign:
    execStore(I);
    return;
  case IrInstr::Op::Branch:
    execBranch(I);
    return;
  case IrInstr::Op::Sleep:
    execSleep(I);
    return;
  case IrInstr::Op::MitEnter:
    execMitEnter(I);
    return;
  case IrInstr::Op::MitEnd:
    execMitEnd(I);
    return;
  case IrInstr::Op::Halt:
    return; // Unreachable: step()/run() never execute Halt.
  }
  reportFatalError("unexpected instruction in LIR execution");
}

void ExecCore::step() {
  if (Halted)
    return;
  if (++T.Steps > StepLimit) {
    T.HitStepLimit = true;
    Halted = true;
    finalize();
    return;
  }
  execInstr(Code[PC]);
  if (Code[PC].K == IrInstr::Op::Halt) {
    Halted = true;
    finalize();
  }
}

// The transition discipline of step() — count and check the step limit,
// execute one instruction, stop when the pc lands on Halt — in a loop that
// tests Halted once on entry instead of once per transition.
void ExecCore::run() {
  if (Halted)
    return;
  for (;;) {
    if (++T.Steps > StepLimit) {
      T.HitStepLimit = true;
      break;
    }
    execInstr(Code[PC]);
    if (Code[PC].K == IrInstr::Op::Halt)
      break;
  }
  Halted = true;
  finalize();
}

void ExecCore::finalize() {
  T.FinalTime = G;
  T.FinalMissTable.clear();
  for (Label L : P.lattice().allLabels())
    T.FinalMissTable.push_back(MitState.misses(L));
}

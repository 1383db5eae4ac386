//===- ExecCore.cpp - The shared execution core ---------------------------===//

#include "sem/ExecCore.h"

#include "sem/Limits.h"
#include "support/Diagnostics.h"

#include <algorithm>
#include <cstddef>
#include <new>

using namespace zam;

ExecCore::ExecCore(const IrProgram &IR, const Program &P, Memory InitM,
                   MachineEnv &Env, InterpreterOptions &&Options)
    : IR(IR), P(P), Env(Env), Opts(std::move(Options)), Probe(Opts.Probe),
      Prov(Opts.Provenance), BaseStepCost(Opts.Costs.BaseStep),
      AluCost(Opts.Costs.AluOp), M(std::move(InitM)), Code(IR.Instrs.data()),
      Uops(IR.Uops.data()),
      TrackCursor(Opts.RecordMisses || Opts.Provenance != nullptr),
      RetainEvents(Opts.RetainEvents) {
  MitState = Opts.SharedMitState
                 ? Opts.SharedMitState
                 : &OwnMitState.emplace(P.lattice(), Opts.Mitigation.base(),
                                        Opts.Penalty);
  T.Names = M.slotNames();
  T.EventsRetained = RetainEvents;
  // Regs, SlotData and Frames in one block, each part 8-byte aligned.
  // beginRun zeroes the registers; the frames are written before they are
  // read.
  static_assert(sizeof(const int64_t *) == sizeof(int64_t) &&
                alignof(MitFrame) <= alignof(int64_t) &&
                sizeof(MitFrame) % sizeof(int64_t) == 0);
  NumRegs = IR.NumRegs ? IR.NumRegs : 1;
  const size_t NumSlots = M.slotCount();
  MaxDepth = IR.MaxMitDepth;
  Scratch = std::make_unique_for_overwrite<std::byte[]>(
      (NumRegs + NumSlots) * sizeof(int64_t) + MaxDepth * sizeof(MitFrame));
  Regs = reinterpret_cast<int64_t *>(Scratch.get());
  // Slot storage is never reallocated (restart copies values into it), so
  // these pointers hold for every run.
  SlotData = reinterpret_cast<const int64_t **>(Regs + NumRegs);
  for (size_t I = 0; I != NumSlots; ++I)
    SlotData[I] = M.slotAt(I).Data.data();
  Frames = reinterpret_cast<MitFrame *>(SlotData + NumSlots);
  beginRun();
}

void ExecCore::restart(const Memory &Image) {
  M.restoreValues(Image);
  beginRun();
}

void ExecCore::beginRun() {
  T.Events.clear();
  T.Mitigations.clear();
  T.Misses.clear();
  T.FinalMissTable.clear();
  T.Ops = OpCounters();
  T.FinalTime = 0;
  T.Steps = 0;
  T.HitStepLimit = false;
  T.HitEventLimit = false;
  StepLimit = Opts.StepLimit;
  if (OwnMitState)
    OwnMitState->reset();
  std::fill_n(Regs, NumRegs, 0);
  G = 0;
  PC = 0;
  Depth = 0;
  Cur = CostCursor();
  Halted = false;
  if (Probe)
    Probe->onProgram(IR);
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
  if (!RetainEvents)
    return;
  // The retained trace is full: drop this event and end the run at the
  // next step check, which the lowered bound fails.
  if (T.Events.size() == kMaxRetainedEvents) {
    T.HitEventLimit = true;
    StepLimit = T.Steps;
    return;
  }
  // 32 plain bytes per event: the name stays in T.Names.
  AssignEvent &E = T.Events.emplace_back();
  E.Slot = Slot;
  E.IsArrayStore = IsArray;
  E.VarLabel = VarLabel;
  E.ElemIndex = Index;
  E.Value = Value;
  E.Time = G;
}

int64_t ExecCore::evalSpan(const IrInstr &I, uint32_t U, uint32_t N,
                           uint64_t &Cycles) {
  int64_t *R = Regs;
  const IrUop *Op = Uops + U;
  const IrUop *const End = Op + N;
  uint16_t Result = 0;
  for (; Op != End; ++Op) {
    switch (Op->Kind) {
    case IrUop::K::Const: // Immediate operand: free.
      R[Op->Dst] = Op->Imm;
      break;
    case IrUop::K::Var:
      if (TrackCursor)
        Cur.Loc = Op->Loc;
      Cycles += Env.dataAccess(Op->Base, /*IsStore=*/false, I.Read, I.Write);
      R[Op->Dst] = SlotData[Op->Slot][0];
      break;
    case IrUop::K::Elem: {
      const uint64_t W = Memory::wrapRaw(R[Op->Dst], Op->Mod);
      if (TrackCursor)
        Cur.Loc = Op->Loc;
      Cycles += Env.dataAccess(Op->Base + W * 8, /*IsStore=*/false, I.Read,
                               I.Write);
      Cycles += AluCost; // Address computation.
      R[Op->Dst] = SlotData[Op->Slot][W];
      break;
    }
    case IrUop::K::Bin:
      R[Op->Dst] = applyBinOp(static_cast<BinOpKind>(Op->Op2), R[Op->Dst],
                              R[Op->Dst + 1]);
      Cycles += AluCost;
      break;
    case IrUop::K::Un:
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

void ExecCore::execSkip(const IrInstr &I) {
  head(I);
  const uint64_t Cycles = stepBase(I);
  charge(CycleKind::Step, Cycles);
  G += Cycles;
  PC = I.Next;
}

void ExecCore::execAssign(const IrInstr &I) {
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

void ExecCore::execStore(const IrInstr &I) {
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

void ExecCore::execBranch(const IrInstr &I) {
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

void ExecCore::execSleep(const IrInstr &I) {
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

void ExecCore::execMitEnter(const IrInstr &I) {
  head(I);
  ++T.Ops.MitigateEntries;
  uint64_t Cycles = stepBase(I);
  const int64_t N = evalSpan(I, I.U0, I.N0, Cycles);
  // The entry step belongs to the enclosing window; the site opens with
  // the body.
  charge(CycleKind::Step, Cycles);
  G += Cycles;
  // The IR's static nesting bound sized the stack; an IR that understates
  // it stops the run here instead of writing past the block.
  if (Depth == MaxDepth)
    reportFatalError("mitigate nesting above the IR's MaxMitDepth");
  const MitigationPolicy *Policy =
      I.Policy ? I.Policy : &Opts.Mitigation.base();
  new (&Frames[Depth++]) MitFrame{I.Eta, N, I.MitLevel, I.PcLabel, G, Policy};
  Cur.Site = I.Eta;
  PC = I.Next;
}

void ExecCore::execMitEnd(const IrInstr &I) {
  head(I);
  // The paper's MitigateEnd continuation: no fetch, no base cost — only
  // the update rule and the padding to the final prediction.
  const MitFrame &F = Frames[Depth - 1];
  const uint64_t Elapsed = G - F.Start;
  const unsigned MissesBefore = Probe ? MitState->misses(F.Level) : 0;
  MitigationState::Outcome Out =
      MitState->settle(F.Estimate, F.Level, Elapsed, *F.Policy);
  G = F.Start + Out.Duration;
  if (Probe)
    Probe->onSettle(F.Eta, MitState->misses(F.Level) - MissesBefore);

  MitigateRecord R;
  R.Eta = F.Eta;
  R.PcLabel = F.Pc;
  R.Level = F.Level;
  R.Estimate = F.Estimate;
  R.Start = F.Start;
  R.Duration = Out.Duration;
  R.BodyTime = Elapsed;
  R.Mispredicted = Out.Mispredicted;
  R.MissesAfter = MitState->misses(R.Level);
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
  --Depth;
  Cur.Site = Depth == 0 ? CostCursor::kNoSite : Frames[Depth - 1].Eta;
  PC = I.Next;
}

void ExecCore::execInstr(const IrInstr &I) {
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
  reportFatalError("unexpected instruction in IR execution");
}

void ExecCore::step() {
  if (Halted)
    return;
  if (++T.Steps > StepLimit) {
    T.HitStepLimit = !T.HitEventLimit;
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
      T.HitStepLimit = !T.HitEventLimit;
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
  T.FinalMissTable.resize(P.lattice().size());
  for (uint32_t I = 0; I != T.FinalMissTable.size(); ++I)
    T.FinalMissTable[I] = MitState->misses(Label::fromIndex(I));
}

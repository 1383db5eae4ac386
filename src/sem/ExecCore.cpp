//===- ExecCore.cpp - The shared execution core ---------------------------===//

#include "sem/ExecCore.h"

#include "sem/Limits.h"
#include "support/Diagnostics.h"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <new>

using namespace zam;

ExecCore::ExecCore(const IrProgram &IR, const Program &P, Memory InitM,
                   MachineEnv &Env, InterpreterOptions &&Options)
    : IR(IR), P(P), Env(Env), Opts(std::move(Options)), Probe(Opts.Probe),
      Prov(Opts.Provenance), BaseStepCost(Opts.Costs.BaseStep),
      AluCost(Opts.Costs.AluOp), M(std::move(InitM)), Code(IR.Instrs.data()),
      Uops(IR.Uops.data()),
      TrackCursor(Opts.RecordMisses || Opts.Provenance != nullptr),
      RetainEvents(Opts.RetainEvents),
      Observed(TrackCursor || RetainEvents || Probe != nullptr) {
  MitState = Opts.SharedMitState
                 ? Opts.SharedMitState
                 : &OwnMitState.emplace(P.lattice(), Opts.Mitigation.base(),
                                        Opts.Penalty);
  T.Names = M.slotNames();
  T.EventsRetained = RetainEvents;
  // Regs, SlotData, Frames, Tallies and Tickets in one block, each part
  // 8-byte aligned. beginRun zeroes the registers and tallies; the frames
  // are written before they are read; the tickets start empty here and
  // carry over restarts.
  static_assert(sizeof(const int64_t *) == sizeof(int64_t) &&
                alignof(MitFrame) <= alignof(int64_t) &&
                sizeof(MitFrame) % sizeof(int64_t) == 0 &&
                alignof(PcTally) <= alignof(int64_t) &&
                sizeof(PcTally) % sizeof(int64_t) == 0 &&
                alignof(RepeatTicket) <= alignof(int64_t));
  NumRegs = IR.NumRegs ? IR.NumRegs : 1;
  const size_t NumSlots = M.slotCount();
  MaxDepth = IR.MaxMitDepth;
  const size_t NumTallies = Prov ? IR.Instrs.size() : 0;
  const size_t NumTickets = 2 * IR.Instrs.size() + IR.Uops.size();
  Scratch = std::make_unique_for_overwrite<std::byte[]>(
      (NumRegs + NumSlots) * sizeof(int64_t) + MaxDepth * sizeof(MitFrame) +
      NumTallies * sizeof(PcTally) + NumTickets * sizeof(RepeatTicket));
  Regs = reinterpret_cast<int64_t *>(Scratch.get());
  // Slot storage is never reallocated (restart copies values into it), so
  // these pointers hold for every run.
  SlotData = reinterpret_cast<const int64_t **>(Regs + NumRegs);
  for (size_t I = 0; I != NumSlots; ++I)
    SlotData[I] = M.slotAt(I).Data.data();
  Frames = reinterpret_cast<MitFrame *>(SlotData + NumSlots);
  PcTally *const TallyBlock = reinterpret_cast<PcTally *>(Frames + MaxDepth);
  if (NumTallies)
    Tallies = TallyBlock;
  Tickets = reinterpret_cast<RepeatTicket *>(TallyBlock + NumTallies);
  std::uninitialized_default_construct_n(Tickets, NumTickets);
  UopTickets = Tickets + 2 * IR.Instrs.size();
  beginRun();
}

ExecCore::~ExecCore() {
  if (!Halted)
    foldTallies();
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
  if (Tallies)
    std::fill_n(Tallies, IR.Instrs.size(), PcTally());
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
    Prov->chargeMiss(Cur, Access);
  if (!Opts.RecordMisses)
    return;
  // The sampled misses are full: drop this one and end the run at the next
  // step check, as retain() does for the events.
  if (T.Misses.size() == kMaxRetainedEvents) {
    stopAtEventLimit();
    return;
  }
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

void ExecCore::stopAtEventLimit() {
  T.HitEventLimit = true;
  // The next step check fails the lowered bound.
  StepLimit = Bound = T.Steps;
}

void ExecCore::retain(uint32_t Slot, Label VarLabel, bool IsArray,
                      uint64_t Index, int64_t Value) {
  // The retained trace is full: drop this event and end the run at the
  // next step check.
  if (T.Events.size() == kMaxRetainedEvents) {
    stopAtEventLimit();
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

template <bool Obs>
inline int64_t ExecCore::evalSpan(const IrInstr &I, uint32_t U, uint32_t N,
                                  uint64_t &Cycles) {
  int64_t *R = Regs;
  const IrUop *Op = Uops + U;
  const IrUop *const End = Op + N;
  uint16_t Result = 0;
  for (; Op != End; ++Op) {
    int64_t &D = R[Op->Dst];
    // One case per opcode. Each operator case applies its operator as a
    // constant, so applyBinOp/applyUnOp fold to that operator's code.
    switch (Op->Kind) {
    case IrUop::K::Const: // Immediate operand: free.
      D = Op->Imm;
      break;
    case IrUop::K::Var:
      if (Obs && TrackCursor)
        Cur.Loc = Op->Loc;
      Cycles += access<true>(UopTickets[Op - Uops], I, Op->Base);
      D = SlotData[Op->Slot][0];
      break;
    case IrUop::K::Elem: {
      const uint64_t W = Memory::wrapRaw(D, Op->Mod);
      if (Obs && TrackCursor)
        Cur.Loc = Op->Loc;
      Cycles += access<true>(UopTickets[Op - Uops], I, Op->Base + W * 8);
      Cycles += AluCost; // Address computation.
      D = SlotData[Op->Slot][W];
      break;
    }
      // A folded literal costs what its Const (free) and the register
      // form cost together: one ALU op.
#define ZAM_IR_X(Name, Mnemonic)                                              \
  case IrUop::K::Name:                                                         \
    D = applyBinOp(BinOpKind::Name, D, R[Op->Dst + 1]);                        \
    Cycles += AluCost;                                                         \
    break;                                                                     \
  case IrUop::K::Name##Imm:                                                    \
    D = applyBinOp(BinOpKind::Name, D, Op->Imm);                               \
    Cycles += AluCost;                                                         \
    break;
      ZAM_IR_BINOPS(ZAM_IR_X)
#undef ZAM_IR_X
#define ZAM_IR_X(Name, Mnemonic)                                              \
  case IrUop::K::Name:                                                         \
    D = applyUnOp(UnOpKind::Name, D);                                          \
    Cycles += AluCost;                                                         \
    break;
      ZAM_IR_UNOPS(ZAM_IR_X)
#undef ZAM_IR_X
    }
    Result = Op->Dst;
  }
  // Restore the cursor to the command before any post-evaluation costs
  // (store access, step charge).
  if (Obs && TrackCursor)
    Cur.Loc = I.Loc;
  return R[Result];
}

/// The accesses one transition of \p I makes, in the order the bodies below
/// make them: one call \p Access(Loc, IsData) per access, at the location
/// the cursor holds when it is made. The fold multiplies them by the
/// instruction's dispatches, so this must name exactly the accesses of
/// the bodies, ticketed or not: a fetch unless the instruction is Sleep or
/// MitEnd, one data access per Var/Elem micro-op at that micro-op's own
/// location, and the store of Assign and ArrayAssign. These are also the
/// access sites that keep a ticket.
template <typename Fn>
static void accessesOf(const IrInstr &I, const IrUop *Uops, Fn &&Access) {
  if (I.K != IrInstr::Op::Sleep && I.K != IrInstr::Op::MitEnd)
    Access(I.Loc, /*IsData=*/false);
  auto Loads = [&](uint32_t U, uint32_t N) {
    for (const IrUop *Op = Uops + U, *End = Op + N; Op != End; ++Op)
      if (Op->Kind == IrUop::K::Var || Op->Kind == IrUop::K::Elem)
        Access(Op->Loc, /*IsData=*/true);
  };
  Loads(I.U0, I.N0);
  Loads(I.U1, I.N1);
  if (I.K == IrInstr::Op::Assign || I.K == IrInstr::Op::ArrayAssign)
    Access(I.Loc, /*IsData=*/true);
}

void ExecCore::foldTallies() {
  if (!Tallies)
    return;
  for (uint32_t Pc = 0; Pc != IR.Instrs.size(); ++Pc) {
    const PcTally &T = Tallies[Pc];
    if (T.Dispatches == 0)
      continue;
    const IrInstr &I = Code[Pc];
    CostCursor At;
    At.Loc = I.Loc;
    Prov->chargeCycles(At, CycleKind::Step, T.StepCycles);
    accessesOf(I, Uops, [&](const SourceLoc &Loc, bool IsData) {
      At.Loc = Loc;
      Prov->chargeAccesses(At, IsData, T.Dispatches);
    });
  }
}

template <bool Obs> inline void ExecCore::execSkip(const IrInstr &I) {
  head<Obs>(I);
  const uint64_t Cycles = stepBase(I);
  chargeStep<Obs>(Cycles);
  G += Cycles;
  PC = I.Next;
}

template <bool Obs> inline void ExecCore::execAssign(const IrInstr &I) {
  head<Obs>(I);
  ++T.Ops.Assignments;
  uint64_t Cycles = stepBase(I);
  const int64_t V = evalSpan<Obs>(I, I.U0, I.N0, Cycles);
  Cycles +=
      access<true>(Tickets[2 * PC + 1], I, I.SlotBase, /*IsStore=*/true);
  chargeStep<Obs>(Cycles);
  G += Cycles;
  MemorySlot &S = M.slotAt(I.Slot);
  S.Data[0] = V;
  record<Obs>(I.Slot, S.SecLabel, false, 0, V);
  PC = I.Next;
}

template <bool Obs> inline void ExecCore::execStore(const IrInstr &I) {
  head<Obs>(I);
  ++T.Ops.Assignments;
  uint64_t Cycles = stepBase(I);
  const int64_t Index = evalSpan<Obs>(I, I.U0, I.N0, Cycles);
  const int64_t V = evalSpan<Obs>(I, I.U1, I.N1, Cycles);
  Cycles += AluCost; // Address computation.
  const uint64_t W = Memory::wrapRaw(Index, I.ElemCount);
  Cycles += access<true>(Tickets[2 * PC + 1], I, I.SlotBase + W * 8,
                         /*IsStore=*/true);
  chargeStep<Obs>(Cycles);
  G += Cycles;
  MemorySlot &S = M.slotAt(I.Slot);
  S.Data[W] = V;
  record<Obs>(I.Slot, S.SecLabel, true, W, V);
  PC = I.Next;
}

template <bool Obs> inline void ExecCore::execBranch(const IrInstr &I) {
  head<Obs>(I);
  ++T.Ops.Branches;
  uint64_t Cycles = stepBase(I) + Opts.Costs.Branch;
  const int64_t Guard = evalSpan<Obs>(I, I.U0, I.N0, Cycles);
  chargeStep<Obs>(Cycles);
  G += Cycles;
  if (Obs && Probe)
    Probe->onBranch(PC, Guard != 0);
  PC = Guard != 0 ? I.Target : I.Next;
}

template <bool Obs> inline void ExecCore::execSleep(const IrInstr &I) {
  head<Obs>(I);
  // Sleep is a calibrated timer, not a fetched instruction: with a
  // literal argument it consumes exactly max(n, 0) cycles (Property 4).
  uint64_t Cycles = 0;
  const int64_t N = evalSpan<Obs>(I, I.U0, I.N0, Cycles);
  chargeStep<Obs>(Cycles);
  G += Cycles;
  if (N > 0) {
    charge<Obs>(CycleKind::Sleep, static_cast<uint64_t>(N));
    G += static_cast<uint64_t>(N);
  }
  PC = I.Next;
}

template <bool Obs> inline void ExecCore::execMitEnter(const IrInstr &I) {
  head<Obs>(I);
  ++T.Ops.MitigateEntries;
  uint64_t Cycles = stepBase(I);
  const int64_t N = evalSpan<Obs>(I, I.U0, I.N0, Cycles);
  // The entry step belongs to the enclosing window; the site opens with
  // the body.
  chargeStep<Obs>(Cycles);
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

template <bool Obs> inline void ExecCore::execMitEnd(const IrInstr &I) {
  head<Obs>(I);
  // The paper's MitigateEnd continuation: no fetch, no base cost — only
  // the update rule and the padding to the final prediction.
  const MitFrame &F = Frames[Depth - 1];
  const uint64_t Elapsed = G - F.Start;
  const unsigned MissesBefore = Obs && Probe ? MitState->misses(F.Level) : 0;
  MitigationState::Outcome Out =
      MitState->settle(F.Estimate, F.Level, Elapsed, *F.Policy);
  G = F.Start + Out.Duration;
  if (Obs && Probe)
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
    charge<Obs>(CycleKind::Pad, Out.Duration - Elapsed);
  if (Obs && Prov)
    Prov->closeWindow(Cur, T.Mitigations.back());
  --Depth;
  Cur.Site = Depth == 0 ? CostCursor::kNoSite : Frames[Depth - 1].Eta;
  PC = I.Next;
}

template <bool Obs> inline void ExecCore::execInstr(const IrInstr &I) {
  switch (I.K) {
  case IrInstr::Op::Skip:
    execSkip<Obs>(I);
    return;
  case IrInstr::Op::Assign:
    execAssign<Obs>(I);
    return;
  case IrInstr::Op::ArrayAssign:
    execStore<Obs>(I);
    return;
  case IrInstr::Op::Branch:
    execBranch<Obs>(I);
    return;
  case IrInstr::Op::Sleep:
    execSleep<Obs>(I);
    return;
  case IrInstr::Op::MitEnter:
    execMitEnter<Obs>(I);
    return;
  case IrInstr::Op::MitEnd:
    execMitEnd<Obs>(I);
    return;
  case IrInstr::Op::Halt:
    return; // Unreachable: advance() never executes Halt.
  }
  reportFatalError("unexpected instruction in IR execution");
}

void ExecCore::step() {
  if (!Halted)
    Observed ? advance<true>(T.Steps + 1) : advance<false>(T.Steps + 1);
}

void ExecCore::run() {
  if (!Halted)
    Observed ? advance<true>(~uint64_t(0)) : advance<false>(~uint64_t(0));
}

// Each iteration is one transition: count it and check the bound, execute
// one instruction, stop when the pc lands on Halt. The bound is the step
// limit or the pause point, whichever comes first, so the loop makes one
// compare per transition for both; only past the bound does it tell a
// pause (undo the count, stay resumable) from a stop.
template <bool Obs> void ExecCore::advance(uint64_t Pause) {
  Bound = std::min(StepLimit, Pause);
  for (;;) {
    if (++T.Steps > Bound) {
      if (T.Steps > Pause) {
        --T.Steps;
        return;
      }
      T.HitStepLimit = !T.HitEventLimit;
      break;
    }
    execInstr<Obs>(Code[PC]);
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
  foldTallies();
}

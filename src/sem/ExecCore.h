//===- ExecCore.h - The execution core --------------------------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution core of the full semantics (Fig. 2 + Fig. 6), held inline
/// by its one engine, FullInterpreter, which runs it to completion or one
/// transition at a time. The core executes the lowered program (ir/Ir.h) —
/// one instruction per transition, its expression work as register
/// micro-ops — and owns everything a transition involves:
///
///   - expression evaluation as register-transfer micro-ops (no run-time
///     value stack: operand registers and addresses are precomputed);
///   - cost charging: BaseStep + I-fetch + data accesses + ALU costs
///     (+ Branch for guards; sleep is a calibrated timer with no fetch);
///   - hardware access through the machine environment under the
///     instruction's precomputed [er, ew] labels — the machine env is the
///     security boundary and lowering does not move it. Each access site
///     (an instruction's fetch and store, a Var/Elem micro-op's load) keeps
///     a repeat ticket from its last access that left the env unchanged:
///     a TLB+L1 hit, which repeats while the TLB and L1 sets it read are
///     unchanged, also at another word of its line (an Elem load walking
///     an array), or a no-fill probe miss, which repeats at its own
///     address while its side is unchanged. Such an access is counted and
///     charged from the ticket without a walk (see
///     MachineEnv::repeatAccess), and the ticket is kept current; every
///     other access calls the env;
///   - predictive mitigation windows (Fig. 6): a frame stack of open
///     mitigate sites, settled by MitEnd exactly like the paper's
///     MitigateEnd continuation;
///   - CostSink attribution: the cursor (location + innermost open site)
///     moves exactly as in the tree engines, so ledgers and miss samples
///     are byte-for-byte identical. While a sink is attached the core
///     tallies each instruction's dispatches and step cycles, and folds
///     them into the sink once per executed instruction when the run
///     stops; an access reaches the sink as it happens only if it missed.
///
/// run() and step() drive one loop, each iteration of which is one
/// transition of the semantics: run() to the end, step() for one
/// transition, after which the loop pauses. There is one source copy of
/// the transition code, instantiated twice: for a run with no observer
/// (no probe, sink, miss sampling or retained events), where every
/// observer test folds away, and for an observed run. Construction picks
/// one for the run. run() and step() interleave freely: a run resumed
/// after any number of single steps observes exactly what an
/// uninterrupted run does.
///
/// The program is immutable; the core holds all run state, so the engine
/// stays a thin wrapper that only decides when to call step()/run() and
/// when to install the hardware observer. All of that state is set by one
/// per-run initialisation, which construction and restart() share: a
/// restarted core is indistinguishable from a freshly constructed one, but
/// reuses the memory, the scratch block, the trace's vectors and its own
/// Miss table instead of allocating them again.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_SEM_EXECCORE_H
#define ZAM_SEM_EXECCORE_H

#include "hw/MachineEnv.h"
#include "ir/Ir.h"
#include "sem/Eval.h"
#include "sem/Event.h"
#include "sem/InterpreterOptions.h"
#include "sem/Memory.h"
#include "sem/Mitigation.h"
#include "sem/Provenance.h"

#include <cstddef>
#include <memory>
#include <optional>

namespace zam {

class ExecCore final : public HwObserver {
public:
  /// Executes \p IR (which must outlive the core) with initial memory
  /// \p InitM on \p Env under \p Opts, which the core takes over (the
  /// run's one copy). \p P provides the lattice and declarations.
  ///
  /// Construction allocates only what the run needs: the register file,
  /// the slot-data pointers, the mitigate frame stack and the access
  /// sites' tickets share one block (the stack sized by the IR's static
  /// nesting bound), and the core's own Miss table is built only when
  /// Opts.SharedMitState is unset.
  ExecCore(const IrProgram &IR, const Program &P, Memory InitM,
           MachineEnv &Env, InterpreterOptions &&Opts);
  /// Pinned: the engine registers the core as Env's observer, and it
  /// points into itself (MitState).
  ExecCore(const ExecCore &) = delete;
  ExecCore &operator=(const ExecCore &) = delete;
  /// A run destroyed before it stopped (an engine dropped after k of n
  /// steps) folds what it ran into the sink, as a stopped run does.
  ~ExecCore() override;

  /// Whether the configuration has reached ⟨stop, m, E, G⟩ (or a run
  /// limit).
  bool done() const { return Halted; }

  /// Performs exactly one transition (one instruction). No-op when done.
  void step();

  /// Runs to completion (the engine's tight loop). May follow any number
  /// of step() calls.
  void run();

  /// Starts another run on the same env and options, from \p Image: the
  /// memory image the core was constructed from (or one of its layout).
  /// Copies the image's values into the memory the core holds, then
  /// repeats construction's per-run initialisation. Allocates nothing;
  /// a SharedMitState carries over, as it does between two engines.
  void restart(const Memory &Image);

  Memory &memory() { return M; }
  const Memory &memory() const { return M; }
  uint64_t clock() const { return G; }
  Trace &trace() { return T; }
  const Trace &trace() const { return T; }
  const MitigationState &mitigationState() const { return *MitState; }
  const InterpreterOptions &options() const { return Opts; }

  /// The source command the next transition executes (nullptr when done).
  const Cmd *currentCmd() const {
    return Halted ? nullptr : Code[PC].Origin;
  }

private:
  /// HwObserver hook (installed by the engine around each call), called
  /// for each access that missed in the TLB or L1: charges it to the
  /// provenance sink and samples it under RecordMisses.
  void onAccess(const HwAccess &Access) override;

  /// The transition loop of run() and step(): executes transitions until
  /// the run stops (the pc lands on Halt, or the count passes the step
  /// limit) or the count would pass \p Pause, where it pauses with the
  /// run resumable.
  ///
  /// The transition code below is written once and instantiated twice.
  /// With \p Obs false every cursor, probe, tally, sink and retention
  /// test folds to false; run() and step() take that instantiation unless
  /// the run is Observed.
  template <bool Obs> void advance(uint64_t Pause);

  /// Per-opcode bodies. Each begins with the shared dispatch head
  /// (cursor + probe) and fully executes one logical transition. They,
  /// evalSpan and execInstr are inlined into advance(), so a transition
  /// makes no call unless it reaches the env, the sink, the probe or a
  /// retained event.
  template <bool Obs> [[gnu::always_inline]] void execSkip(const IrInstr &I);
  template <bool Obs> [[gnu::always_inline]] void execAssign(const IrInstr &I);
  template <bool Obs> [[gnu::always_inline]] void execStore(const IrInstr &I);
  template <bool Obs> [[gnu::always_inline]] void execBranch(const IrInstr &I);
  template <bool Obs> [[gnu::always_inline]] void execSleep(const IrInstr &I);
  template <bool Obs>
  [[gnu::always_inline]] void execMitEnter(const IrInstr &I);
  template <bool Obs> [[gnu::always_inline]] void execMitEnd(const IrInstr &I);
  /// One transition of the instruction at \p I (a switch over the bodies
  /// above). Never called on Halt.
  template <bool Obs> [[gnu::always_inline]] void execInstr(const IrInstr &I);

  /// The per-run initialisation of construction and restart(): empties
  /// the trace's vectors (keeping their storage), zeroes the counters,
  /// clock, registers, cursor and tallies, restores the step limit, clears
  /// the core's own Miss table, tells the probe about the program, and
  /// halts at once on a program that is only Halt.
  void beginRun();
  /// Ends the run: the final clock and Miss table, and the fold.
  void finalize();
  /// Charges the tallies of every executed instruction to the sink: its
  /// step cycles, and its dispatches times each access accessesOf names.
  void foldTallies();
  template <bool Obs> void head(const IrInstr &I) {
    // Attribution: every transition moves the cursor to its instruction's
    // source location before any of its costs (including the I-fetch).
    if (Obs && TrackCursor)
      Cur.Loc = I.Loc;
    if (Obs && Probe)
      Probe->onDispatch(PC);
  }
  uint64_t stepBase(const IrInstr &I) {
    const uint64_t Fetch = access<false>(Tickets[2 * PC], I, I.CodeAddr);
    return BaseStepCost + Fetch;
  }
  /// The access (a data access when \p IsData, else a fetch) of the site
  /// whose ticket is \p Tk, at \p A under \p I's labels: a repeat
  /// while the ticket holds (which may make it current for \p A), else
  /// the env's access and a fresh ticket.
  template <bool IsData>
  uint64_t access(RepeatTicket &Tk, const IrInstr &I, Addr A,
                  bool IsStore = false) {
    if (Env.repeatAccess(Tk, A, IsData))
      return Tk.Cycles;
    uint64_t Cycles;
    if constexpr (IsData)
      Cycles = Env.dataAccess(A, IsStore, I.Read, I.Write);
    else
      Cycles = Env.fetch(A, I.Read, I.Write);
    Env.takeTicket(Tk);
    return Cycles;
  }
  template <bool Obs> void charge(CycleKind K, uint64_t N) {
    if (Obs && Prov)
      Prov->chargeCycles(Cur, K, N);
  }
  /// The end of a step that cost \p Cycles: tallied for the fold.
  template <bool Obs> void chargeStep(uint64_t Cycles) {
    if (Obs && Tallies) {
      PcTally &T = Tallies[PC];
      ++T.Dispatches;
      T.StepCycles += Cycles;
    }
  }
  /// Executes the micro-op span [\p U, \p U + \p N) of \p I and returns
  /// its value: one switch over the flat opcodes (IrUop). Restores the
  /// cursor to the instruction's own location, so costs charged after
  /// evaluation attribute to the command.
  template <bool Obs>
  [[gnu::always_inline]] int64_t evalSpan(const IrInstr &I, uint32_t U,
                                          uint32_t N, uint64_t &Cycles);
  /// Records an assignment event; a run that retains none makes no call.
  template <bool Obs>
  void record(uint32_t Slot, Label VarLabel, bool IsArray, uint64_t Index,
              int64_t Value) {
    if (Obs && RetainEvents)
      retain(Slot, VarLabel, IsArray, Index, Value);
  }
  void retain(uint32_t Slot, Label VarLabel, bool IsArray, uint64_t Index,
              int64_t Value);
  /// Flags the run as stopped at kMaxRetainedEvents (the events or the
  /// sampled misses are full) and ends it at the next step check.
  void stopAtEventLimit();

  /// What one instruction cost in this run, for the fold.
  struct PcTally {
    uint64_t Dispatches = 0;
    uint64_t StepCycles = 0;
  };

  /// A mitigate window opened by MitEnter and pending settlement.
  struct MitFrame {
    unsigned Eta = 0;
    int64_t Estimate = 0;
    Label Level;
    Label Pc;
    uint64_t Start = 0; ///< s_η: G at completion of the entry step.
    /// The site's resolved schedule (from the MitEnter instruction; never
    /// null once a frame is open). Settlement prices with exactly this
    /// policy, so per-site overrides stay per-site even when the Miss
    /// table is shared.
    const MitigationPolicy *Policy = nullptr;
  };

  const IrProgram &IR;
  const Program &P;
  MachineEnv &Env;
  InterpreterOptions Opts;
  /// Hot copies of the per-dispatch Opts fields: the dispatch loop reads
  /// these every transition, and pulling them next to the rest of the run
  /// state spares it the walk through the options block.
  ExecProbe *Probe;
  CostSink *Prov;
  uint64_t BaseStepCost;
  uint64_t AluCost;
  /// Opts.StepLimit, lowered to the current step when the retained events
  /// or sampled misses reach their limit so that the per-step check ends
  /// the run.
  uint64_t StepLimit;
  /// advance()'s per-step bound: the smaller of StepLimit and the pause
  /// point, lowered with StepLimit.
  uint64_t Bound = 0;
  Memory M;
  /// The Miss table, unless Opts.SharedMitState supplies one.
  std::optional<MitigationState> OwnMitState;
  MitigationState *MitState;
  const IrInstr *Code; ///< The instruction array.
  const IrUop *Uops;   ///< The shared micro-op pool.
  Trace T;
  uint64_t G = 0;
  uint32_t PC = 0;
  bool Halted = false;
  /// Cursor maintenance is skipped when nothing observes it (no sink, no
  /// miss sampling) — the cursor is only visible through those channels.
  bool TrackCursor;
  /// Opts.RetainEvents: record() keeps nothing when it is off.
  bool RetainEvents;
  /// Whether the run has an observer: a probe, a sink, miss sampling or
  /// retained events. Fixed at construction; it picks advance<true>.
  bool Observed;
  CostCursor Cur;
  /// One block holding Regs, SlotData, Frames, Tallies and Tickets, in
  /// that order.
  std::unique_ptr<std::byte[]> Scratch;
  int64_t *Regs; ///< The micro-op register file (NumRegs of them).
  size_t NumRegs = 0;
  /// Per-slot element-0 pointers: the load fast path indexes straight into
  /// slot storage without touching Memory's bookkeeping. Stores still go
  /// through Memory::slotAt (they need the slot's label for the event
  /// record anyway). They hold because M's values are only ever rewritten
  /// in place (Memory::restoreValues, stores, pokes), never by assigning a
  /// whole Memory, which may reallocate the slots.
  const int64_t **SlotData;
  /// The open mitigate windows, innermost last: Depth of them, at most
  /// MaxDepth (the IR's static nesting bound, which sized the block).
  MitFrame *Frames;
  uint32_t Depth = 0;
  uint32_t MaxDepth;
  /// One tally per instruction while a sink is attached, else null.
  PcTally *Tallies = nullptr;
  /// The repeat ticket of every access site that accessesOf names
  /// (MachineEnv::repeatAccess): instruction Pc's fetch at 2 * Pc and its
  /// store at 2 * Pc + 1, then micro-op U's load at UopTickets[U] (only
  /// Var and Elem micro-ops use theirs). A site's labels and store bit
  /// are fixed, so its ticket stays exact for as long as the env's epochs
  /// and set stamps say; tickets therefore survive restart() and stay warm
  /// across runs on an env whose state those runs did not change.
  RepeatTicket *Tickets;
  RepeatTicket *UopTickets;
};

} // namespace zam

#endif // ZAM_SEM_EXECCORE_H

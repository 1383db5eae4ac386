//===- ExecCore.h - The shared execution core -------------------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One execution core for the full semantics (Fig. 2 + Fig. 6), shared by
/// both engines: FullInterpreter is a run-to-completion driver over it and
/// StepInterpreter a resumable program-counter cursor. The core executes
/// the lowered program (ir/Ir.h) — one instruction per transition, its
/// expression work as register micro-ops — and owns everything a
/// transition involves:
///
///   - expression evaluation as register-transfer micro-ops (no run-time
///     value stack: operand registers and addresses are precomputed);
///   - cost charging: BaseStep + I-fetch + data accesses + ALU costs
///     (+ Branch for guards; sleep is a calibrated timer with no fetch);
///   - hardware access through the machine environment under the
///     instruction's precomputed [er, ew] labels — the machine env is the
///     security boundary and lowering does not move it;
///   - predictive mitigation windows (Fig. 6): a frame stack of open
///     mitigate sites, settled by MitEnd exactly like the paper's
///     MitigateEnd continuation;
///   - CostSink attribution: the cursor (location + innermost open site)
///     moves exactly as in the tree engines, so ledgers and miss samples
///     are byte-for-byte identical.
///
/// Each loop iteration of run() is one transition of the semantics, and
/// step() performs exactly the same transition once, so the two interleave
/// freely: a run resumed after any number of single steps observes exactly
/// what an uninterrupted run does.
///
/// The program is immutable; the core holds all run state, so engines stay
/// thin wrappers that only decide when to call step()/run() and when to
/// install the hardware observer. All of that state is set by one per-run
/// initialisation, which construction and restart() share: a restarted
/// core is indistinguishable from a freshly constructed one, but reuses
/// the memory, the scratch block, the trace's vectors and its own Miss
/// table instead of allocating them again.
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
  /// the slot-data pointers and the mitigate frame stack share one block
  /// (the stack sized by the IR's static nesting bound), and the core's
  /// own Miss table is built only when Opts.SharedMitState is unset.
  ExecCore(const IrProgram &IR, const Program &P, Memory InitM,
           MachineEnv &Env, InterpreterOptions &&Opts);
  /// Pinned: the engines register the core as Env's observer, and it
  /// points into itself (MitState).
  ExecCore(const ExecCore &) = delete;
  ExecCore &operator=(const ExecCore &) = delete;

  /// Whether the configuration has reached ⟨stop, m, E, G⟩ (or a run
  /// limit).
  bool done() const { return Halted; }

  /// Performs exactly one transition (one instruction). No-op when done.
  void step();

  /// Runs to completion (the big-step driver's tight loop). May follow any
  /// number of step() calls.
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
  /// HwObserver hook (installed by the owning engine): forwards accesses to
  /// the provenance sink and samples misses under RecordMisses.
  void onAccess(const HwAccess &Access) override;

  /// Per-opcode bodies. Each begins with the shared dispatch head
  /// (cursor + probe) and fully executes one logical transition.
  void execSkip(const IrInstr &I);
  void execAssign(const IrInstr &I);
  void execStore(const IrInstr &I);
  void execBranch(const IrInstr &I);
  void execSleep(const IrInstr &I);
  void execMitEnter(const IrInstr &I);
  void execMitEnd(const IrInstr &I);
  /// One transition of the instruction at \p I (a switch over the bodies
  /// above). Never called on Halt.
  void execInstr(const IrInstr &I);

  /// The per-run initialisation of construction and restart(): empties
  /// the trace's vectors (keeping their storage), zeroes the counters,
  /// clock, registers and cursor, restores the step limit, clears the
  /// core's own Miss table, tells the probe about the program, and halts
  /// at once on a program that is only Halt.
  void beginRun();
  void finalize();
  void head(const IrInstr &I) {
    // Attribution: every transition moves the cursor to its instruction's
    // source location before any of its costs (including the I-fetch).
    if (TrackCursor)
      Cur.Loc = I.Loc;
    if (Probe)
      Probe->onDispatch(PC);
  }
  uint64_t stepBase(const IrInstr &I) {
    return BaseStepCost + Env.fetch(I.CodeAddr, I.Read, I.Write);
  }
  void charge(CycleKind K, uint64_t N) {
    if (Prov)
      Prov->chargeCycles(Cur, K, N);
  }
  /// Executes the micro-op span [\p U, \p U + \p N) of \p I and returns
  /// its value. Restores the cursor to the instruction's own location, so
  /// costs charged after evaluation attribute to the command.
  int64_t evalSpan(const IrInstr &I, uint32_t U, uint32_t N,
                   uint64_t &Cycles);
  void record(uint32_t Slot, Label VarLabel, bool IsArray, uint64_t Index,
              int64_t Value);

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
  /// reach their limit so that the per-step check ends the run.
  uint64_t StepLimit;
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
  CostCursor Cur;
  /// One block holding Regs, SlotData and Frames, in that order.
  std::unique_ptr<std::byte[]> Scratch;
  int64_t *Regs; ///< The micro-op register file (NumRegs of them).
  size_t NumRegs = 0;
  /// Per-slot element-0 pointers: the load fast path indexes straight into
  /// slot storage without touching Memory's bookkeeping. Stores still go
  /// through Memory::slotAt (they need the slot's label for the event
  /// record anyway).
  const int64_t **SlotData;
  /// The open mitigate windows, innermost last: Depth of them, at most
  /// MaxDepth (the IR's static nesting bound, which sized the block).
  MitFrame *Frames;
  uint32_t Depth = 0;
  uint32_t MaxDepth;
};

} // namespace zam

#endif // ZAM_SEM_EXECCORE_H

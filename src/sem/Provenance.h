//===- Provenance.h - Source-attribution cost provenance --------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interpreter side of the source-attribution profiler: a cursor naming
/// the source construct currently being charged, and an abstract sink that
/// receives every cost of a run tagged with a source location. The obs
/// layer's CostLedger implements the sink (sem must not depend on obs, so
/// only the interface lives here — the same layering as
/// InterpreterOptions::OnMitigateWindow).
///
/// Cursor discipline (stepped and completed runs follow it identically, so
/// their ledgers agree bit for bit):
///   - Seq is transparent (it lowers away entirely); every other command
///     sets Cur.Loc to its own location when its step begins.
///   - Expression evaluation narrows Cur.Loc to the innermost valid
///     sub-expression location for the duration of each load's own accesses
///     (the execution core uses per-operand locations precomputed by the
///     lowering pass and restores the cursor after each expression, so it is
///     back at the command when its store is made).
///   - Cur.Site is the η of the innermost open mitigate window (kNoSite
///     outside any window); body costs charge to the innermost window only
///     (self/exclusive accounting).
///   - Mitigation padding is charged at the mitigate command's own location
///     with Cur.Site = η, right before the window closes.
///
/// The cursor travels with the costs that arrive as they happen: accesses
/// that miss, sleep, padding and window closes. Step cycles and the
/// accesses themselves arrive once per executed instruction when the run
/// stops, at the locations the cursor would have held (the instruction's
/// own for its step and its fetch and store, each load's own for that
/// load), so a hit costs the sink nothing.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_SEM_PROVENANCE_H
#define ZAM_SEM_PROVENANCE_H

#include "hw/MachineEnv.h"
#include "sem/Event.h"
#include "support/SourceLoc.h"

#include <cstdint>

namespace zam {

/// Names the source construct to which the interpreter is currently
/// charging costs.
struct CostCursor {
  /// Sentinel: not inside any mitigate window.
  static constexpr unsigned kNoSite = ~0u;

  /// Innermost Cmd/Expr location being executed (Line 0 = unknown).
  SourceLoc Loc;
  /// η of the innermost open mitigate window, or kNoSite.
  unsigned Site = kNoSite;
};

/// What a chargeCycles batch paid for.
enum class CycleKind {
  Step,  ///< Base step, fetch, ALU, branch, and data-access latency.
  Sleep, ///< The max(n,0) cycles a sleep command idles.
  Pad,   ///< Mitigation padding (prediction − consumed).
};

/// Receives every cost of a run, tagged with a cursor. Implementations must
/// be deterministic; they are invoked on the interpreter's thread.
///
/// The execution core folds its per-instruction tallies into the sink when
/// a run stops (it completes, reaches the step or event limit, or its
/// engine is destroyed mid-run): for each executed instruction, one Step
/// batch and one chargeAccesses per access it makes, multiplied by the
/// times it ran. Those fold calls carry Site = kNoSite. Everything else
/// arrives as it happens.
class CostSink {
public:
  virtual ~CostSink() = default;

  /// \p N cycles of kind \p K elapsed while the cursor was at \p Cur. Step
  /// cycles arrive from the fold, sleep and padding as they elapse.
  virtual void chargeCycles(const CostCursor &Cur, CycleKind K, uint64_t N) = 0;

  /// \p N hardware accesses, data accesses when \p IsData and instruction
  /// fetches otherwise, were made at \p Cur (from the fold). Every access
  /// walks the TLB and the L1, so each one that chargeMiss does not report
  /// hit in both.
  virtual void chargeAccesses(const CostCursor &Cur, bool IsData,
                              uint64_t N) = 0;

  /// One access, already counted by chargeAccesses, missed in the TLB or
  /// the L1 at \p Cur (the machine environment reports no other access).
  virtual void chargeMiss(const CostCursor &Cur, const HwAccess &Access) = 0;

  /// The mitigate window \p R settled while the cursor was at its own
  /// mitigate command (Cur.Site == R.Eta). Fires after the window's padding
  /// was charged and after R was appended to the trace.
  virtual void closeWindow(const CostCursor &Cur, const MitigateRecord &R) = 0;
};

struct IrProgram;

/// Receives the execution core's own dispatch stream: one callback per
/// instruction dispatched, plus branch directions and mitigate-window
/// settle outcomes. This is the engine self-profiler's data feed
/// (obs/ExecProfile.h implements it) — the same sem/obs layering as
/// CostSink. Implementations must be deterministic; they are invoked on
/// the interpreter's thread. Halt is never dispatched (the core stops
/// when the program counter lands on it), so it never reaches onDispatch.
class ExecProbe {
public:
  virtual ~ExecProbe() = default;

  /// A core was constructed over \p IR; fires once per run, before any
  /// dispatch. Probes capture per-pc descriptors here (the IR outlives
  /// the run only if the caller keeps it, so copy what you need).
  virtual void onProgram(const IrProgram &IR) = 0;

  /// The instruction at \p Pc is about to execute.
  virtual void onDispatch(uint32_t Pc) = 0;

  /// The Branch at \p Pc resolved; \p Taken is true when control went to
  /// the branch target (guard nonzero), false for fall-through.
  virtual void onBranch(uint32_t Pc, bool Taken) = 0;

  /// The mitigate window with site \p Eta settled, costing \p Epochs
  /// scheduler misprediction epochs (0 = the prediction held).
  virtual void onSettle(unsigned Eta, unsigned Epochs) = 0;
};

} // namespace zam

#endif // ZAM_SEM_PROVENANCE_H

//===- InterpreterOptions.h - Full-semantics run options --------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The options of one full-semantics run of the engine
/// (sem/FullInterpreter.h), held, once per run, by the execution core
/// (sem/ExecCore.h).
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_SEM_INTERPRETEROPTIONS_H
#define ZAM_SEM_INTERPRETEROPTIONS_H

#include "sem/CostModel.h"
#include "sem/Event.h"
#include "sem/Limits.h"
#include "sem/Mitigation.h"
#include "sem/Provenance.h"

#include <functional>

namespace zam {

/// Knobs of one full-semantics run. Costs and Mitigation are
/// the *lowering inputs*: they shape the compiled form
/// (sem/CompiledProgram.h), so every run of one compiled form must pass the
/// same ones. All other fields may change from run to run.
struct InterpreterOptions {
  CostModel Costs;
  /// Which mitigation policy governs each mitigate site: a run-wide default
  /// (fast-doubling when unset) plus optional per-η overrides. Lowering
  /// resolves each mitigate instruction's policy from this selection, and
  /// the same selection must be handed to the leakage accountant / trace
  /// exporter so windows are priced by the policy that scheduled them.
  PolicySelection Mitigation;
  PenaltyPolicy Penalty = PenaltyPolicy::PerLevel;
  /// Bound on primitive evaluation steps (diverging-program safety net;
  /// rationale at the constant's definition).
  uint64_t StepLimit = kDefaultStepLimit;
  /// When set, the interpreter uses (and mutates) this external Miss table
  /// instead of a fresh one, so predictive-mitigation state persists across
  /// runs — e.g. over the requests of one login session (Sec. 8.3). The
  /// state must be over the program's lattice; Penalty (and the selection's
  /// default policy) are ignored in favor of the shared state's own.
  MitigationState *SharedMitState = nullptr;
  /// Keep one AssignEvent per executed assignment in Trace::Events, up to
  /// kMaxRetainedEvents. Only the ℓA observation of Definition 1, trace
  /// export and dump, the adequacy and determinism checks and the
  /// prime+probe reconstruction read the events; callers that read only
  /// the clock, the mitigate windows and memory (the app sessions, the
  /// attack sampler, `zamc run`) turn it off and run in memory that does
  /// not grow with the run. Trace::requireEvents diagnoses a read of a
  /// trace that kept none.
  bool RetainEvents = true;
  /// Record a per-access miss timeline into Trace::Misses, whether the run
  /// is stepped or completed (costs an observer callback per access that
  /// misses, so it is off by default and enabled by the trace exporters).
  bool RecordMisses = false;
  /// Invoked by the engine right after a mitigate window settles and its
  /// record is appended to the trace. This is how the online leakage
  /// accountant (obs/LeakAudit.h) observes windows without sem depending on
  /// obs. Must be deterministic; called on the interpreter's thread.
  std::function<void(const MitigateRecord &)> OnMitigateWindow;
  /// When set, the engine charges every cost event (step cycles, hardware
  /// accesses, sleep and mitigation padding) to this sink tagged with the
  /// current attribution cursor — the source profiler's data feed
  /// (obs/CostLedger.h implements it). Installs the hardware observer like
  /// RecordMisses does. Not owned.
  CostSink *Provenance = nullptr;
  /// When set, the engine reports every instruction dispatch, branch
  /// direction, and mitigate-window settle to this probe — the engine
  /// self-profiler's data feed (obs/ExecProfile.h implements it). Purely
  /// observational: attaching a probe never changes costs, the trace, or
  /// the leakage ledger. Not owned.
  ExecProbe *Probe = nullptr;
};

} // namespace zam

#endif // ZAM_SEM_INTERPRETEROPTIONS_H

//===- Event.h - Observable events and execution traces ---------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Observable assignment events (x, v, t) of Sec. 6.1 and the per-mitigate
/// records (M_η, t) of Sec. 6.3. A Trace collects both for one execution;
/// analysis/Leakage.h computes adversary projections and the quantitative
/// measures of Definitions 1 and 2 over traces.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_SEM_EVENT_H
#define ZAM_SEM_EVENT_H

#include "hw/CacheConfig.h"
#include "lang/SlotNames.h"
#include "lattice/Label.h"
#include "lattice/SecurityLattice.h"
#include "support/Diagnostics.h"

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

namespace zam {

/// One observable assignment event (x, v, t). The variable x is its
/// declaration-order slot, resolved to a name through Trace::varName, so
/// recording an event copies 32 plain bytes and no string. Array stores
/// carry the (wrapped) element index. The adversary at level ℓA observes
/// the event iff Γ(x) ⊑ ℓA; monitoring low memory also reveals t (the
/// coresident threat model of Sec. 3.4).
struct AssignEvent {
  uint32_t Slot : 31 = 0; ///< Declaration-order slot of x.
  uint32_t IsArrayStore : 1 = 0;
  Label VarLabel; ///< Γ(x), recorded to avoid re-lookup in analyses.
  uint64_t ElemIndex = 0;
  int64_t Value = 0;
  uint64_t Time = 0; ///< Global clock G' at the completing transition.

  bool operator==(const AssignEvent &Other) const = default;
};
static_assert(sizeof(AssignEvent) == 32 &&
                  std::is_trivially_copyable_v<AssignEvent>,
              "AssignEvent is recorded once per executed assignment");

/// One executed mitigate command: the (M_η, t) tuples of Sec. 6.3, ordered
/// by completion time in the trace.
struct MitigateRecord {
  unsigned Eta = 0;      ///< Source identifier η.
  Label PcLabel;         ///< pc(M_η): the runtime pc at the occurrence.
  Label Level;           ///< lev(M_η): the declared mitigation level.
  int64_t Estimate = 0;  ///< Evaluated initial estimate n at entry.
  uint64_t Start = 0;    ///< Clock when the mitigated body began.
  uint64_t Duration = 0; ///< Padded duration (equals the final prediction).
  uint64_t BodyTime = 0; ///< Unpadded execution time of the body.
  bool Mispredicted = false;
  /// Miss[lev(M_η)] immediately after this window settled. The leakage
  /// accountant (obs/LeakAudit.h) reads it to price the next window's
  /// schedule without replaying the whole Miss table.
  unsigned MissesAfter = 0;
  /// Source line of the mitigate command (0 when unknown); the profiler
  /// attributes the window's leakage bits and padding to it.
  uint32_t Line = 0;

  bool operator==(const MitigateRecord &Other) const = default;
};

/// Language-level operation counters for one execution — the interpreter
/// side of the telemetry subsystem. Deterministic (derived only from the
/// executed program), so they may appear in byte-stable report JSON. Both
/// engines maintain them identically; the agreement tests compare them.
struct OpCounters {
  uint64_t Assignments = 0;     ///< Variable and array-element stores.
  uint64_t Branches = 0;        ///< if entries plus while guard evaluations.
  uint64_t MitigateEntries = 0; ///< mitigate commands entered.

  bool operator==(const OpCounters &Other) const = default;
};

/// One hardware access that missed somewhere in the hierarchy, recorded by
/// the big-step engine when InterpreterOptions::RecordMisses is set. Time
/// is the global clock at the start of the surrounding evaluation step (the
/// per-access offset within a step is not modeled at the language level).
struct AccessSample {
  Addr A = 0;
  uint64_t Time = 0;   ///< Clock at the start of the enclosing step.
  uint64_t Cycles = 0; ///< Latency charged for the access.
  bool IsData = false;
  bool IsStore = false;
  bool TlbMiss = false;
  bool L1Miss = false;
  bool L2Miss = false;
  /// Source line of the innermost construct performing the access (0 when
  /// unknown); recorded only when a provenance sink is installed.
  uint32_t Line = 0;

  bool operator==(const AccessSample &Other) const = default;
};

/// Everything recorded about one execution.
struct Trace {
  /// The assignment events, when the run retained them
  /// (InterpreterOptions::RetainEvents). Readers call requireEvents first:
  /// an empty vector from a run that kept none is "not recorded", not "no
  /// assignments".
  std::vector<AssignEvent> Events;
  /// The run's slot names (the memory image's shared table), so a trace
  /// outlives the program and the interpreter that produced it.
  std::shared_ptr<const SlotNames> Names;
  std::vector<MitigateRecord> Mitigations;
  OpCounters Ops;
  /// Miss timeline; populated only under InterpreterOptions::RecordMisses
  /// (big-step engine only — never part of trace agreement or observation
  /// keys).
  std::vector<AccessSample> Misses;
  /// Miss[ℓ] for every lattice level at completion (index = label index).
  /// With the Global penalty policy every entry is the shared counter.
  std::vector<unsigned> FinalMissTable;
  uint64_t FinalTime = 0;
  uint64_t Steps = 0;
  bool HitStepLimit = false;
  /// The run kept its events in Events.
  bool EventsRetained = true;
  /// The run stopped because Events reached kMaxRetainedEvents
  /// (sem/Limits.h); Events holds the first kMaxRetainedEvents of them.
  bool HitEventLimit = false;

  /// Whether a safety net stopped the run before it finished.
  bool hitLimit() const { return HitStepLimit || HitEventLimit; }

  /// Aborts with a diagnostic naming \p Reader unless the run retained its
  /// events. Checked in every build: counting the events of a run that
  /// kept none would silently see one empty observation.
  void requireEvents(const char *Reader) const {
    if (!EventsRetained)
      reportFatalError((std::string(Reader) +
                        ": the run did not retain its assignment events "
                        "(InterpreterOptions::RetainEvents is off)")
                           .c_str());
  }

  /// The name of \p E's variable. A trace with events always has a name
  /// table; sanitizer builds turn a missing table or an out-of-range slot
  /// into a diagnosed abort.
  const std::string &varName(const AssignEvent &E) const {
#ifdef ZAM_SANITIZE_CHECKS
    if (!Names || E.Slot >= Names->Names.size())
      reportFatalError("trace event slot has no entry in the name table");
#endif
    return Names->Names[E.Slot];
  }

  /// A canonical string encoding of the ℓA-observable event sequence, used
  /// to count distinguishable observations in Definition 1. Requires
  /// retained events.
  std::string observationKey(Label AdversaryLevel,
                             const SecurityLattice &Lat) const;
};

} // namespace zam

#endif // ZAM_SEM_EVENT_H

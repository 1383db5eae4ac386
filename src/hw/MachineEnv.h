//===- MachineEnv.h - The abstract machine environment E --------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The machine environment E of Sec. 3.3: all hardware state invisible at
/// the language level that is needed to predict timing. The interface is the
/// hardware side of the software/hardware contract: implementations must
/// satisfy Properties 2 (determinism), 5 (write label), 6 (read label) and
/// 7 (single-step machine-environment noninterference); analysis/ provides
/// dynamic checkers, and tests/hw validates each model against them.
///
/// Every access carries the command's timing labels [er, ew]. er is the
/// upper bound on machine state that may influence the access's duration;
/// ew is the lower bound on machine state the access may modify. This pair
/// is the "timing-label register" of the paper's SimpleScalar extension
/// (Sec. 8.1).
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_HW_MACHINEENV_H
#define ZAM_HW_MACHINEENV_H

#include "hw/Cache.h"
#include "hw/CacheConfig.h"
#include "lattice/SecurityLattice.h"
#include "support/Rng.h"

#include <memory>
#include <string>

namespace zam {

/// Discriminator for the concrete hardware designs (LLVM-style kind tag;
/// no RTTI).
enum class HwKind {
  NoPartition, ///< Commodity hardware, labels ignored ("nopar", insecure).
  NoFill,      ///< Sec. 4.2: one low cache + no-fill mode in high contexts.
  Partitioned, ///< Sec. 4.3: statically partitioned caches and TLBs.
};

const char *hwKindName(HwKind Kind);

/// Eviction/writeback/line-fill deltas one access caused in one structure
/// (TLB or cache level). Only an install, with the stale-copy removes of
/// the partitioned design, changes a structure's event counters, so the
/// observed walk reads them just before and after each install and nowhere
/// else: a hit reads none and reports zeros. Unobserved runs read none at
/// all.
struct HwEventDelta {
  uint32_t Evictions = 0;
  uint32_t Writebacks = 0;
  uint32_t LineFills = 0;
};

/// One completed hardware access, as reported to a HwObserver. Purely
/// observational: produced after the access's latency is fixed.
struct HwAccess {
  Addr A = 0;
  bool IsData = false;  ///< Data access (vs instruction fetch).
  bool IsStore = false; ///< Store (data accesses only).
  bool TlbMiss = false;
  bool L1Miss = false;
  bool L2Miss = false; ///< Implies L1Miss; the access went to memory.
  uint64_t Cycles = 0; ///< Latency charged for this access.
  /// Structure-event deltas (valid only while an observer is installed;
  /// zero for a structure the access did not install into). In the
  /// partitioned design each delta sums over the structure's partitions —
  /// an install may displace stale copies from several of them.
  HwEventDelta TlbEvents;
  HwEventDelta L1Events;
  HwEventDelta L2Events;
};

/// Telemetry hook: receives every hardware access while installed via
/// MachineEnv::setObserver(). Implementations must not mutate the
/// environment. The interpreter installs one to build cache-miss timelines
/// (see obs/TraceSink.h).
class HwObserver {
public:
  virtual ~HwObserver();
  virtual void onAccess(const HwAccess &Access) = 0;
};

/// Abstract machine environment.
class MachineEnv {
public:
  virtual ~MachineEnv();

  HwKind hwKind() const { return Kind; }
  const SecurityLattice &lattice() const { return *Lat; }
  const MachineEnvConfig &config() const { return Config; }

  /// Performs a data access (read or write of one word at \p A) under
  /// timing labels [\p Read, \p Write]. \returns the access latency in
  /// cycles. Updates D-TLB/L1D/L2D state subject to the write label.
  virtual uint64_t dataAccess(Addr A, bool IsStore, Label Read,
                              Label Write) = 0;

  /// Performs an instruction fetch from code address \p A under timing
  /// labels [\p Read, \p Write]. \returns the fetch latency in cycles.
  virtual uint64_t fetch(Addr A, Label Read, Label Write) = 0;

  /// Deep copy, including all cache/TLB state and statistics, but not the
  /// observer (see setObserver()). The built-in designs keep all cache/TLB
  /// state in one CacheArena (hw/Cache.h), so a clone is two allocations
  /// (the env and its arena) plus a copy of the occupancy counts and the
  /// resident lines. Clones share no mutable state with the source (the
  /// lattice and the design's HwPlan are immutable and shared), so
  /// distinct clones may be driven concurrently from different threads —
  /// the contract the exp/ParallelRunner fan-out relies on, audited by the
  /// CloneAudit tests in tests/exp_test.cpp.
  virtual std::unique_ptr<MachineEnv> clone() const = 0;

  /// Makes \p Slot a copy of this environment, reusing its storage when it
  /// can: afterwards *Slot is indistinguishable from a fresh clone() — the
  /// same state, statistics and no observer — and, like a clone, shares
  /// no mutable state with this one. The default is `Slot = clone()`. The
  /// built-in designs restore a slot of the same design, lattice and
  /// configuration in place, with no allocation, copying only what either
  /// side holds (a cold template restored into a cold slot copies no
  /// cache state at all); any other slot, or an empty one, gets a fresh
  /// clone. adv's streamObservations, which runs many samples from one
  /// template, keeps one slot per worker and calls this before each
  /// sample.
  virtual void copyInto(std::unique_ptr<MachineEnv> &Slot) const {
    Slot = clone();
  }

  /// Projected equivalence E1 ≈ℓ E2 (Sec. 3.3): equality of exactly the
  /// level-ℓ partition of the state. For unpartitioned designs all state
  /// lives at ⊥, so the projection at any other level is trivially equal.
  /// Both environments must have the same kind and configuration.
  virtual bool projectionEquals(const MachineEnv &Other, Label L) const = 0;

  /// ℓ-equivalence E1 ~ℓ E2: projected equivalence at every level ℓ' ⊑ ℓ.
  bool equivalentUpTo(const MachineEnv &Other, Label L) const;

  /// Full state equality (⊤-equivalence).
  bool stateEquals(const MachineEnv &Other) const {
    return equivalentUpTo(Other, Lat->top());
  }

  /// Flushes all cache/TLB state (cold machine).
  virtual void reset() = 0;

  /// Randomizes all state (property-based testing).
  virtual void randomize(Rng &R) = 0;

  /// Perturbs only state at levels ℓ' with ℓ' ⋢ \p L, preserving
  /// ~L-equivalence with the pre-state. Used by tests to build pairs
  /// E1 ~ℓ E2 that differ above ℓ. A no-op for designs with no such state.
  virtual void perturbAbove(Label L, Rng &R) = 0;

  /// Counters for the run so far: the hit/miss tallies kept at the access
  /// sites merged with the eviction/writeback/line-fill events kept by each
  /// Cache (summed over partitions in the partitioned design). Returned by
  /// value because of that merge.
  virtual HwStats stats() const { return Stats; }

  /// Clears all counters (hit/miss tallies and per-cache events).
  virtual void resetStats() { Stats.reset(); }

  /// Installs \p Observer to receive every subsequent access (nullptr to
  /// detach). Observers are deliberately NOT copied by clone(): clones may
  /// be driven from other threads, and an inherited observer would be a
  /// shared mutable sink.
  void setObserver(HwObserver *Observer) { Obs = Observer; }
  HwObserver *observer() const { return Obs; }

  /// One-line description for logs and bench output.
  std::string describe() const;

protected:
  MachineEnv(HwKind Kind, const SecurityLattice &Lat,
             const MachineEnvConfig &Config)
      : Kind(Kind), Lat(&Lat), Config(Config) {}

  /// Copies all state except the observer (see setObserver()).
  MachineEnv(const MachineEnv &Other)
      : Kind(Other.Kind), Lat(Other.Lat), Config(Other.Config),
        Stats(Other.Stats) {}
  MachineEnv &operator=(const MachineEnv &) = delete;

  void notifyAccess(const HwAccess &Access) {
    if (Obs)
      Obs->onAccess(Access);
  }

  HwKind Kind;
  const SecurityLattice *Lat;
  MachineEnvConfig Config;
  HwStats Stats;
  HwObserver *Obs = nullptr;
};

/// The largest lattice a machine environment accepts. The partition plan
/// (hw/HardwareModels.h) packs a partition index under a probe-only bit
/// 0x80 in one byte, indexes at most Levels³ entries with 32-bit offsets
/// and keeps one bit per level in a 64-bit mask; all three hold up to
/// this limit.
constexpr unsigned kMaxLatticeLevels = 64;

/// Factory: builds a machine environment of the given design over \p Lat
/// with \p Config (Table 1 defaults). Fatal error if \p Lat has more than
/// kMaxLatticeLevels levels.
std::unique_ptr<MachineEnv>
createMachineEnv(HwKind Kind, const SecurityLattice &Lat,
                 const MachineEnvConfig &Config = MachineEnvConfig());

} // namespace zam

#endif // ZAM_HW_MACHINEENV_H

//===- HardwareModels.h - The three hardware designs ------------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One machine environment, three plans. Every structure (caches and TLBs)
/// is split into partitions, each at one lattice level, and every access
/// follows one rule: an access [er,ew] derives its timing only from the
/// partitions at levels ⊑ er (Property 6), modifies only those at levels
/// ⊒ ew (Property 5), and installs into the partition at level ew, if there
/// is one, after moving any stale copy out of the partitions above ew. A
/// copy found above ew is therefore timed as a miss and moved, exactly as
/// the paper's partitioned design prescribes. The designs differ only in
/// their partitions and in how they read the labels:
///
///  - partitioned (Sec. 4.3): one partition per lattice level, each
///    structure's sets divided evenly among them.
///
///  - nofill (Sec. 4.2): one partition at ⊥. An access whose write label is
///    not ⊥ may probe it but not modify it, and has no partition to install
///    into: the no-fill mode of Intel Pentium/Xeon processors.
///
///  - nopar: commodity hardware, the paper's insecure baseline (Table 2).
///    One partition at ⊥, and every access is read as [⊥,⊥], so
///    high-context accesses disturb low cache state and the unmitigated
///    timing attacks work (it VIOLATES Properties 5 and 7).
///
/// The rule is evaluated once per environment into a HwPlan, which the
/// access path walks.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_HW_HARDWAREMODELS_H
#define ZAM_HW_HARDWAREMODELS_H

#include "hw/MachineEnv.h"

#include <memory>
#include <vector>

namespace zam {

/// The six structures of every design. The CacheArena stores structure S's
/// partitions at S * Parts + P.
enum HwStructure : unsigned {
  kL1D,
  kL2D,
  kL1I,
  kL2I,
  kDTlb,
  kITlb,
  kNumStructures
};

/// The partition plan of one design over one lattice: which partitions
/// each (er, ew) pair reads, probes and installs into. A function of the
/// design and the immutable lattice alone, so it is built once per
/// environment and shared, read-only, by all its clones.
struct HwPlan {
  /// Marks a lookup entry whose partition may be probed but not modified
  /// (ew ⋢ level, Property 5). Partition indices stay below it.
  static constexpr uint8_t kProbeOnly = 0x80;
  /// The Target of a pair that may install nowhere.
  static constexpr uint32_t kNoTarget = ~0u;

  /// What one (er, ew) pair does.
  struct Route {
    uint32_t Begin, End; ///< Its lookup entries, Lookup[Begin, End).
    uint32_t Target;     ///< The partition at level ew, or kNoTarget.
  };

  /// The level of each partition: ⊥ first, then any others in ascending
  /// label-index order.
  std::vector<Label> PartLevel;
  /// One route per (er, ew), at er.index() * Levels + ew.index().
  std::vector<Route> Routes;
  /// Lookup entries: a partition index, or'ed with kProbeOnly. A route's
  /// entries are the partitions at levels ⊑ er, in ascending order, so
  /// each starts with partition 0.
  std::vector<uint8_t> Lookup;
  /// Bit ew is set when partition 0 is probe-only for write label ew, the
  /// kProbeOnly bit of every (er, ew) route's first entry. A copy the walk
  /// reads without resolving the route, so its first step waits on no
  /// load of the plan.
  uint64_t BottomProbeOnly = 0;
  /// Stale-copy sweeps: partition T's sweep, Sweep[SweepOff[T],
  /// SweepOff[T + 1]), is every other partition at a level ⊒ T's.
  std::vector<uint8_t> Sweep;
  std::vector<uint32_t> SweepOff;

  unsigned parts() const { return PartLevel.size(); }
};

/// The machine environment of all three designs (HwKind), driven by its
/// HwPlan. Not final: repeat_hit_test derives an env that counts its walks.
class HardwareEnv : public MachineEnv {
public:
  /// Fatal error if \p Lat has more than kMaxLatticeLevels levels, or if
  /// checkCacheConfig (hw/Cache.h) rejects one of \p Config's structures.
  HardwareEnv(HwKind Kind, const SecurityLattice &Lat,
              const MachineEnvConfig &Config);
  /// A copy of \p Other's state and counters (MachineEnv's copy: fresh
  /// epochs, no observer) whose set stamps point into its own arena.
  HardwareEnv(const HardwareEnv &Other);

  uint64_t dataAccess(Addr A, bool IsStore, Label Read, Label Write) override;
  uint64_t fetch(Addr A, Label Read, Label Write) override;
  std::unique_ptr<MachineEnv> clone() const override;
  /// Restores a HardwareEnv slot of the same design, lattice and
  /// configuration in place (CacheArena::copyFrom); clones otherwise.
  void copyInto(std::unique_ptr<MachineEnv> &Slot) const override;
  bool projectionEquals(const MachineEnv &Other, Label L) const override;
  void reset() override;
  void randomize(Rng &R) override;
  void perturbAbove(Label L, Rng &R) override;
  HwStats stats() const override;
  void resetStats() override;

  /// The per-partition configuration actually used for \p Full (sets
  /// divided by the number of partitions, at least one each). Exposed for
  /// tests.
  CacheConfig partitionConfig(const CacheConfig &Full) const;

  /// The plan this environment walks. Exposed for tests.
  const HwPlan &plan() const { return *Plan; }

  /// Every partition's cache, structure S's at S * Parts. Exposed for
  /// tests.
  const CacheArena &caches() const { return Caches; }

private:
  /// Structure \p S's partitions.
  Cache *parts(HwStructure S) { return Caches.data() + S * Parts; }

  /// The stamp words the arena holds: one per set index of each side's
  /// TLB and L1 (MachineEnv::SetStamps).
  size_t stampWords(const MachineEnvConfig &Config) const;

  /// Points MachineEnv::StampedCache and SetStamps at this env's arena.
  void bindStamps();

  /// Installs the block at \p A into partition \p Target of \p P (none
  /// if it is kNoTarget), after removing any stale copy from Target's
  /// sweep.
  void install(Cache *P, Addr A, uint32_t Target, bool Dirty);

  /// Walks one TLB + two-level cache path (data when \p IsData, else
  /// instruction). \p Observed selects whether an access that misses in
  /// the TLB or the L1 is reported to the observer, with its miss flags
  /// and the event deltas of each install; the unobserved instantiation is
  /// the hot path, and an observed hit in both reports nothing.
  template <bool Observed>
  uint64_t accessHierarchy(bool IsData, Addr A, Label Read, Label Write,
                           bool IsStore);

  /// An access: the observed walk when an observer is installed, else the
  /// unobserved one.
  uint64_t access(bool IsData, Addr A, Label Read, Label Write,
                  bool IsStore);

  /// The observed access: the observed walk, which notifies the
  /// HwObserver of a miss.
  uint64_t accessObserved(bool IsData, Addr A, Label Read, Label Write,
                          bool IsStore);

  std::shared_ptr<const HwPlan> Plan;
  /// Plan's arrays and sizes, cached beside the arena so the access path
  /// loads them straight from the environment.
  const HwPlan::Route *Routes;
  const uint8_t *Lookup;
  const uint8_t *Sweep;
  const uint32_t *SweepOff;
  uint64_t BottomProbeOnly;
  unsigned Levels;
  unsigned Parts;
  CacheArena Caches;
};

} // namespace zam

#endif // ZAM_HW_HARDWAREMODELS_H

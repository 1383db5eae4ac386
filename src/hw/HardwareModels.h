//===- HardwareModels.h - The three hardware designs ------------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Three concrete machine environments:
///
///  - NoPartitionHw — commodity hardware that ignores timing labels. This is
///    the paper's "nopar" baseline (Table 2); it deliberately VIOLATES
///    Properties 5 and 7 (high-context accesses disturb low cache state),
///    which is what makes the unmitigated timing attacks work.
///
///  - NoFillHw — the Sec. 4.2 realization on standard hardware: the whole
///    cache hierarchy is labeled ⊥ and commands whose write label is not ⊥
///    run in "no-fill" mode (accesses are served without installing lines or
///    updating LRU state), mirroring the no-fill mode of Intel Pentium/Xeon
///    processors.
///
///  - PartitionedHw — the Sec. 4.3 design: every cache and TLB is statically
///    partitioned per security level (sets divided evenly). An access with
///    labels [er,ew] may derive its timing only from partitions at levels
///    ⊑ er, may promote LRU state only in partitions at levels ⊒ ew, and
///    installs into the ew partition. For consistency a copy resident in a
///    partition above ew is moved (removed + reinstalled at ew) and the
///    access is timed as a miss, exactly as the paper prescribes.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_HW_HARDWAREMODELS_H
#define ZAM_HW_HARDWAREMODELS_H

#include "hw/MachineEnv.h"

#include <memory>
#include <vector>

namespace zam {

/// The six structures of every design, indexing its CacheArena (the
/// partitioned design stores structure S's partitions at S * Levels + I).
enum HwStructure : unsigned {
  kL1D,
  kL2D,
  kL1I,
  kL2I,
  kDTlb,
  kITlb,
  kNumStructures
};

/// Shared implementation for the two designs with a single (unpartitioned)
/// copy of every structure, all of it labeled ⊥.
class UnifiedHwBase : public MachineEnv {
public:
  uint64_t dataAccess(Addr A, bool IsStore, Label Read, Label Write) override;
  uint64_t fetch(Addr A, Label Read, Label Write) override;
  bool projectionEquals(const MachineEnv &Other, Label L) const override;
  void reset() override;
  void randomize(Rng &R) override;
  void perturbAbove(Label L, Rng &R) override;
  HwStats stats() const override;
  void resetStats() override;

protected:
  UnifiedHwBase(HwKind Kind, const SecurityLattice &Lat,
                const MachineEnvConfig &Config, bool NoFillMode);

  /// Whether an access with write label \p Write may modify the (⊥-labeled)
  /// cache state. NoPartition says always; NoFill says only when ew = ⊥.
  /// Data-driven rather than virtual: it runs on every access, and both
  /// operands (the mode flag and the cached ⊥) are fixed at construction.
  bool mayFill(Label Write) const { return !NoFillMode || Write == Bottom; }

  /// One Cache per HwStructure.
  CacheArena Caches;

private:
  bool NoFillMode;
  Label Bottom; ///< lattice().bottom(), cached off the access path.
};

/// Commodity hardware ("nopar"): timing labels are ignored.
class NoPartitionHw final : public UnifiedHwBase {
public:
  NoPartitionHw(const SecurityLattice &Lat, const MachineEnvConfig &Config)
      : UnifiedHwBase(HwKind::NoPartition, Lat, Config,
                      /*NoFillMode=*/false) {}

  std::unique_ptr<MachineEnv> clone() const override;
};

/// Standard hardware with a no-fill mode (Sec. 4.2).
class NoFillHw final : public UnifiedHwBase {
public:
  NoFillHw(const SecurityLattice &Lat, const MachineEnvConfig &Config)
      : UnifiedHwBase(HwKind::NoFill, Lat, Config, /*NoFillMode=*/true) {}

  std::unique_ptr<MachineEnv> clone() const override;
};

/// Statically partitioned caches and TLBs (Sec. 4.3), generalized from the
/// paper's two-level design to one partition per lattice level. Each
/// structure's sets are divided evenly among the levels (at least one set
/// per partition).
class PartitionedHw final : public MachineEnv {
public:
  PartitionedHw(const SecurityLattice &Lat, const MachineEnvConfig &Config);

  uint64_t dataAccess(Addr A, bool IsStore, Label Read, Label Write) override;
  uint64_t fetch(Addr A, Label Read, Label Write) override;
  std::unique_ptr<MachineEnv> clone() const override;
  bool projectionEquals(const MachineEnv &Other, Label L) const override;
  void reset() override;
  void randomize(Rng &R) override;
  void perturbAbove(Label L, Rng &R) override;
  HwStats stats() const override;
  void resetStats() override;

  /// The per-partition configuration actually used for \p Full (sets divided
  /// by the number of levels). Exposed for tests.
  CacheConfig partitionConfig(const CacheConfig &Full) const;

  /// Marks a lookup-plan entry whose partition may be probed but not
  /// modified (Property 5). Public for the plan walker in the
  /// implementation file.
  static constexpr uint8_t kProbeOnly = 0x80;

  /// Precomputed partition walks, one per (er, ew) pair: a lookup visits
  /// exactly the partitions at levels ⊑ er in ascending label order, each
  /// entry packing the partition index with a probe-only bit (set when
  /// ew ⋢ level, Property 5). An install's stale-copy sweep visits the
  /// partitions I ≠ ew with ew ⊑ I. Both walks are functions of the
  /// immutable lattice alone, so they are computed once per environment
  /// and shared, read-only, by all its clones.
  struct Walks {
    std::vector<uint8_t> Lookup;     ///< Packed entries for all (er,ew).
    std::vector<uint16_t> LookupOff; ///< Levels²+1 offsets into Lookup.
    std::vector<uint8_t> Victims;    ///< Packed entries for all ew.
    std::vector<uint16_t> VictimOff; ///< Levels+1 offsets.
  };

private:
  /// Structure \p S's partitions, indexed by label index.
  Cache *parts(HwStructure S) { return Caches.data() + S * Levels; }
  const Cache *parts(HwStructure S) const {
    return Caches.data() + S * Levels;
  }

  /// Moves any copy resident above \p Write down to the \p Write partition
  /// and installs the block there.
  void partInstall(Cache *P, Addr A, Label Write, bool Dirty = false);

  /// Walks one TLB + two-level cache path (data when \p IsData, else
  /// instruction). \p Observed selects whether miss flags and the event
  /// deltas of each install are reported through \p Acc; the unobserved
  /// instantiation is the hot path.
  template <bool Observed>
  uint64_t accessHierarchy(bool IsData, Addr A, Label Read, Label Write,
                           bool IsStore, HwAccess *Acc);

  /// The observed access: the observed walk, then the HwObserver
  /// notification.
  uint64_t accessObserved(bool IsData, Addr A, Label Read, Label Write,
                          bool IsStore);

  unsigned Levels = 0;
  std::shared_ptr<const Walks> Plan;
  /// Plan's arrays, cached beside the arena so the access path loads them
  /// straight from the environment.
  const uint8_t *Lookup;
  const uint16_t *LookupOff;
  const uint8_t *Victims;
  const uint16_t *VictimOff;
  /// The arena holds structure S's partitions at S * Levels + I.
  CacheArena Caches;
};

} // namespace zam

#endif // ZAM_HW_HARDWAREMODELS_H

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
/// else: a structure that hit reports zeros. Unobserved runs read none at
/// all.
struct HwEventDelta {
  uint32_t Evictions = 0;
  uint32_t Writebacks = 0;
  uint32_t LineFills = 0;
};

/// One completed hardware access that missed in the TLB or the L1, as
/// reported to a HwObserver. Purely observational: produced after the
/// access's latency is fixed. TlbMiss || L1Miss always holds; an access
/// that hit in both installed nothing and is never reported.
struct HwAccess {
  Addr A = 0;
  bool IsData = false;  ///< Data access (vs instruction fetch).
  bool IsStore = false; ///< Store (data accesses only).
  bool TlbMiss = false;
  bool L1Miss = false;
  bool L2Miss = false; ///< Implies L1Miss; the access went to memory.
  uint64_t Cycles = 0; ///< Latency charged for this access.
  /// Structure-event deltas (zero for a structure the access did not
  /// install into). In the partitioned design each delta sums over the
  /// structure's partitions — an install may displace stale copies from
  /// several of them.
  HwEventDelta TlbEvents;
  HwEventDelta L1Events;
  HwEventDelta L2Events;
};

/// Telemetry hook: receives every access that misses in the TLB or the L1
/// while installed via MachineEnv::setObserver(). An access that hits in
/// both builds no HwAccess and makes no call, so observing costs a hit
/// nothing beyond the walk; a consumer that needs the hits derives them
/// from its own access count (every access walks the TLB and the L1) minus
/// the misses reported here, and the L2 outcome of every L1 miss is in its
/// report. Implementations must not mutate the environment. The
/// interpreter installs one to charge the cost ledger and to build
/// cache-miss timelines (see obs/TraceSink.h).
class HwObserver {
public:
  virtual ~HwObserver();
  virtual void onAccess(const HwAccess &Access) = 0;
};

/// A repeat ticket: what an access site learned the last time its access
/// left its side's state unchanged — a hit in the TLB and the L1 that
/// moved nothing, or a no-fill probe that missed and installed nothing. E
/// is deterministic (Property 2), so while the access side's state stays
/// unchanged — its epoch still equals the ticket's — the same access from
/// the same site (the same address, labels and store bit) has the same
/// outcome again, for the same Cycles, and changes nothing again.
/// MachineEnv::repeatAccess honours a ticket; MachineEnv::takeTicket
/// grants one. Epoch 0 is never current, so a default ticket matches
/// nothing.
struct RepeatTicket {
  /// The outcome bits, above every epoch an env can reach. A hit ticket
  /// has none set, so its Epoch compares equal to the side's epoch as it
  /// is; a miss ticket has kTlbMiss or kL1Miss set (kL2Miss implies
  /// kL1Miss).
  static constexpr uint64_t kTlbMiss = uint64_t(1) << 63;
  static constexpr uint64_t kL1Miss = uint64_t(1) << 62;
  static constexpr uint64_t kL2Miss = uint64_t(1) << 61;
  static constexpr uint64_t kMissed = kTlbMiss | kL1Miss | kL2Miss;

  Addr A = 0;
  /// The side's epoch at the grant, or'ed with the outcome bits.
  uint64_t Epoch = 0;
  uint64_t Cycles = 0;
};
static_assert(sizeof(RepeatTicket) == 24, "the outcome packs into the epoch");

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
  /// clone. The batch loops that run many times from one template
  /// (exp/RunSlice.h: the leakage enumeration, the adversary's samples)
  /// keep one slot per worker slice and call this before each run.
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

  /// Installs \p Observer to receive every subsequent access that misses
  /// in the TLB or the L1 (nullptr to detach). Observers are deliberately
  /// NOT copied by clone(): clones may be driven from other threads, and an
  /// inherited observer would be a shared mutable sink.
  void setObserver(HwObserver *Observer) { Obs = Observer; }
  HwObserver *observer() const { return Obs; }

  /// One-line description for logs and bench output.
  std::string describe() const;

  /// Repeat tickets. An engine keeps one RepeatTicket per access site,
  /// and each site always makes the same kind of access (data or fetch,
  /// store or load) under the same labels [er, ew]. Before an access it
  /// calls repeatAccess; when that returns true the access is done — its
  /// TLB, L1 and (after an L1 miss) L2 outcomes are counted in the stats
  /// exactly as the walk would count them, the latency is
  /// \p Ticket.Cycles, and dataAccess/fetch are not called. Otherwise the
  /// engine makes the access and then calls takeTicket for the site.
  ///
  /// Exactness rests on the epochs: an environment that grants tickets
  /// advances a side's epoch (instruction: ITLB/L1I/L2I; data:
  /// DTLB/L1D/L2D) on every change to that side's state — an install, a
  /// stale-copy remove, an LRU promotion, the first set of a dirty bit,
  /// and reset, randomize, perturbAbove and copyInto — and grants a ticket
  /// only for an access that changed nothing. A hit ticket (a TLB and L1
  /// hit) is the common case and costs one compare; a miss ticket (a
  /// no-fill probe that missed and so installed nothing) is checked only
  /// when that compare fails. A repeated hit reaches no HwObserver, and
  /// needs none: an access that hits in both is never reported. A miss
  /// must reach the observer, so the observed walk grants no miss ticket
  /// and repeatAccess refuses one while an observer is installed.
  /// Environments that keep no epochs (those that do not set LastAccess,
  /// such as wrappers that forward to another env) never grant a ticket,
  /// so every access reaches them.
  bool repeatAccess(const RepeatTicket &Ticket, Addr A, bool IsData) {
    if (Ticket.Epoch == Epochs[IsData] && Ticket.A == A) {
      ++(IsData ? Stats.DTlb : Stats.ITlb).Hits;
      ++(IsData ? Stats.L1D : Stats.L1I).Hits;
      return true;
    }
    return (Ticket.Epoch & RepeatTicket::kMissed) &&
           repeatMiss(Ticket, A, IsData);
  }

  /// Grants \p Ticket for the access just made: valid when that access
  /// changed nothing (and, if it missed, no observer saw it), else one
  /// that matches nothing.
  void takeTicket(RepeatTicket &Ticket) const { Ticket = LastAccess; }

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

  /// Marks every ticket of both sides stale (a change to all state).
  void advanceEpochs() {
    ++Epochs[0];
    ++Epochs[1];
  }

  HwKind Kind;
  const SecurityLattice *Lat;
  MachineEnvConfig Config;
  HwStats Stats;
  HwObserver *Obs = nullptr;
  /// Per-side state epochs, [0] instruction and [1] data (see
  /// repeatAccess). They start at 1, so a default ticket (epoch 0) never
  /// matches, and only ever grow: tickets are only compared against the
  /// env that granted them.
  uint64_t Epochs[2] = {1, 1};
  /// The last access as a ticket when it changed nothing; epoch 0
  /// otherwise. Only environments that keep epochs set it.
  RepeatTicket LastAccess;

private:
  /// repeatAccess for a miss ticket: counts the ticket's outcome when it
  /// is current for \p A and no observer is installed. Out of line, so
  /// that the hit check stays small at every access site it is inlined
  /// into.
  [[gnu::noinline]] bool repeatMiss(const RepeatTicket &Ticket, Addr A,
                                    bool IsData) {
    if ((Ticket.Epoch & ~RepeatTicket::kMissed) != Epochs[IsData] ||
        Ticket.A != A || Obs)
      return false;
    const bool TlbMiss = Ticket.Epoch & RepeatTicket::kTlbMiss;
    CacheLevelStats &Tlb = IsData ? Stats.DTlb : Stats.ITlb;
    ++(TlbMiss ? Tlb.Misses : Tlb.Hits);
    CacheLevelStats &L1 = IsData ? Stats.L1D : Stats.L1I;
    if (!(Ticket.Epoch & RepeatTicket::kL1Miss)) {
      ++L1.Hits;
      return true;
    }
    ++L1.Misses;
    CacheLevelStats &L2 = IsData ? Stats.L2D : Stats.L2I;
    ++(Ticket.Epoch & RepeatTicket::kL2Miss ? L2.Misses : L2.Hits);
    return true;
  }
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

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

#include <algorithm>
#include <bit>
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
/// is deterministic (Property 2), so while the state that access read
/// stays unchanged, the same access from the same site (the same labels
/// and store bit) has the same outcome again, for the same Cycles, and
/// changes nothing again. For a miss ticket that state is the access
/// side's, and the ticket holds while the side's epoch still equals its
/// own, for the same address. A hit ticket reads only its page's TLB set
/// and its line's L1 set, so it holds while neither set has changed, for
/// any address in the same L1 line and page. MachineEnv::repeatAccess
/// honours a ticket; MachineEnv::takeTicket grants one. Epoch 0 is never
/// current, so a default ticket matches nothing.
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
  /// hit) is the common case and costs one compare while its side's
  /// epoch and its address are unchanged. When either is not, and the
  /// access is in the ticket's L1 line and page, the set stamps say
  /// whether the two sets the hit read changed since the ticket's epoch;
  /// if not, the hit repeats and the ticket is made current for this
  /// address. A miss ticket (a no-fill probe that missed and so installed
  /// nothing) repeats only at its own address on an unchanged side. A
  /// repeated hit reaches no HwObserver, and needs none: an access that
  /// hits in both is never reported. A miss must reach the observer, so
  /// the observed walk grants no miss ticket and repeatAccess refuses one
  /// while an observer is installed. Environments that keep no epochs
  /// (those that do not set LastAccess, such as wrappers that forward to
  /// another env) never grant a ticket, so every access reaches them.
  bool repeatAccess(RepeatTicket &Ticket, Addr A, bool IsData) {
    if (Ticket.Epoch == Epochs[IsData] && Ticket.A == A) {
      ++(IsData ? Stats.DTlb : Stats.ITlb).Hits;
      ++(IsData ? Stats.L1D : Stats.L1I).Hits;
      return true;
    }
    // Only a ticket granted since the side's last whole-state change may
    // still repeat: not one of epoch 0, nor any from before a restore. A
    // miss ticket's outcome bits put it above every stamp.
    if (Ticket.Epoch <= WholeStamps[IsData])
      return false;
    // The slow path only reads the ticket, so the compiler can pass its
    // fields in registers; the ticket is refreshed here, to the epoch it
    // holds from now on, or left alone when it does not repeat.
    const uint64_t Epoch = repeatStale(Ticket, A, IsData);
    if (!Epoch)
      return false;
    Ticket.Epoch = Epoch;
    Ticket.A = A;
    return true;
  }

  /// Grants \p Ticket for the access just made: valid when that access
  /// changed nothing (and, if it missed, no observer saw it), else one
  /// that matches nothing.
  void takeTicket(RepeatTicket &Ticket) const { Ticket = LastAccess; }

  /// How many accesses repeatAccess answered from a hit ticket that was
  /// not current for them (stale, or for another word of the line) by
  /// checking its set stamps, since this env was made.
  uint64_t revalidations() const { return Revalidations; }

protected:
  MachineEnv(HwKind Kind, const SecurityLattice &Lat,
             const MachineEnvConfig &Config)
      : Kind(Kind), Lat(&Lat), Config(Config),
        SameBlockShift{sameBlockShift(Config.L1I, Config.ITlb),
                       sameBlockShift(Config.L1D, Config.DTlb)} {}

  /// Copies all state except the observer (see setObserver()). The copy's
  /// epochs start afresh: tickets are only compared against the env that
  /// granted them.
  MachineEnv(const MachineEnv &Other)
      : Kind(Other.Kind), Lat(Other.Lat), Config(Other.Config),
        Stats(Other.Stats), SameBlockShift{Other.SameBlockShift[0],
                                           Other.SameBlockShift[1]} {}
  MachineEnv &operator=(const MachineEnv &) = delete;

  void notifyAccess(const HwAccess &Access) {
    if (Obs)
      Obs->onAccess(Access);
  }

  /// Marks every ticket of both sides stale (a change to all state).
  void advanceEpochs() {
    for (unsigned Side = 0; Side != 2; ++Side)
      WholeStamps[Side] = ++Epochs[Side];
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
  /// Per side, the epoch of its last change to all state (advanceEpochs):
  /// a hit ticket from before it never revalidates.
  uint64_t WholeStamps[2] = {0, 0};
  /// Per side, how far an address may differ from a hit ticket's and
  /// still be in its L1 line and TLB page: (A ^ Ticket.A) >> shift is 0
  /// exactly then. The smaller of the two blocks' log2 sizes; 0 (the
  /// ticket's own address only) unless both are powers of two.
  uint8_t SameBlockShift[2];
  /// The last access as a ticket when it changed nothing; epoch 0
  /// otherwise. Only environments that keep epochs set it.
  RepeatTicket LastAccess;
  /// Set stamps, for an env that keeps them (HardwareEnv sets these; a
  /// copy starts without): per side and for its TLB ([0]) and L1 ([1]),
  /// the cache whose set indices they follow, and one stamp per set
  /// index, the side epoch at which that set last changed in any
  /// partition. Null when the env keeps none: its hit tickets then hold
  /// only while their side's epoch does.
  const Cache *StampedCache[2][2] = {};
  uint64_t *SetStamps[2][2] = {};
  uint64_t Revalidations = 0;

private:
  static uint8_t sameBlockShift(const CacheConfig &L1,
                                const CacheConfig &Tlb) {
    if (!std::has_single_bit(L1.BlockBytes) ||
        !std::has_single_bit(Tlb.BlockBytes))
      return 0;
    return static_cast<uint8_t>(
        std::countr_zero(std::min(L1.BlockBytes, Tlb.BlockBytes)));
  }

  /// repeatAccess for a ticket that is not current for \p A and was
  /// granted since the side's last whole-state change. \returns the
  /// ticket's epoch from now on when it repeats, else 0. A miss ticket
  /// repeats when it is current but for its outcome bits, for its own
  /// address, and no observer is installed: its outcome is counted and
  /// its epoch returned as it is. A hit ticket repeats when \p A is in
  /// its L1 line and page and neither set its hit read has a stamp newer
  /// than its epoch: the TLB and L1 hits are counted and the side's epoch
  /// is returned, which makes the ticket current for \p A. Out of line,
  /// so that the hit check stays small at every access site it is
  /// inlined into; defined here, calling nothing and reading the ticket
  /// only, so that the sites' code keeps its values in registers across
  /// the call (a virtual call here, or a ticket written through the
  /// reference, slowed every workload's engine loop).
  [[gnu::noinline]] uint64_t repeatStale(const RepeatTicket &Ticket, Addr A,
                                         bool IsData) {
    if (!(Ticket.Epoch & RepeatTicket::kMissed)) {
      // A hit ticket of epoch E was granted in the state the side had at
      // E; a set whose stamp is newer changed after the grant.
      const Cache *const Tlb = StampedCache[IsData][0];
      if (!Tlb || ((Ticket.A ^ A) >> SameBlockShift[IsData]) != 0 ||
          SetStamps[IsData][0][Tlb->setOf(A)] > Ticket.Epoch ||
          SetStamps[IsData][1][StampedCache[IsData][1]->setOf(A)] >
              Ticket.Epoch)
        return 0;
      ++(IsData ? Stats.DTlb : Stats.ITlb).Hits;
      ++(IsData ? Stats.L1D : Stats.L1I).Hits;
      ++Revalidations;
      return Epochs[IsData];
    }
    if ((Ticket.Epoch & ~RepeatTicket::kMissed) != Epochs[IsData] ||
        Ticket.A != A || Obs)
      return 0;
    const bool TlbMiss = Ticket.Epoch & RepeatTicket::kTlbMiss;
    CacheLevelStats &Tlb = IsData ? Stats.DTlb : Stats.ITlb;
    ++(TlbMiss ? Tlb.Misses : Tlb.Hits);
    CacheLevelStats &L1 = IsData ? Stats.L1D : Stats.L1I;
    if (!(Ticket.Epoch & RepeatTicket::kL1Miss)) {
      ++L1.Hits;
      return Ticket.Epoch;
    }
    ++L1.Misses;
    CacheLevelStats &L2 = IsData ? Stats.L2D : Stats.L2I;
    ++(Ticket.Epoch & RepeatTicket::kL2Miss ? L2.Misses : L2.Hits);
    return Ticket.Epoch;
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

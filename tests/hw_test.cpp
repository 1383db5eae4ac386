//===- hw_test.cpp - The three hardware designs ----------------------------===//

#include "hw/HardwareModels.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

using namespace zam;
using namespace zam::test;

namespace {
constexpr Addr DataA = 0x10000000;
constexpr Addr DataB = 0x10400000; // Far away: different L2 set.

MachineEnvConfig cfg() { return MachineEnvConfig(); }

/// Cold-access latency: TLB miss + L1 miss + L2 miss + memory.
uint64_t coldDataLatency(const MachineEnvConfig &C) {
  return C.DTlb.Latency + C.L1D.Latency + C.L2D.Latency + C.MemLatency;
}
} // namespace

//===----------------------------------------------------------------------===//
// Latency paths (Table 1 validation)
//===----------------------------------------------------------------------===//

class HwLatency : public ::testing::TestWithParam<HwKind> {};

TEST_P(HwLatency, ColdMissThenWarmHit) {
  auto Env = createMachineEnv(GetParam(), lh(), cfg());
  uint64_t Cold = Env->dataAccess(DataA, false, low(), low());
  EXPECT_EQ(Cold, coldDataLatency(cfg()));
  uint64_t Warm = Env->dataAccess(DataA, false, low(), low());
  EXPECT_EQ(Warm, cfg().L1D.Latency); // TLB hit + L1 hit.
}

TEST_P(HwLatency, L2HitAfterL1Eviction) {
  auto Env = createMachineEnv(GetParam(), lh(), cfg());
  Env->dataAccess(DataA, false, low(), low());
  // Evict DataA from L1 by filling its set (assoc ways + extras), using
  // addresses that alias in L1 but not in L2.
  const MachineEnvConfig C = cfg();
  const uint64_t L1Span = C.L1D.NumSets * C.L1D.BlockBytes;
  const uint64_t L2Span = C.L2D.NumSets * C.L2D.BlockBytes;
  // Conflict addresses share the L1 set (stride L1Span) but we need them to
  // spread over L2 sets too; use a stride that is a multiple of L1Span but
  // not of L2Span.
  ASSERT_NE(L1Span, L2Span);
  for (unsigned I = 1; I <= C.L1D.Assoc + 1; ++I)
    Env->dataAccess(DataA + I * L1Span * 3, false, low(), low());
  uint64_t Latency = Env->dataAccess(DataA, false, low(), low());
  // L1 miss, L2 hit (unless the conflict set also aliased in L2; the stride
  // choice avoids that for the Table 1 geometry).
  EXPECT_EQ(Latency, C.L1D.Latency + C.L2D.Latency);
}

TEST_P(HwLatency, FetchPathUsesInstructionCaches) {
  auto Env = createMachineEnv(GetParam(), lh(), cfg());
  constexpr Addr Code = 0x40000000;
  uint64_t Cold = Env->fetch(Code, low(), low());
  EXPECT_EQ(Cold, cfg().ITlb.Latency + cfg().L1I.Latency + cfg().L2I.Latency +
                      cfg().MemLatency);
  EXPECT_EQ(Env->fetch(Code, low(), low()), cfg().L1I.Latency);
  // Data caches were untouched.
  EXPECT_EQ(Env->stats().L1D.accesses(), 0u);
}

TEST_P(HwLatency, DeterministicReplay) {
  auto Env1 = createMachineEnv(GetParam(), lh(), cfg());
  auto Env2 = createMachineEnv(GetParam(), lh(), cfg());
  Rng R(7);
  std::vector<Addr> Addrs;
  for (int I = 0; I != 200; ++I)
    Addrs.push_back(DataA + R.nextBelow(1 << 20) * 8);
  uint64_t Sum1 = 0, Sum2 = 0;
  for (Addr A : Addrs)
    Sum1 += Env1->dataAccess(A, false, low(), low());
  for (Addr A : Addrs)
    Sum2 += Env2->dataAccess(A, false, low(), low());
  EXPECT_EQ(Sum1, Sum2);
  EXPECT_TRUE(Env1->stateEquals(*Env2));
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, HwLatency,
                         ::testing::ValuesIn(allHwKinds()),
                         [](const auto &Info) {
                           return std::string(hwKindName(Info.param));
                         });

//===----------------------------------------------------------------------===//
// NoPartition (commodity) — deliberately insecure
//===----------------------------------------------------------------------===//

TEST(NoparDesign, HighAccessPollutesSharedCache) {
  auto Env = createMachineEnv(HwKind::NoPartition, lh(), cfg());
  auto Pre = Env->clone();
  Env->dataAccess(DataA, false, high(), high());
  // The (⊥-labeled) cache changed during a high-write-label access:
  // Property 5 is violated, which is what enables the Sec. 2.1 attack.
  EXPECT_FALSE(Env->projectionEquals(*Pre, low()));
}

TEST(NoparDesign, HighStateAffectsLowTiming) {
  auto Env1 = createMachineEnv(HwKind::NoPartition, lh(), cfg());
  auto Env2 = createMachineEnv(HwKind::NoPartition, lh(), cfg());
  // Env1 warms the line in a high context; Env2 does not.
  Env1->dataAccess(DataA, false, high(), high());
  uint64_t T1 = Env1->dataAccess(DataA, false, low(), low());
  uint64_t T2 = Env2->dataAccess(DataA, false, low(), low());
  EXPECT_LT(T1, T2); // The low access observes the high access: a channel.
}

//===----------------------------------------------------------------------===//
// NoFill (Sec. 4.2)
//===----------------------------------------------------------------------===//

TEST(NofillDesign, HighContextDoesNotFill) {
  auto Env = createMachineEnv(HwKind::NoFill, lh(), cfg());
  auto Pre = Env->clone();
  Env->dataAccess(DataA, false, high(), high());
  // No-fill mode: the machine environment is completely unchanged.
  EXPECT_TRUE(Env->stateEquals(*Pre));
  // And therefore the subsequent low access still misses cold.
  EXPECT_EQ(Env->dataAccess(DataA, false, low(), low()),
            coldDataLatency(cfg()));
}

TEST(NofillDesign, HighContextStillSeesLowCacheHits) {
  auto Env = createMachineEnv(HwKind::NoFill, lh(), cfg());
  Env->dataAccess(DataA, false, low(), low()); // Fill as low.
  // High-context access to the warmed line hits without modifying state.
  auto Pre = Env->clone();
  EXPECT_EQ(Env->dataAccess(DataA, false, high(), high()),
            cfg().L1D.Latency);
  EXPECT_TRUE(Env->stateEquals(*Pre));
}

TEST(NofillDesign, LowContextFillsNormally) {
  auto Env = createMachineEnv(HwKind::NoFill, lh(), cfg());
  Env->dataAccess(DataA, false, low(), low());
  EXPECT_EQ(Env->dataAccess(DataA, false, low(), low()), cfg().L1D.Latency);
}

//===----------------------------------------------------------------------===//
// Partitioned (Sec. 4.3)
//===----------------------------------------------------------------------===//

TEST(PartitionedDesign, PartitionConfigDividesSets) {
  HardwareEnv Env(HwKind::Partitioned, lh(), cfg());
  EXPECT_EQ(Env.partitionConfig(cfg().L1D).NumSets, cfg().L1D.NumSets / 2);
  EXPECT_EQ(Env.partitionConfig(cfg().L1D).Assoc, cfg().L1D.Assoc);
}

TEST(PartitionedDesign, HighInstallGoesToHighPartition) {
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), cfg());
  auto Pre = Env->clone();
  Env->dataAccess(DataA, false, high(), high());
  EXPECT_TRUE(Env->projectionEquals(*Pre, low()));   // L partition untouched.
  EXPECT_FALSE(Env->projectionEquals(*Pre, high())); // H partition filled.
}

TEST(PartitionedDesign, HighSearchFindsBothPartitions) {
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), cfg());
  Env->dataAccess(DataA, false, low(), low()); // Install in L.
  // H access searches both partitions: hit.
  EXPECT_EQ(Env->dataAccess(DataA, false, high(), high()),
            cfg().L1D.Latency);
}

TEST(PartitionedDesign, LowSearchIgnoresHighPartition) {
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), cfg());
  Env->dataAccess(DataA, false, high(), high()); // Install in H.
  // L access searches only L: misses and takes full miss timing, exactly as
  // the consistency protocol prescribes.
  EXPECT_EQ(Env->dataAccess(DataA, false, low(), low()),
            coldDataLatency(cfg()));
}

TEST(PartitionedDesign, ConsistencyMoveToLow) {
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), cfg());
  Env->dataAccess(DataA, false, high(), high()); // In H partition.
  Env->dataAccess(DataA, false, low(), low());   // Moves to L.
  // Now resident in L: a fresh H-partition-only probe shows the move.
  auto Reference = createMachineEnv(HwKind::Partitioned, lh(), cfg());
  Reference->dataAccess(DataA, false, low(), low());
  EXPECT_TRUE(Env->projectionEquals(*Reference, low()));
  EXPECT_TRUE(Env->projectionEquals(*Reference, high())); // H copy removed.
}

TEST(PartitionedDesign, HighHitDoesNotDisturbLowLru) {
  // A high access hitting in the L partition must not promote the line
  // (Property 5): LRU state at L is low machine state.
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), cfg());
  auto Before = Env->clone();
  Env->dataAccess(DataA, false, low(), low());
  Before = Env->clone();
  Env->dataAccess(DataA, false, high(), high()); // Probe-hit in L.
  EXPECT_TRUE(Env->projectionEquals(*Before, low()));
}

TEST(PartitionedDesign, PerturbAboveKeepsLowProjection) {
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), cfg());
  Rng R(5);
  Env->randomize(R);
  auto Twin = Env->clone();
  Twin->perturbAbove(low(), R);
  EXPECT_TRUE(Env->equivalentUpTo(*Twin, low()));
  EXPECT_FALSE(Env->equivalentUpTo(*Twin, high())); // H parts perturbed.
}

TEST(PartitionedDesign, ThreeLevelPartitioning) {
  auto Env = createMachineEnv(HwKind::Partitioned, lmh(), cfg());
  Label M = *lmh().byName("M");
  auto Pre = Env->clone();
  Env->dataAccess(DataA, false, M, M);
  EXPECT_TRUE(Env->projectionEquals(*Pre, lmh().bottom()));
  EXPECT_FALSE(Env->projectionEquals(*Pre, M));
  EXPECT_TRUE(Env->projectionEquals(*Pre, lmh().top()));
  // An M access hits content installed at L (searches levels ⊑ M).
  Env->reset();
  Env->dataAccess(DataB, false, lmh().bottom(), lmh().bottom());
  EXPECT_EQ(Env->dataAccess(DataB, false, M, M), cfg().L1D.Latency);
}

TEST(PartitionedDesign, SmallerPartitionsMissMore) {
  // The partitioned design halves effective capacity: a working set that
  // fits the full L1 no longer fits one partition. This is the mechanism
  // behind Table 2's ~11% partitioning overhead.
  const MachineEnvConfig C = cfg();
  auto Full = createMachineEnv(HwKind::NoPartition, lh(), C);
  auto Part = createMachineEnv(HwKind::Partitioned, lh(), C);
  // Touch one block in every L1 set, twice.
  auto Walk = [&](MachineEnv &Env) {
    uint64_t Total = 0;
    for (int Round = 0; Round != 2; ++Round)
      for (unsigned S = 0; S != C.L1D.NumSets; ++S)
        for (unsigned W = 0; W != C.L1D.Assoc; ++W)
          Total += Env.dataAccess(DataA + (S + W * C.L1D.NumSets) *
                                              C.L1D.BlockBytes,
                                  false, low(), low());
    return Total;
  };
  EXPECT_LT(Walk(*Full), Walk(*Part));
}

TEST(MachineEnv, DescribeNamesTheDesign) {
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), cfg());
  EXPECT_NE(Env->describe().find("partitioned"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// The Sec. 4.1 coarse abstraction: confidential data in public cache
//===----------------------------------------------------------------------===//

TEST(CoarseAbstraction, HighDataMayResideInLowCacheState) {
  // The machine environment stores only (tag, valid, LRU) — not data
  // blocks. Consequently an access to a *high variable's* fixed address
  // with low timing labels modifies low cache state identically regardless
  // of the variable's value, and single-step noninterference holds: this is
  // the paper's argument for why "high variables can reside in low cache
  // without hurting security" under the coarse abstraction.
  auto E1 = createMachineEnv(HwKind::Partitioned, lh(), cfg());
  auto E2 = createMachineEnv(HwKind::Partitioned, lh(), cfg());
  // Same address (h's storage), different contents — contents are not part
  // of E, so the resulting environments are identical.
  uint64_t T1 = E1->dataAccess(DataA, /*IsStore=*/true, low(), low());
  uint64_t T2 = E2->dataAccess(DataA, /*IsStore=*/true, low(), low());
  EXPECT_EQ(T1, T2);
  EXPECT_TRUE(E1->stateEquals(*E2));
  // And the line IS low state now: a later low read hits fast.
  EXPECT_EQ(E1->dataAccess(DataA, false, low(), low()), cfg().L1D.Latency);
}

TEST(HwStats, CountersTrackHitsAndMisses) {
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), cfg());
  Env->dataAccess(DataA, false, low(), low()); // Cold: all misses.
  EXPECT_EQ(Env->stats().L1D.Misses, 1u);
  EXPECT_EQ(Env->stats().L2D.Misses, 1u);
  EXPECT_EQ(Env->stats().DTlb.Misses, 1u);
  // The cold miss filled a line at every level.
  EXPECT_EQ(Env->stats().L1D.LineFills, 1u);
  EXPECT_EQ(Env->stats().L2D.LineFills, 1u);
  Env->dataAccess(DataA, false, low(), low()); // Warm: all hits.
  EXPECT_EQ(Env->stats().L1D.Hits, 1u);
  EXPECT_EQ(Env->stats().DTlb.Hits, 1u);
  Env->resetStats();
  EXPECT_EQ(Env->stats().L1D.accesses(), 0u);
  EXPECT_EQ(Env->stats().L1D.LineFills, 0u);
}

TEST(HwStats, ResetStatsClearsEveryCounterOnEveryDesign) {
  for (HwKind Kind : allHwKinds()) {
    auto Env = createMachineEnv(Kind, lh(), cfg());
    // Generate traffic on both the data and instruction paths, with enough
    // conflicting lines to force evictions.
    const uint64_t L1Span = cfg().L1D.NumSets * cfg().L1D.BlockBytes;
    for (unsigned I = 0; I <= cfg().L1D.Assoc + 2; ++I) {
      Env->dataAccess(DataA + I * L1Span * 3, /*IsStore=*/true, low(), low());
      Env->fetch(0x40000000 + I * 64, low(), low());
    }
    EXPECT_NE(Env->stats(), HwStats()) << hwKindName(Kind);
    EXPECT_GT(Env->stats().L1D.Evictions, 0u) << hwKindName(Kind);
    Env->resetStats();
    // Every counter — hits, misses, evictions, writebacks, line fills, on
    // every structure — must read zero again.
    EXPECT_EQ(Env->stats(), HwStats()) << hwKindName(Kind);
    // Resetting counters must not flush cache contents: the warm line still
    // hits at L1 latency.
    EXPECT_EQ(Env->dataAccess(DataA + L1Span * 3 * cfg().L1D.Assoc, false,
                              low(), low()),
              cfg().L1D.Latency);
  }
}

//===----------------------------------------------------------------------===//
// Clone faithfulness: a clone carries every bit of machine state and
// telemetry, and shares nothing mutable with its source
//===----------------------------------------------------------------------===//

namespace {
constexpr Addr CodeA = 0x40000000;

/// The lattices the clone tests run on: two and three levels.
std::vector<const SecurityLattice *> cloneLattices() {
  return {&lh(), &lmh()};
}

/// A randomized environment with dirty lines: random resident tags, then
/// stores under every label over a range wide enough to evict.
std::unique_ptr<MachineEnv> dirtyEnv(HwKind Kind, const SecurityLattice &Lat,
                                     uint64_t Seed) {
  auto Env = createMachineEnv(Kind, Lat, cfg());
  Rng R(Seed);
  Env->randomize(R);
  const std::vector<Label> Labels = Lat.allLabels();
  for (int I = 0; I != 400; ++I) {
    const Label L = Labels[R.nextBelow(Labels.size())];
    Env->dataAccess(DataA + R.nextBelow(1 << 14) * 8, /*IsStore=*/true, L, L);
  }
  return Env;
}

/// Drives one seeded stream of data loads/stores and fetches under random
/// [er, ew] labels on \p A and, when set, on \p B, asserting equal
/// latencies throughout.
void driveBoth(MachineEnv &A, MachineEnv *B, uint64_t Seed) {
  Rng R(Seed);
  const std::vector<Label> Labels = A.lattice().allLabels();
  for (int I = 0; I != 3000; ++I) {
    const Label Read = Labels[R.nextBelow(Labels.size())];
    const Label Write = Labels[R.nextBelow(Labels.size())];
    const bool Data = R.nextBelow(4) != 0;
    const bool Store = R.nextBelow(3) == 0;
    const Addr At = Data ? DataA + R.nextBelow(1 << 15) * 8
                         : CodeA + R.nextBelow(1 << 13) * 16;
    auto Access = [&](MachineEnv &E) {
      return Data ? E.dataAccess(At, Store, Read, Write)
                  : E.fetch(At, Read, Write);
    };
    const uint64_t TA = Access(A);
    if (B) {
      ASSERT_EQ(TA, Access(*B)) << "access " << I;
    }
  }
}

void expectSameMachine(const MachineEnv &A, const MachineEnv &B) {
  // stats() carries evictions, writebacks and line fills: writebacks only
  // match if the dirty bits did.
  EXPECT_EQ(A.stats(), B.stats());
  for (Label L : A.lattice().allLabels())
    EXPECT_TRUE(A.projectionEquals(B, L)) << A.lattice().name(L);
}

class CountingObserver final : public HwObserver {
public:
  void onAccess(const HwAccess &) override { ++Accesses; }
  unsigned Accesses = 0;
};
} // namespace

class HwClone : public ::testing::TestWithParam<HwKind> {};

TEST_P(HwClone, CloneBehavesLikeItsSource) {
  for (const SecurityLattice *Lat : cloneLattices()) {
    auto Source = dirtyEnv(GetParam(), *Lat, 11);
    auto Copy = Source->clone();
    expectSameMachine(*Source, *Copy);
    driveBoth(*Source, Copy.get(), 12);
    expectSameMachine(*Source, *Copy);
    EXPECT_GT(Source->stats().L1D.Writebacks, 0u)
        << "the stream retired no dirty line";
  }
}

TEST_P(HwClone, MutatingTheCloneLeavesTheSource) {
  for (const SecurityLattice *Lat : cloneLattices()) {
    // Twin is built exactly like Source and never cloned.
    auto Source = dirtyEnv(GetParam(), *Lat, 21);
    auto Twin = dirtyEnv(GetParam(), *Lat, 21);
    {
      auto Copy = Source->clone();
      driveBoth(*Copy, nullptr, 22);
      Rng R(23);
      Copy->perturbAbove(Lat->bottom(), R);
      Copy->resetStats();
      Copy->randomize(R);
      Copy->reset();
    }
    expectSameMachine(*Source, *Twin);
    driveBoth(*Source, Twin.get(), 24);
    expectSameMachine(*Source, *Twin);
  }
}

TEST_P(HwClone, CloneDoesNotInheritTheObserver) {
  auto Source = createMachineEnv(GetParam(), lh(), cfg());
  CountingObserver Obs;
  Source->setObserver(&Obs);
  auto Copy = Source->clone();
  EXPECT_EQ(Copy->observer(), nullptr);
  Copy->dataAccess(DataA, false, low(), low());
  Copy->fetch(CodeA, low(), low());
  EXPECT_EQ(Obs.Accesses, 0u);
  Source->dataAccess(DataA, false, low(), low());
  EXPECT_EQ(Obs.Accesses, 1u);
}

//===----------------------------------------------------------------------===//
// Observed event deltas: per-access reports sum to the run's counters
//===----------------------------------------------------------------------===//

namespace {
/// A machine small enough that a short stream evicts at every structure.
MachineEnvConfig tinyCfg() {
  MachineEnvConfig C;
  C.L1D = C.L1I = {/*NumSets=*/4, /*Assoc=*/2, /*BlockBytes=*/64, 1};
  C.L2D = C.L2I = {/*NumSets=*/8, /*Assoc=*/2, /*BlockBytes=*/64, 6};
  C.DTlb = C.ITlb = {/*NumSets=*/2, /*Assoc=*/2, /*BlockBytes=*/4096, 30};
  return C;
}

/// Rebuilds HwStats from the accesses it observes: miss flags become hit
/// and miss counts, and the event deltas are summed per structure.
class SummingObserver final : public HwObserver {
public:
  void onAccess(const HwAccess &A) override {
    const HwEventDelta Zero;
    auto Add = [](CacheLevelStats &S, const HwEventDelta &D) {
      S.Evictions += D.Evictions;
      S.Writebacks += D.Writebacks;
      S.LineFills += D.LineFills;
    };
    auto Same = [](const HwEventDelta &X, const HwEventDelta &Y) {
      return X.Evictions == Y.Evictions && X.Writebacks == Y.Writebacks &&
             X.LineFills == Y.LineFills;
    };
    CacheLevelStats &Tlb = A.IsData ? Sum.DTlb : Sum.ITlb;
    CacheLevelStats &L1 = A.IsData ? Sum.L1D : Sum.L1I;
    CacheLevelStats &L2 = A.IsData ? Sum.L2D : Sum.L2I;
    ++(A.TlbMiss ? Tlb.Misses : Tlb.Hits);
    ++(A.L1Miss ? L1.Misses : L1.Hits);
    if (A.L1Miss)
      ++(A.L2Miss ? L2.Misses : L2.Hits);
    Add(Tlb, A.TlbEvents);
    Add(L1, A.L1Events);
    Add(L2, A.L2Events);
    // A structure that hit installed nothing, so it reports no events.
    if ((!A.TlbMiss && !Same(A.TlbEvents, Zero)) ||
        (!A.L1Miss && (!Same(A.L1Events, Zero) || !Same(A.L2Events, Zero))) ||
        (!A.L2Miss && !Same(A.L2Events, Zero)))
      ++NonzeroHitDeltas;
  }

  HwStats Sum;
  unsigned NonzeroHitDeltas = 0;
};
} // namespace

class HwObservedDeltas : public ::testing::TestWithParam<HwKind> {};

TEST_P(HwObservedDeltas, SumToTheRunCounters) {
  for (const SecurityLattice *Lat : cloneLattices()) {
    auto Env = createMachineEnv(GetParam(), *Lat, tinyCfg());
    SummingObserver Obs;
    Env->setObserver(&Obs);
    // Loads, stores and fetches under random [er, ew] over 64 KiB of data
    // and 64 KiB of code: far beyond every structure of tinyCfg().
    Rng R(31);
    const std::vector<Label> Labels = Lat->allLabels();
    for (int I = 0; I != 4000; ++I) {
      const Label Read = Labels[R.nextBelow(Labels.size())];
      const Label Write = Labels[R.nextBelow(Labels.size())];
      if (R.nextBelow(4) != 0)
        Env->dataAccess(DataA + R.nextBelow(1 << 13) * 8,
                        /*IsStore=*/R.nextBelow(3) == 0, Read, Write);
      else
        Env->fetch(CodeA + R.nextBelow(1 << 12) * 16, Read, Write);
    }
    const HwStats Run = Env->stats();
    const std::string Where =
        std::string(hwKindName(GetParam())) + " over " +
        std::to_string(Lat->size()) + " levels";
    EXPECT_EQ(Obs.Sum, Run) << Where;
    EXPECT_EQ(Obs.NonzeroHitDeltas, 0u) << Where;
    // The stream must exercise every kind of event, or the sums above
    // compare zeros.
    EXPECT_GT(Run.L1D.Evictions, 0u) << Where;
    EXPECT_GT(Run.L1D.Writebacks, 0u) << Where;
    EXPECT_GT(Run.L1D.LineFills, 0u) << Where;
    EXPECT_GT(Run.L2D.Evictions, 0u) << Where;
    EXPECT_GT(Run.DTlb.Evictions, 0u) << Where;
    EXPECT_GT(Run.L1I.Evictions, 0u) << Where;
    EXPECT_GT(Run.ITlb.Evictions, 0u) << Where;
  }
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, HwObservedDeltas,
                         ::testing::ValuesIn(allHwKinds()),
                         [](const auto &Info) {
                           return std::string(hwKindName(Info.param));
                         });

INSTANTIATE_TEST_SUITE_P(AllDesigns, HwClone,
                         ::testing::ValuesIn(allHwKinds()),
                         [](const auto &Info) {
                           return std::string(hwKindName(Info.param));
                         });

//===----------------------------------------------------------------------===//
// Pinned behaviour: exact latencies, counters and projections of every
// design over non-two-level lattices and mixed [er, ew] streams
//===----------------------------------------------------------------------===//

namespace {
/// FNV-1a over 64-bit words.
class Digest {
public:
  void add(uint64_t W) {
    for (int I = 0; I != 8; ++I) {
      H ^= (W >> (8 * I)) & 0xff;
      H *= 0x100000001b3ull;
    }
  }
  void add(const CacheLevelStats &S) {
    for (uint64_t W : {S.Hits, S.Misses, S.Evictions, S.Writebacks,
                       S.LineFills})
      add(W);
  }
  uint64_t value() const { return H; }

private:
  uint64_t H = 0xcbf29ce484222325ull;
};

/// Digests every observed access record.
class DigestObserver final : public HwObserver {
public:
  void onAccess(const HwAccess &A) override {
    D.add(A.A);
    D.add(A.IsData | A.IsStore << 1 | A.TlbMiss << 2 | A.L1Miss << 3 |
          A.L2Miss << 4);
    D.add(A.Cycles);
    for (const HwEventDelta *E : {&A.TlbEvents, &A.L1Events, &A.L2Events}) {
      D.add(E->Evictions);
      D.add(E->Writebacks);
      D.add(E->LineFills);
    }
  }
  Digest D;
};

const PowersetLattice &twoPrincipals() {
  static const PowersetLattice Lat({"A", "B"});
  return Lat;
}

/// Runs one seeded stream of loads, stores and fetches under random
/// [er, ew] (er ≠ ew included) from a randomized dirty start, unobserved
/// and then observed from the same start. Digests every latency, the
/// projections against the start state at every level (every 500 accesses
/// and at the end), the final stats() and every observed access record.
uint64_t pinnedDigest(HwKind Kind, const SecurityLattice &Lat) {
  auto Start = createMachineEnv(Kind, Lat, tinyCfg());
  Rng Init(41);
  Start->randomize(Init);
  const std::vector<Label> Labels = Lat.allLabels();
  for (int I = 0; I != 300; ++I) {
    const Label L = Labels[Init.nextBelow(Labels.size())];
    Start->dataAccess(DataA + Init.nextBelow(1 << 13) * 8, /*IsStore=*/true,
                      L, L);
  }
  auto Plain = Start->clone();
  auto Observed = Start->clone();
  DigestObserver Obs;
  Observed->setObserver(&Obs);
  Digest D;
  auto Projections = [&] {
    for (Label L : Labels)
      D.add(Plain->projectionEquals(*Start, L));
  };
  Rng R(42);
  for (int I = 0; I != 6000; ++I) {
    const Label Read = Labels[R.nextBelow(Labels.size())];
    const Label Write = Labels[R.nextBelow(Labels.size())];
    const bool Data = R.nextBelow(4) != 0;
    const bool Store = Data && R.nextBelow(3) == 0;
    const Addr At = Data ? DataA + R.nextBelow(1 << 13) * 8
                         : CodeA + R.nextBelow(1 << 12) * 16;
    auto Access = [&](MachineEnv &E) {
      return Data ? E.dataAccess(At, Store, Read, Write)
                  : E.fetch(At, Read, Write);
    };
    const uint64_t Cycles = Access(*Plain);
    EXPECT_EQ(Cycles, Access(*Observed)) << "access " << I;
    D.add(Cycles);
    if (I % 500 == 499)
      Projections();
  }
  Projections();
  const HwStats S = Plain->stats();
  for (const CacheLevelStats *C : {&S.L1D, &S.L2D, &S.L1I, &S.L2I, &S.DTlb,
                                   &S.ITlb})
    D.add(*C);
  EXPECT_EQ(S, Observed->stats());
  EXPECT_TRUE(Plain->stateEquals(*Observed));
  D.add(Obs.D.value());
  return D.value();
}
} // namespace

TEST(HwPinned, DigestsOfMixedLabelStreams) {
  struct Case {
    HwKind Kind;
    const SecurityLattice *Lat;
    uint64_t Expected;
  };
  const Case Cases[] = {
      {HwKind::NoPartition, &lh(), 16945537668214142492ull},
      {HwKind::NoPartition, &lmh(), 9960992980555528825ull},
      {HwKind::NoPartition, &twoPrincipals(), 7609436039203544572ull},
      {HwKind::NoFill, &lh(), 18085346028311551723ull},
      {HwKind::NoFill, &lmh(), 16959600521869002084ull},
      {HwKind::NoFill, &twoPrincipals(), 2254953495315930567ull},
      {HwKind::Partitioned, &lh(), 1099326940499279911ull},
      {HwKind::Partitioned, &lmh(), 18311595654077088822ull},
      {HwKind::Partitioned, &twoPrincipals(), 1127472740870869606ull},
  };
  for (const Case &C : Cases)
    EXPECT_EQ(pinnedDigest(C.Kind, *C.Lat), C.Expected)
        << hwKindName(C.Kind) << " over " << C.Lat->size() << " levels";
}

//===----------------------------------------------------------------------===//
// In-place restore: MachineEnv::copyInto leaves a slot that is the same
// machine as a fresh clone, or gives it one
//===----------------------------------------------------------------------===//

namespace {
/// The restore lattices: two levels, a three-level order (its partitioned
/// sets are not a power of two, so the division path runs) and a
/// two-principal powerset.
std::vector<const SecurityLattice *> restoreLattices() {
  return {&lh(), &lmh(), &twoPrincipals()};
}

/// Restores \p Slot from \p Template and checks that it was restored in
/// place and is the same machine as a fresh clone: state, every
/// projection, stats() and no observer; then that a seeded mixed stream
/// produces the same latencies and observed records on both.
void expectRestoredLikeAClone(const MachineEnv &Template,
                              std::unique_ptr<MachineEnv> Slot,
                              uint64_t Seed) {
  CountingObserver Stale;
  Slot->setObserver(&Stale);
  const MachineEnv *Storage = Slot.get();
  Template.copyInto(Slot);
  EXPECT_EQ(Slot.get(), Storage) << "not restored in place";
  EXPECT_EQ(Slot->observer(), nullptr);
  auto Fresh = Template.clone();
  EXPECT_TRUE(Slot->stateEquals(*Fresh));
  expectSameMachine(*Slot, *Fresh);
  DigestObserver RestoredObs, FreshObs;
  Slot->setObserver(&RestoredObs);
  Fresh->setObserver(&FreshObs);
  driveBoth(*Slot, Fresh.get(), Seed);
  EXPECT_EQ(RestoredObs.D.value(), FreshObs.D.value());
  expectSameMachine(*Slot, *Fresh);
  EXPECT_EQ(Stale.Accesses, 0u);
}
} // namespace

TEST(HwRestore, RestoredSlotEqualsAFreshClone) {
  for (HwKind Kind : allHwKinds())
    for (const SecurityLattice *Lat : restoreLattices()) {
      SCOPED_TRACE(std::string(hwKindName(Kind)) + " over " +
                   std::to_string(Lat->size()) + " levels");
      auto Cold = [&] { return createMachineEnv(Kind, *Lat, cfg()); };
      // Dirty template into a differently dirty slot.
      expectRestoredLikeAClone(*dirtyEnv(Kind, *Lat, 31),
                               dirtyEnv(Kind, *Lat, 32), 33);
      // Cold template into a dirty slot: the slot's lines must all go.
      expectRestoredLikeAClone(*Cold(), dirtyEnv(Kind, *Lat, 34), 35);
      // Dirty template into a cold slot.
      expectRestoredLikeAClone(*dirtyEnv(Kind, *Lat, 36), Cold(), 37);
    }
}

TEST(HwRestore, MismatchedSlotGetsAFreshClone) {
  const std::unique_ptr<MachineEnv> Template =
      dirtyEnv(HwKind::Partitioned, lmh(), 41);
  const TotalOrderLattice SameShape({"L", "M", "H"});
  std::vector<std::unique_ptr<MachineEnv>> Slots;
  Slots.push_back(createMachineEnv(HwKind::NoFill, lmh(), cfg()));
  Slots.push_back(createMachineEnv(HwKind::Partitioned, lh(), cfg()));
  // An equal lattice that is another object is another lattice.
  Slots.push_back(createMachineEnv(HwKind::Partitioned, SameShape, cfg()));
  Slots.push_back(createMachineEnv(HwKind::Partitioned, lmh(), tinyCfg()));
  for (std::unique_ptr<MachineEnv> &Slot : Slots) {
    const MachineEnv *Storage = Slot.get();
    Template->copyInto(Slot);
    EXPECT_NE(Slot.get(), Storage);
    EXPECT_EQ(Slot->hwKind(), Template->hwKind());
    EXPECT_EQ(&Slot->lattice(), &Template->lattice());
    EXPECT_TRUE(Slot->config() == Template->config());
    expectSameMachine(*Slot, *Template);
  }
  std::unique_ptr<MachineEnv> Empty;
  Template->copyInto(Empty);
  ASSERT_NE(Empty, nullptr);
  expectSameMachine(*Empty, *Template);
}

//===----------------------------------------------------------------------===//
// The plan: every (er, ew) entry of every design satisfies Properties 5
// and 6 by construction
//===----------------------------------------------------------------------===//

namespace {
/// A total order of \p N levels.
TotalOrderLattice totalOrder(unsigned N) {
  std::vector<std::string> Names;
  for (unsigned I = 0; I != N; ++I)
    Names.push_back("l" + std::to_string(I));
  return TotalOrderLattice(Names);
}

/// Checks every route and sweep of \p Kind's plan over \p Lat.
void checkPlan(HwKind Kind, const SecurityLattice &Lat) {
  const HardwareEnv Env(Kind, Lat, MachineEnvConfig());
  const HwPlan &Plan = Env.plan();
  const std::string Where = std::string(hwKindName(Kind)) + " over " +
                            std::to_string(Lat.size()) + " levels";
  const unsigned Levels = Lat.size(), Parts = Plan.parts();
  ASSERT_EQ(Parts, Kind == HwKind::Partitioned ? Levels : 1u) << Where;
  ASSERT_EQ(Plan.Routes.size(), size_t(Levels) * Levels) << Where;
  // ⊥ first (every route starts there), then ascending.
  ASSERT_EQ(Plan.PartLevel[0], Lat.bottom()) << Where;
  for (unsigned P = 2; P < Parts; ++P)
    ASSERT_LT(Plan.PartLevel[P - 1].index(), Plan.PartLevel[P].index());
  for (Label Er : Lat.allLabels())
    for (Label Ew : Lat.allLabels()) {
      // nopar reads every pair as [⊥,⊥]; the others read the labels.
      const bool Ignored = Kind == HwKind::NoPartition;
      const Label R = Ignored ? Lat.bottom() : Er;
      const Label W = Ignored ? Lat.bottom() : Ew;
      const HwPlan::Route &Route =
          Plan.Routes[Er.index() * Levels + Ew.index()];
      const std::string Pair = Where + " at [" + Lat.name(Er) + "," +
                               Lat.name(Ew) + "]";
      // Property 6: the lookup reads exactly the partitions at levels ⊑ er,
      // in ascending order. Property 5: an entry may modify its partition
      // iff ew ⊑ its level.
      std::vector<unsigned> Expected;
      for (unsigned P = 0; P != Parts; ++P)
        if (Lat.flowsTo(Plan.PartLevel[P], R))
          Expected.push_back(P);
      ASSERT_EQ(Route.End - Route.Begin, Expected.size()) << Pair;
      ASSERT_EQ((Plan.BottomProbeOnly >> Ew.index() & 1) != 0,
                (Plan.Lookup[Route.Begin] & HwPlan::kProbeOnly) != 0)
          << Pair;
      for (size_t I = 0; I != Expected.size(); ++I) {
        const uint8_t E = Plan.Lookup[Route.Begin + I];
        const unsigned P = E & ~HwPlan::kProbeOnly;
        ASSERT_EQ(P, Expected[I]) << Pair;
        ASSERT_EQ(!(E & HwPlan::kProbeOnly),
                  Lat.flowsTo(W, Plan.PartLevel[P]))
            << Pair << ", partition " << P;
      }
      // The install target is the partition at level ew, or none when no
      // partition sits there.
      const bool HasWPart =
          std::find(Plan.PartLevel.begin(), Plan.PartLevel.end(), W) !=
          Plan.PartLevel.end();
      if (!HasWPart) {
        ASSERT_EQ(Route.Target, HwPlan::kNoTarget) << Pair;
        continue;
      }
      ASSERT_LT(Route.Target, Parts) << Pair;
      ASSERT_EQ(Plan.PartLevel[Route.Target], W) << Pair;
      // The stale-copy sweep removes only from levels ⊒ ew, never from the
      // target, and reaches every other such partition.
      const uint32_t T = Route.Target;
      std::vector<unsigned> Swept(Plan.Sweep.begin() + Plan.SweepOff[T],
                                  Plan.Sweep.begin() + Plan.SweepOff[T + 1]);
      for (unsigned P = 0; P != Parts; ++P) {
        const bool Above = P != T && Lat.flowsTo(W, Plan.PartLevel[P]);
        ASSERT_EQ(std::count(Swept.begin(), Swept.end(), P), Above ? 1 : 0)
            << Pair << ", partition " << P;
      }
    }
}
} // namespace

TEST(HwPlan, EveryEntrySatisfiesProperties5And6) {
  const TotalOrderLattice Five = totalOrder(5);
  const TotalOrderLattice Largest = totalOrder(kMaxLatticeLevels);
  const PowersetLattice ThreePrincipals({"A", "B", "C"});
  for (const SecurityLattice *Lat : std::initializer_list<
           const SecurityLattice *>{&lh(), &lmh(), &Five, &twoPrincipals(),
                                    &ThreePrincipals, &Largest})
    for (HwKind Kind : allHwKinds())
      checkPlan(Kind, *Lat);
}

TEST(HwPlanDeathTest, LatticeAboveTheLimitIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const TotalOrderLattice TooLarge = totalOrder(kMaxLatticeLevels + 1);
  for (HwKind Kind : allHwKinds())
    EXPECT_DEATH(createMachineEnv(Kind, TooLarge),
                 "65-level lattice: the limit is 64 levels");
}

TEST(HwConfigDeathTest, DegenerateGeometryIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  MachineEnvConfig ZeroSets = cfg();
  ZeroSets.L1D.NumSets = 0;
  MachineEnvConfig ZeroWays = cfg();
  ZeroWays.L2I.Assoc = 0;
  MachineEnvConfig ZeroBlock = cfg();
  ZeroBlock.DTlb.BlockBytes = 0;
  MachineEnvConfig TooManyWays = cfg();
  TooManyWays.L2D.Assoc = Cache::kMaxAssoc + 1;
  for (HwKind Kind : allHwKinds()) {
    EXPECT_DEATH(createMachineEnv(Kind, lh(), ZeroSets),
                 "L1D.NumSets is 0; it must be at least 1");
    EXPECT_DEATH(createMachineEnv(Kind, lh(), ZeroWays),
                 "L2I.Assoc is 0; it must be at least 1");
    EXPECT_DEATH(createMachineEnv(Kind, lh(), ZeroBlock),
                 "DTlb.BlockBytes is 0; it must be at least 1");
    EXPECT_DEATH(createMachineEnv(Kind, lh(), TooManyWays),
                 "L2D.Assoc is 256; the limit is 255 ways");
  }
  // A standalone cache checks the same rules.
  EXPECT_DEATH(Cache(CacheConfig{0, 1, 32, 1}), "cache.NumSets is 0");
}

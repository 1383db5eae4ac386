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

TEST(NoPartitionHw, HighAccessPollutesSharedCache) {
  auto Env = createMachineEnv(HwKind::NoPartition, lh(), cfg());
  auto Pre = Env->clone();
  Env->dataAccess(DataA, false, high(), high());
  // The (⊥-labeled) cache changed during a high-write-label access:
  // Property 5 is violated, which is what enables the Sec. 2.1 attack.
  EXPECT_FALSE(Env->projectionEquals(*Pre, low()));
}

TEST(NoPartitionHw, HighStateAffectsLowTiming) {
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

TEST(NoFillHw, HighContextDoesNotFill) {
  auto Env = createMachineEnv(HwKind::NoFill, lh(), cfg());
  auto Pre = Env->clone();
  Env->dataAccess(DataA, false, high(), high());
  // No-fill mode: the machine environment is completely unchanged.
  EXPECT_TRUE(Env->stateEquals(*Pre));
  // And therefore the subsequent low access still misses cold.
  EXPECT_EQ(Env->dataAccess(DataA, false, low(), low()),
            coldDataLatency(cfg()));
}

TEST(NoFillHw, HighContextStillSeesLowCacheHits) {
  auto Env = createMachineEnv(HwKind::NoFill, lh(), cfg());
  Env->dataAccess(DataA, false, low(), low()); // Fill as low.
  // High-context access to the warmed line hits without modifying state.
  auto Pre = Env->clone();
  EXPECT_EQ(Env->dataAccess(DataA, false, high(), high()),
            cfg().L1D.Latency);
  EXPECT_TRUE(Env->stateEquals(*Pre));
}

TEST(NoFillHw, LowContextFillsNormally) {
  auto Env = createMachineEnv(HwKind::NoFill, lh(), cfg());
  Env->dataAccess(DataA, false, low(), low());
  EXPECT_EQ(Env->dataAccess(DataA, false, low(), low()), cfg().L1D.Latency);
}

//===----------------------------------------------------------------------===//
// Partitioned (Sec. 4.3)
//===----------------------------------------------------------------------===//

TEST(PartitionedHw, PartitionConfigDividesSets) {
  PartitionedHw Env(lh(), cfg());
  EXPECT_EQ(Env.partitionConfig(cfg().L1D).NumSets, cfg().L1D.NumSets / 2);
  EXPECT_EQ(Env.partitionConfig(cfg().L1D).Assoc, cfg().L1D.Assoc);
}

TEST(PartitionedHw, HighInstallGoesToHighPartition) {
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), cfg());
  auto Pre = Env->clone();
  Env->dataAccess(DataA, false, high(), high());
  EXPECT_TRUE(Env->projectionEquals(*Pre, low()));   // L partition untouched.
  EXPECT_FALSE(Env->projectionEquals(*Pre, high())); // H partition filled.
}

TEST(PartitionedHw, HighSearchFindsBothPartitions) {
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), cfg());
  Env->dataAccess(DataA, false, low(), low()); // Install in L.
  // H access searches both partitions: hit.
  EXPECT_EQ(Env->dataAccess(DataA, false, high(), high()),
            cfg().L1D.Latency);
}

TEST(PartitionedHw, LowSearchIgnoresHighPartition) {
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), cfg());
  Env->dataAccess(DataA, false, high(), high()); // Install in H.
  // L access searches only L: misses and takes full miss timing, exactly as
  // the consistency protocol prescribes.
  EXPECT_EQ(Env->dataAccess(DataA, false, low(), low()),
            coldDataLatency(cfg()));
}

TEST(PartitionedHw, ConsistencyMoveToLow) {
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), cfg());
  Env->dataAccess(DataA, false, high(), high()); // In H partition.
  Env->dataAccess(DataA, false, low(), low());   // Moves to L.
  // Now resident in L: a fresh H-partition-only probe shows the move.
  auto Reference = createMachineEnv(HwKind::Partitioned, lh(), cfg());
  Reference->dataAccess(DataA, false, low(), low());
  EXPECT_TRUE(Env->projectionEquals(*Reference, low()));
  EXPECT_TRUE(Env->projectionEquals(*Reference, high())); // H copy removed.
}

TEST(PartitionedHw, HighHitDoesNotDisturbLowLru) {
  // A high access hitting in the L partition must not promote the line
  // (Property 5): LRU state at L is low machine state.
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), cfg());
  auto Before = Env->clone();
  Env->dataAccess(DataA, false, low(), low());
  Before = Env->clone();
  Env->dataAccess(DataA, false, high(), high()); // Probe-hit in L.
  EXPECT_TRUE(Env->projectionEquals(*Before, low()));
}

TEST(PartitionedHw, PerturbAboveKeepsLowProjection) {
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), cfg());
  Rng R(5);
  Env->randomize(R);
  auto Twin = Env->clone();
  Twin->perturbAbove(low(), R);
  EXPECT_TRUE(Env->equivalentUpTo(*Twin, low()));
  EXPECT_FALSE(Env->equivalentUpTo(*Twin, high())); // H parts perturbed.
}

TEST(PartitionedHw, ThreeLevelPartitioning) {
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

TEST(PartitionedHw, SmallerPartitionsMissMore) {
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

INSTANTIATE_TEST_SUITE_P(AllDesigns, HwClone,
                         ::testing::ValuesIn(allHwKinds()),
                         [](const auto &Info) {
                           return std::string(hwKindName(Info.param));
                         });

//===- repeat_hit_test.cpp - Repeat-hit tickets are exact -----------------===//
//
// Tests for the repeat tickets of hw/MachineEnv.h: which changes to a
// HardwareEnv advance which side's epoch (and which accesses leave it
// alone), which accesses earn a ticket (unchanged hits, and nofill's
// probes that miss), and a differential check that runs random programs
// on every design and engine twice — once with tickets, once behind a
// forwarding env that grants none — and requires every observable,
// counter, ledger and the final machine state to agree.
//
//===----------------------------------------------------------------------===//

#include "analysis/RandomProgram.h"
#include "hw/HardwareModels.h"
#include "obs/CostLedger.h"
#include "sem/CompiledProgram.h"
#include "sem/FullInterpreter.h"
#include "sem/StepInterpreter.h"
#include "types/LabelInference.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

#include <utility>

using namespace zam;
using namespace zam::test;

namespace {
constexpr Addr DataA = 0x10000000;
/// The L1D set of DataA, in another TLB page (Table 1: 128 sets of 32 B).
constexpr Addr SameL1Set = DataA + 4096;
/// The DTLB set of DataA (16 sets of 4 KiB pages), in another L1D set.
constexpr Addr SameTlbSet = DataA + 16 * 4096 + 32;
constexpr Addr CodeA = 0x400000;

/// Addresses in TLB and L1 sets that no test touches on any design (the
/// partitioned one halves the sets), whose way-0 hits witness a side's
/// epoch.
constexpr Addr DataWitness = DataA + 3 * 4096 + 64;
constexpr Addr CodeWitness = CodeA + 3 * 4096 + 64;

std::unique_ptr<MachineEnv> env(HwKind Kind) {
  return createMachineEnv(Kind, lh(), MachineEnvConfig());
}

/// A ticket that holds until the data (\p IsData) or instruction side
/// changes: the second of two accesses to that side's witness address is
/// a way-0 hit that changes nothing.
RepeatTicket witness(MachineEnv &Env, bool IsData) {
  for (int I = 0; I != 2; ++I) {
    if (IsData)
      Env.dataAccess(DataWitness, /*IsStore=*/false, low(), low());
    else
      Env.fetch(CodeWitness, low(), low());
  }
  RepeatTicket T;
  Env.takeTicket(T);
  EXPECT_NE(T.Epoch, 0u);
  return T;
}

/// Which sides' epochs \p Change advanced, {instruction, data}: which of
/// two tickets taken just before it went stale.
using Sides = std::pair<bool, bool>;
const Sides Neither{false, false}, Both{true, true};
template <typename Fn> Sides advanced(MachineEnv &Env, Fn Change) {
  const RepeatTicket Instr = witness(Env, false), Data = witness(Env, true);
  Change();
  return {!Env.repeatAccess(Instr, CodeWitness, false),
          !Env.repeatAccess(Data, DataWitness, true)};
}

/// A load at \p A, and whether it advanced the data epoch. A data access
/// never advances the instruction epoch.
bool loadAdvances(MachineEnv &Env, Addr A, Label Read = low(),
                  Label Write = low()) {
  const Sides S = advanced(
      Env, [&] { Env.dataAccess(A, /*IsStore=*/false, Read, Write); });
  EXPECT_FALSE(S.first);
  return S.second;
}

bool storeAdvances(MachineEnv &Env, Addr A) {
  const Sides S = advanced(
      Env, [&] { Env.dataAccess(A, /*IsStore=*/true, low(), low()); });
  EXPECT_FALSE(S.first);
  return S.second;
}

/// A fetch at \p A, and whether it advanced the instruction epoch. A
/// fetch never advances the data epoch.
bool fetchAdvances(MachineEnv &Env, Addr A) {
  const Sides S = advanced(Env, [&] { Env.fetch(A, low(), low()); });
  EXPECT_FALSE(S.second);
  return S.first;
}
} // namespace

//===----------------------------------------------------------------------===//
// Epochs: every change advances its side, nothing else does
//===----------------------------------------------------------------------===//

class RepeatHitEpochs : public ::testing::TestWithParam<HwKind> {};

TEST_P(RepeatHitEpochs, AnInstallAdvancesOnlyItsSide) {
  auto Env = env(GetParam());
  EXPECT_TRUE(loadAdvances(*Env, DataA));
  EXPECT_TRUE(fetchAdvances(*Env, CodeA));
}

TEST_P(RepeatHitEpochs, AWayZeroHitDoesNotAdvance) {
  auto Env = env(GetParam());
  Env->dataAccess(DataA, false, low(), low());
  EXPECT_FALSE(loadAdvances(*Env, DataA));
  EXPECT_FALSE(loadAdvances(*Env, DataA));
  EXPECT_TRUE(fetchAdvances(*Env, CodeA));
  EXPECT_FALSE(fetchAdvances(*Env, CodeA));
}

TEST_P(RepeatHitEpochs, AnL1PromotionAdvances) {
  auto Env = env(GetParam());
  Env->dataAccess(DataA, false, low(), low());
  Env->dataAccess(SameL1Set, false, low(), low());
  // DataA is the L1 set's second way now; its TLB entry is still MRU.
  EXPECT_TRUE(loadAdvances(*Env, DataA));
  EXPECT_FALSE(loadAdvances(*Env, DataA));
}

TEST_P(RepeatHitEpochs, ATlbPromotionAdvances) {
  auto Env = env(GetParam());
  Env->dataAccess(DataA, false, low(), low());
  Env->dataAccess(SameTlbSet, false, low(), low());
  // DataA's page is the TLB set's second way now; its line is still MRU.
  EXPECT_TRUE(loadAdvances(*Env, DataA));
  EXPECT_FALSE(loadAdvances(*Env, DataA));
}

TEST_P(RepeatHitEpochs, OnlyTheFirstDirtyBitSetAdvances) {
  auto Env = env(GetParam());
  Env->dataAccess(DataA, false, low(), low()); // Installed clean.
  EXPECT_TRUE(storeAdvances(*Env, DataA));     // The dirty bit is set.
  EXPECT_FALSE(storeAdvances(*Env, DataA));    // Already dirty.
  EXPECT_FALSE(loadAdvances(*Env, DataA));
}

TEST_P(RepeatHitEpochs, WholeStateChangesAdvanceBothSides) {
  auto Env = env(GetParam());
  Env->dataAccess(DataA, false, low(), low());
  Env->fetch(CodeA, low(), low());
  EXPECT_EQ(advanced(*Env, [&] { Env->reset(); }), Both);
  Rng R(3);
  EXPECT_EQ(advanced(*Env, [&] { Env->randomize(R); }), Both);
  EXPECT_EQ(advanced(*Env, [&] { Env->perturbAbove(low(), R); }), Both);
  // Restoring in place advances the slot's own epochs, whatever the
  // template's.
  std::unique_ptr<MachineEnv> Slot = Env->clone();
  MachineEnv *const Same = Slot.get();
  EXPECT_EQ(advanced(*Slot, [&] { Env->copyInto(Slot); }), Both);
  EXPECT_EQ(Slot.get(), Same);
  // Counters are no state.
  EXPECT_EQ(advanced(*Env, [&] { Env->resetStats(); }), Neither);
}

TEST_P(RepeatHitEpochs, TicketsAreGrantedOnlyForUnchangedHits) {
  auto Env = env(GetParam());
  RepeatTicket T;
  Env->dataAccess(DataA, false, low(), low()); // A cold miss.
  Env->takeTicket(T);
  EXPECT_EQ(T.Epoch, 0u);
  EXPECT_FALSE(Env->repeatAccess(T, DataA, true));
  Env->dataAccess(DataA, false, low(), low()); // A way-0 hit.
  Env->takeTicket(T);
  EXPECT_NE(T.Epoch, 0u);
  EXPECT_EQ(T.A, DataA);
  EXPECT_EQ(T.Cycles, MachineEnvConfig().L1D.Latency);
  // The ticket repeats the hit: the TLB and L1 hits are counted.
  const HwStats Before = Env->stats();
  EXPECT_TRUE(Env->repeatAccess(T, DataA, true));
  EXPECT_EQ(Env->stats().DTlb.Hits, Before.DTlb.Hits + 1);
  EXPECT_EQ(Env->stats().L1D.Hits, Before.L1D.Hits + 1);
  EXPECT_EQ(Env->stats().L1D.Misses, Before.L1D.Misses);
  // Another address does not match.
  EXPECT_FALSE(Env->repeatAccess(T, DataA + 8, true));
  // A store that sets the dirty bit changes the line: no ticket, and the
  // load's ticket goes stale.
  Env->dataAccess(DataA, true, low(), low());
  RepeatTicket Store;
  Env->takeTicket(Store);
  EXPECT_EQ(Store.Epoch, 0u);
  EXPECT_FALSE(Env->repeatAccess(T, DataA, true));
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, RepeatHitEpochs,
                         ::testing::ValuesIn(allHwKinds()),
                         [](const auto &Info) {
                           return std::string(hwKindName(Info.param));
                         });

TEST(RepeatHitEpochsByDesign, AProbeDoesNotAdvanceAndEarnsATicket) {
  // nofill: an access with a high write label may only probe the one
  // low partition.
  auto Env = env(HwKind::NoFill);
  Env->dataAccess(DataA, false, low(), low());
  EXPECT_FALSE(loadAdvances(*Env, DataA, high(), high()));
  RepeatTicket T;
  Env->takeTicket(T);
  EXPECT_EQ(T.Epoch & RepeatTicket::kMissed, 0u);
  EXPECT_TRUE(Env->repeatAccess(T, DataA, true));
  // A probe miss installs nothing and changes nothing, so it earns a miss
  // ticket too: SameL1Set's page, line and block are all cold.
  EXPECT_FALSE(loadAdvances(*Env, SameL1Set, high(), high()));
  Env->takeTicket(T);
  EXPECT_EQ(T.Epoch & RepeatTicket::kMissed, RepeatTicket::kMissed);
  EXPECT_TRUE(Env->repeatAccess(T, SameL1Set, true));
}

TEST(RepeatHitEpochsByDesign, AStaleCopyMoveAdvances) {
  // partitioned: a low access finds DataA only in the high partition and
  // moves it down.
  auto Env = env(HwKind::Partitioned);
  Env->dataAccess(DataA, false, high(), high());
  EXPECT_FALSE(loadAdvances(*Env, DataA, high(), high()));
  EXPECT_TRUE(loadAdvances(*Env, DataA));
  EXPECT_FALSE(loadAdvances(*Env, DataA));
}

//===----------------------------------------------------------------------===//
// Miss tickets: a no-fill probe that misses changes nothing
//===----------------------------------------------------------------------===//

namespace {
/// Where a high-context access to DataA finds its block on Table 1's
/// caches after probeMissEnv's setup.
enum class Probe { TlbMissL1Hit, L2Hit, L2Miss };

/// A nofill env on which a high-context access to DataA misses as \p O
/// says, set up by low-context loads (which install):
///  - TlbMissL1Hit: DataA's line, then four pages in its DTLB set (4-way,
///    16 sets of 4 KiB), on lines in the next L1D set;
///  - L2Hit: DataA's line, then four lines in its L1D set (4-way, 4 KiB
///    apart), each in its own L2 set and DTLB set;
///  - L2Miss: another block of DataA's page only.
std::unique_ptr<MachineEnv> probeMissEnv(Probe O) {
  auto Env = env(HwKind::NoFill);
  auto Load = [&](Addr A) { Env->dataAccess(A, false, low(), low()); };
  switch (O) {
  case Probe::TlbMissL1Hit:
    Load(DataA);
    for (Addr K = 1; K <= 4; ++K)
      Load(DataA + K * 16 * 4096 + 32);
    break;
  case Probe::L2Hit:
    Load(DataA);
    for (Addr K = 1; K <= 4; ++K)
      Load(DataA + K * 4096);
    break;
  case Probe::L2Miss:
    Load(DataA + 256);
    break;
  }
  return Env;
}

/// The outcome bits and latency of a high-context access after
/// probeMissEnv(\p O) (Table 1 latencies).
std::pair<uint64_t, uint64_t> probeOutcome(Probe O) {
  const MachineEnvConfig C;
  switch (O) {
  case Probe::TlbMissL1Hit:
    return {RepeatTicket::kTlbMiss, C.DTlb.Latency + C.L1D.Latency};
  case Probe::L2Hit:
    return {RepeatTicket::kL1Miss, C.L1D.Latency + C.L2D.Latency};
  case Probe::L2Miss:
    return {RepeatTicket::kL1Miss | RepeatTicket::kL2Miss,
            C.L1D.Latency + C.L2D.Latency + C.MemLatency};
  }
  return {};
}

/// Counts the accesses it is told of.
struct CountingObserver final : HwObserver {
  unsigned Seen = 0;
  void onAccess(const HwAccess &) override { ++Seen; }
};
} // namespace

TEST(RepeatMiss, AProbeMissRepeatsExactlyWhatItsWalkDoes) {
  for (Probe O : {Probe::TlbMissL1Hit, Probe::L2Hit, Probe::L2Miss})
    for (bool IsStore : {false, true}) {
      SCOPED_TRACE(std::to_string(static_cast<int>(O)) +
                   (IsStore ? " store" : " load"));
      auto Env = probeMissEnv(O);
      const auto [Bits, Cycles] = probeOutcome(O);
      EXPECT_EQ(Env->dataAccess(DataA, IsStore, high(), high()), Cycles);
      RepeatTicket T;
      Env->takeTicket(T);
      EXPECT_EQ(T.Epoch & RepeatTicket::kMissed, Bits);
      EXPECT_EQ(T.A, DataA);
      EXPECT_EQ(T.Cycles, Cycles);
      // Each repeat counts what a clone's walk counts, and like the walk
      // leaves the state as it was.
      auto Walker = Env->clone();
      for (int I = 0; I != 2; ++I) {
        EXPECT_TRUE(Env->repeatAccess(T, DataA, true));
        EXPECT_EQ(Walker->dataAccess(DataA, IsStore, high(), high()),
                  T.Cycles);
        EXPECT_TRUE(Env->stats() == Walker->stats());
        EXPECT_TRUE(Env->stateEquals(*Walker));
      }
      // Another address does not match.
      EXPECT_FALSE(Env->repeatAccess(T, DataA + 8, true));
    }
}

TEST(RepeatMiss, ALowInstallOnItsSideMakesItStale) {
  auto Env = probeMissEnv(Probe::L2Miss);
  Env->dataAccess(DataA, false, high(), high());
  RepeatTicket T;
  Env->takeTicket(T);
  ASSERT_NE(T.Epoch & RepeatTicket::kMissed, 0u);
  // An install on the instruction side leaves it current.
  Env->fetch(CodeA, low(), low());
  EXPECT_TRUE(Env->repeatAccess(T, DataA, true));
  // One on the data side does not, and a refused repeat counts nothing.
  Env->dataAccess(DataA + 512, false, low(), low());
  const HwStats Before = Env->stats();
  EXPECT_FALSE(Env->repeatAccess(T, DataA, true));
  EXPECT_TRUE(Env->stats() == Before);
}

TEST(RepeatMiss, AnObserverRefusesItAndTheObservedWalkGrantsNone) {
  auto Env = probeMissEnv(Probe::L2Hit);
  Env->dataAccess(DataA, false, high(), high());
  RepeatTicket T;
  Env->takeTicket(T);
  ASSERT_NE(T.Epoch & RepeatTicket::kMissed, 0u);
  // Attached after the grant: the miss must reach the observer, so the
  // ticket is refused and the access walks.
  CountingObserver Obs;
  Env->setObserver(&Obs);
  const HwStats Before = Env->stats();
  EXPECT_FALSE(Env->repeatAccess(T, DataA, true));
  EXPECT_TRUE(Env->stats() == Before);
  Env->dataAccess(DataA, false, high(), high());
  EXPECT_EQ(Obs.Seen, 1u);
  RepeatTicket Observed;
  Env->takeTicket(Observed);
  EXPECT_EQ(Observed.Epoch, 0u);
  // The refusal was the observer's: detached, the old ticket holds.
  Env->setObserver(nullptr);
  EXPECT_TRUE(Env->repeatAccess(T, DataA, true));
  EXPECT_EQ(Obs.Seen, 1u);
}

class RepeatMissByDesign : public ::testing::TestWithParam<HwKind> {};

// The one access that misses and changes nothing is a probe that has no
// partition to install into: nofill's under a high write label. nopar and
// partitioned install on every miss, so they never ticket one.
TEST_P(RepeatMissByDesign, OnlyNoFillProbesEarnMissTickets) {
  for (const SecurityLattice *Lat :
       std::initializer_list<const SecurityLattice *>{&lh(), &lmh()}) {
    auto Env = createMachineEnv(GetParam(), *Lat, twoSetTwoWayConfig());
    Rng R(0x5EED + Lat->size());
    unsigned Misses = 0, Ticketed = 0;
    for (int I = 0; I != 2000; ++I) {
      const Label Read = Label::fromIndex(R.nextBelow(Lat->size()));
      const Label Write = Label::fromIndex(R.nextBelow(Lat->size()));
      const Addr A = 0x10000000 + 32 * R.nextBelow(16);
      const bool IsData = R.chance(50);
      const HwStats Before = Env->stats();
      if (IsData)
        Env->dataAccess(A, R.chance(30), Read, Write);
      else
        Env->fetch(A, Read, Write);
      const HwStats After = Env->stats();
      const bool Missed = IsData ? After.DTlb.Misses + After.L1D.Misses !=
                                       Before.DTlb.Misses + Before.L1D.Misses
                                 : After.ITlb.Misses + After.L1I.Misses !=
                                       Before.ITlb.Misses + Before.L1I.Misses;
      if (!Missed)
        continue;
      ++Misses;
      RepeatTicket T;
      Env->takeTicket(T);
      const bool NoFillProbe =
          GetParam() == HwKind::NoFill && Write != Lat->bottom();
      EXPECT_EQ(T.Epoch != 0, NoFillProbe) << "access " << I;
      Ticketed += T.Epoch != 0;
    }
    EXPECT_GT(Misses, 200u);
    if (GetParam() == HwKind::NoFill) {
      EXPECT_GT(Ticketed, 50u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, RepeatMissByDesign,
                         ::testing::ValuesIn(allHwKinds()),
                         [](const auto &Info) {
                           return std::string(hwKindName(Info.param));
                         });

//===----------------------------------------------------------------------===//
// Differential: tickets change nothing a run shows
//===----------------------------------------------------------------------===//

namespace {
/// Forwards every access to a real env and grants no tickets (it keeps no
/// epochs), so every access of a run on it takes the full walk. The
/// engine's observer is handed to the inner env on each access.
class ForwardingEnv final : public MachineEnv {
public:
  explicit ForwardingEnv(MachineEnv &Inner)
      : MachineEnv(Inner.hwKind(), Inner.lattice(), Inner.config()),
        Inner(Inner) {}

  uint64_t dataAccess(Addr A, bool IsStore, Label Read,
                      Label Write) override {
    Inner.setObserver(observer());
    return Inner.dataAccess(A, IsStore, Read, Write);
  }
  uint64_t fetch(Addr A, Label Read, Label Write) override {
    Inner.setObserver(observer());
    return Inner.fetch(A, Read, Write);
  }
  std::unique_ptr<MachineEnv> clone() const override { return Inner.clone(); }
  bool projectionEquals(const MachineEnv &Other, Label L) const override {
    return Inner.projectionEquals(Other, L);
  }
  void reset() override { Inner.reset(); }
  void randomize(Rng &R) override { Inner.randomize(R); }
  void perturbAbove(Label L, Rng &R) override { Inner.perturbAbove(L, R); }
  HwStats stats() const override { return Inner.stats(); }
  void resetStats() override { Inner.resetStats(); }

private:
  MachineEnv &Inner;
};

/// A HardwareEnv that tallies the TLB and L1 misses its own walks count.
/// Every other miss in its stats was counted by repeatAccess, from a miss
/// ticket.
class WalkCountingEnv final : public HardwareEnv {
public:
  using HardwareEnv::HardwareEnv;

  uint64_t dataAccess(Addr A, bool IsStore, Label Read,
                      Label Write) override {
    return walk(
        [&] { return HardwareEnv::dataAccess(A, IsStore, Read, Write); });
  }
  uint64_t fetch(Addr A, Label Read, Label Write) override {
    return walk([&] { return HardwareEnv::fetch(A, Read, Write); });
  }

  /// The TLB and L1 misses counted from miss tickets.
  uint64_t repeatedMisses() const { return misses() - Walked; }

private:
  uint64_t misses() const {
    return Stats.DTlb.Misses + Stats.ITlb.Misses + Stats.L1D.Misses +
           Stats.L1I.Misses;
  }
  template <typename Fn> uint64_t walk(Fn Access) {
    const uint64_t Before = misses();
    const uint64_t Cycles = Access();
    Walked += misses() - Before;
    return Cycles;
  }

  uint64_t Walked = 0;
};

/// Well-typed random programs over \p Lat with arrays of \p ArraySize
/// words, half of them with distinct read and write labels (nofill
/// probes, partitioned moves).
std::vector<Program> randomPrograms(const SecurityLattice &Lat, uint64_t Seed,
                                    unsigned Count, unsigned ArraySize) {
  Rng R(Seed);
  std::vector<Program> Out;
  for (unsigned Trial = 0; Trial != 80 && Out.size() < Count; ++Trial) {
    RandomProgramOptions O;
    O.MaxDepth = 3;
    O.MaxLoopTrips = 6;
    O.ArraySize = ArraySize;
    O.EqualTimingLabels = Trial % 2 == 0;
    if (std::optional<Program> P = randomWellTypedProgram(Lat, R, O))
      Out.push_back(std::move(*P));
  }
  return Out;
}

/// A fixed program that reaches the differential's workload gates on its
/// own, whatever the random programs draw: three passes of a
/// read-modify-write loop over 48 words, three times the two-set L1D. On
/// Table 1 every pass after the first hits; on the two-set machine every
/// pass writes back each line it dirtied.
Program storeSweep(const SecurityLattice &Lat) {
  Program P = parseOrDie("var a : L[48];\n"
                         "var i : L;\n"
                         "var r : L;\n"
                         "while (r < 3) do {\n"
                         "  i := 0;\n"
                         "  while (i < 48) do {\n"
                         "    a[i] := a[i] + i;\n"
                         "    i := i + 1\n"
                         "  };\n"
                         "  r := r + 1\n"
                         "}",
                         Lat);
  inferTimingLabels(P);
  return P;
}

/// One side of the differential: the env the engines run on (the
/// ticketed env itself, or a forwarding env over a clone) and a restore
/// of the env that runs drive from (copyInto, in place).
struct Side {
  MachineEnv &Run;
  std::unique_ptr<MachineEnv> &Slot;
};

/// What one side of the differential saw.
struct Observed {
  std::vector<uint64_t> Times;
  std::vector<AccessSample> Misses;
  std::vector<Memory> Final;
  CostLedger Ledger;
};

enum class Engine { Full, Step, Restarted, Restored, Interleaved };

const char *engineName(Engine E) {
  switch (E) {
  case Engine::Full:
    return "full";
  case Engine::Step:
    return "step";
  case Engine::Restarted:
    return "restarted";
  case Engine::Restored:
    return "restored";
  case Engine::Interleaved:
    return "interleaved";
  }
  return "?";
}

/// Runs \p C (and, interleaved, \p Other) on \p S with \p E; restored
/// runs start from \p Template.
void drive(Engine E, const CompiledProgram &C, const CompiledProgram &Other,
           Side S, const MachineEnv &Template, bool WithObservers,
           Observed &Out) {
  InterpreterOptions Opts;
  if (WithObservers) {
    Opts.RecordMisses = true;
    Opts.Provenance = &Out.Ledger;
  }
  auto Keep = [&](const Trace &T, const Memory &M) {
    Out.Times.push_back(T.FinalTime);
    Out.Misses.insert(Out.Misses.end(), T.Misses.begin(), T.Misses.end());
    Out.Final.push_back(M);
  };
  switch (E) {
  case Engine::Full: {
    FullInterpreter I(C, S.Run, Opts);
    Keep(I.complete(), I.memory());
    return;
  }
  case Engine::Step: {
    StepInterpreter Step(C, S.Run, Opts);
    while (!Step.done())
      Step.step();
    Keep(Step.trace(), Step.memory());
    return;
  }
  case Engine::Restarted:
  case Engine::Restored: {
    // Restarted runs start on the env the earlier ones warmed, so one
    // run's tickets are repeated by the next. A restored run starts from
    // the template restored in place (the streamObservations loop), after
    // a second run that left its tickets current: all of them must go
    // stale.
    FullInterpreter I(C, S.Run, Opts);
    for (int Run = 0; Run != 3; ++Run) {
      if (Run != 0) {
        if (E == Engine::Restored && Run == 2) {
          const MachineEnv *const Before = S.Slot.get();
          Template.copyInto(S.Slot);
          EXPECT_EQ(S.Slot.get(), Before) << "not restored in place";
        }
        I.restart();
      }
      Keep(I.complete(), I.memory());
    }
    return;
  }
  case Engine::Interleaved: {
    // Two cores share the env step by step: each one's changes must stale
    // the other's tickets. Only the first carries the observers.
    StepInterpreter A(C, S.Run, Opts);
    StepInterpreter B(Other, S.Run);
    while (!A.done() || !B.done()) {
      A.step();
      B.step();
    }
    Keep(A.trace(), A.memory());
    Keep(B.trace(), B.memory());
    return;
  }
  }
}

/// What the ticketed side of one differential ran.
struct TicketedRun {
  HwStats Stats;
  /// The TLB and L1 misses answered from miss tickets (none counted for
  /// restored runs, whose env must be a HardwareEnv to restore in place).
  uint64_t RepeatedMisses = 0;
};

TicketedRun expectTicketsChangeNothing(const Program &P, const Program &Other,
                                       HwKind Kind,
                                       const MachineEnvConfig &Config,
                                       Engine E, bool WithObservers) {
  SCOPED_TRACE(std::string(hwKindName(Kind)) + " " + engineName(E) +
               (WithObservers ? " observed" : " unobserved"));
  const CompiledProgram C(P), CO(Other);
  // Restored runs start from a cold machine.
  auto Template = createMachineEnv(Kind, P.lattice(), Config);
  std::unique_ptr<MachineEnv> Ticketed;
  WalkCountingEnv *Counting = nullptr;
  if (E == Engine::Restored) {
    Ticketed = createMachineEnv(Kind, P.lattice(), Config);
  } else {
    auto Env = std::make_unique<WalkCountingEnv>(Kind, P.lattice(), Config);
    Counting = Env.get();
    Ticketed = std::move(Env);
  }
  auto Plain = Ticketed->clone();
  ForwardingEnv Forward(*Plain);
  Observed T, F;
  drive(E, C, CO, {*Ticketed, Ticketed}, *Template, WithObservers, T);
  drive(E, C, CO, {Forward, Plain}, *Template, WithObservers, F);
  EXPECT_EQ(T.Times, F.Times);
  EXPECT_TRUE(T.Misses == F.Misses);
  EXPECT_TRUE(T.Final == F.Final);
  EXPECT_TRUE(Ticketed->stats() == Plain->stats());
  EXPECT_EQ(T.Ledger.toJson().dump(), F.Ledger.toJson().dump());
  EXPECT_TRUE(Ticketed->stateEquals(*Plain));
  return {Ticketed->stats(), Counting ? Counting->repeatedMisses() : 0};
}
} // namespace

class RepeatHitDifferential : public ::testing::TestWithParam<HwKind> {};

TEST_P(RepeatHitDifferential, RandomProgramsRunAsWithoutTickets) {
  for (CacheGeometry G :
       {CacheGeometry::Table1, CacheGeometry::TwoSetTwoWay}) {
    uint64_t L1Hits = 0, L1Misses = 0, Writebacks = 0, Evictions = 0;
    uint64_t RepeatedMisses = 0;
    for (const SecurityLattice *Lat :
         std::initializer_list<const SecurityLattice *>{&lh(), &lmh()}) {
      // On the two-set geometry, programs with the default arrays too:
      // their scalars and loop counters conflict in its four L1D lines,
      // which makes the writebacks required below.
      std::vector<Program> Programs =
          randomPrograms(*Lat, 0x71C4E7, 8, randomArraySize(G));
      ASSERT_GE(Programs.size(), 6u);
      if (G == CacheGeometry::TwoSetTwoWay)
        for (Program &P : randomPrograms(*Lat, 0x71C4E7, 8,
                                         RandomProgramOptions().ArraySize))
          Programs.push_back(std::move(P));
      Programs.push_back(storeSweep(*Lat));
      for (size_t I = 0; I != Programs.size(); ++I) {
        SCOPED_TRACE("program " + std::to_string(I) + " over " +
                     std::to_string(Lat->size()) + " levels on " +
                     geometryName(G));
        const Program &Other = Programs[(I + 1) % Programs.size()];
        for (Engine E : {Engine::Full, Engine::Step, Engine::Restarted,
                         Engine::Restored, Engine::Interleaved})
          for (bool WithObservers : {false, true}) {
            const TicketedRun Run = expectTicketsChangeNothing(
                Programs[I], Other, GetParam(), configOf(G), E,
                WithObservers);
            const HwStats &S = Run.Stats;
            L1Hits += S.L1I.Hits + S.L1D.Hits;
            L1Misses += S.L1I.Misses + S.L1D.Misses;
            Writebacks += S.L1D.Writebacks;
            Evictions += S.L1D.Evictions;
            // An observer sees every miss: no miss ticket is repeated.
            if (WithObservers) {
              EXPECT_EQ(Run.RepeatedMisses, 0u);
            }
            RepeatedMisses += Run.RepeatedMisses;
          }
      }
    }
    // The runs were worth comparing: they hit (where tickets repeat) and
    // they missed (where epochs advance) many times; on the tiny machine
    // dirty lines were evicted too. storeSweep alone reaches the hit and
    // writeback counts, so they do not hang on the seed's draws. nofill
    // repeated probe misses from their tickets, which no other design
    // grants.
    std::printf("[          ] %s on %s: %llu misses repeated from tickets\n",
                hwKindName(GetParam()), geometryName(G),
                static_cast<unsigned long long>(RepeatedMisses));
    EXPECT_GT(L1Hits, 1000u);
    EXPECT_GT(L1Misses, 100u);
    if (G == CacheGeometry::TwoSetTwoWay) {
      EXPECT_GT(Writebacks, 100u);
    }
    if (GetParam() == HwKind::NoFill) {
      EXPECT_GT(RepeatedMisses, 0u);
    } else {
      EXPECT_EQ(RepeatedMisses, 0u);
    }
    static EvictionTally Tally;
    Tally.add(GetParam(), G, Evictions);
  }
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, RepeatHitDifferential,
                         ::testing::ValuesIn(allHwKinds()),
                         [](const auto &Info) {
                           return std::string(hwKindName(Info.param));
                         });

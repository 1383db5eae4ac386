//===- repeat_hit_test.cpp - Repeat-hit tickets are exact -----------------===//
//
// Tests for the repeat tickets of hw/MachineEnv.h: which changes to a
// HardwareEnv stale which tickets (those of the sets they change, and all
// of a side's on a whole-state change), which accesses earn a ticket
// (unchanged hits, and nofill's probes that miss), an exhaustive check of
// every ticket against a clone's walk over the states of a tiny machine,
// and a differential check that runs random programs on every design and
// engine twice — once with tickets, once behind a forwarding env that
// grants none — and requires every observable, counter, ledger and the
// final machine state to agree.
//
//===----------------------------------------------------------------------===//

#include "analysis/RandomProgram.h"
#include "hw/HardwareModels.h"
#include "obs/CostLedger.h"
#include "sem/CompiledProgram.h"
#include "sem/FullInterpreter.h"
#include "types/LabelInference.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

#include <chrono>
#include <functional>
#include <set>
#include <span>
#include <utility>

using namespace zam;
using namespace zam::test;

namespace {
constexpr Addr DataA = 0x10000000;
/// The L1D set of DataA, in another TLB page (Table 1: 128 sets of 32 B).
constexpr Addr SameL1Set = DataA + 4096;
/// The DTLB set of DataA (16 sets of 4 KiB pages), in another L1D set.
constexpr Addr SameTlbSet = DataA + 16 * 4096 + 32;
/// Another line and page in both DataA's DTLB set and its L1D set.
constexpr Addr SameSets = DataA + 16 * 4096;
constexpr Addr CodeA = 0x400000;
/// Another line and page in both CodeA's ITLB set (32 sets of 4 KiB) and
/// its L1I set (512 sets of 32 B).
constexpr Addr CodeSameSets = CodeA + 32 * 4096;

/// Addresses in TLB and L1 sets that no test touches on any design (the
/// partitioned one halves the sets, which keeps every set named above the
/// same), whose way-0 hits witness a side.
constexpr Addr DataWitness = DataA + 3 * 4096 + 64;
constexpr Addr CodeWitness = CodeA + 3 * 4096 + 64;

std::unique_ptr<MachineEnv> env(HwKind Kind) {
  return createMachineEnv(Kind, lh(), MachineEnvConfig());
}

/// A ticket at \p A on the data (\p IsData) or instruction side that holds
/// until A's TLB or L1 set changes: the second of two low accesses to A is
/// a way-0 hit that changes nothing.
RepeatTicket witness(MachineEnv &Env, Addr A, bool IsData) {
  for (int I = 0; I != 2; ++I) {
    if (IsData)
      Env.dataAccess(A, /*IsStore=*/false, low(), low());
    else
      Env.fetch(A, low(), low());
  }
  RepeatTicket T;
  Env.takeTicket(T);
  EXPECT_NE(T.Epoch, 0u);
  return T;
}

/// Which of two tickets taken just before \p Change, at each side's
/// witness address, it made stale: {instruction, data}.
using Sides = std::pair<bool, bool>;
const Sides Neither{false, false}, Both{true, true};
template <typename Fn> Sides advanced(MachineEnv &Env, Fn Change) {
  RepeatTicket Instr = witness(Env, CodeWitness, false),
               Data = witness(Env, DataWitness, true);
  Change();
  return {!Env.repeatAccess(Instr, CodeWitness, false),
          !Env.repeatAccess(Data, DataWitness, true)};
}

/// Whether \p Change made stale a ticket at \p InSet, an address on the
/// \p IsData side in a set that \p Change's access reaches, taken just
/// before it. Tickets at both sides' witness addresses, in sets no access
/// reaches, must survive: a change stales only the tickets of its sets.
template <typename Fn>
bool stales(MachineEnv &Env, Addr InSet, bool IsData, Fn Change) {
  RepeatTicket Instr = witness(Env, CodeWitness, false),
               Data = witness(Env, DataWitness, true),
               Set = witness(Env, InSet, IsData);
  Change();
  const bool Stale = !Env.repeatAccess(Set, InSet, IsData);
  EXPECT_TRUE(Env.repeatAccess(Instr, CodeWitness, false))
      << "a change staled the instruction witness";
  EXPECT_TRUE(Env.repeatAccess(Data, DataWitness, true))
      << "a change staled the data witness";
  return Stale;
}

/// A load at \p A, and whether it staled \p InSet's ticket.
bool loadStales(MachineEnv &Env, Addr A, Addr InSet, Label Read = low(),
                Label Write = low()) {
  return stales(Env, InSet, true, [&] {
    Env.dataAccess(A, /*IsStore=*/false, Read, Write);
  });
}

bool storeStales(MachineEnv &Env, Addr A, Addr InSet) {
  return stales(Env, InSet, true, [&] {
    Env.dataAccess(A, /*IsStore=*/true, low(), low());
  });
}

/// A fetch at \p A, and whether it staled \p InSet's ticket.
bool fetchStales(MachineEnv &Env, Addr A, Addr InSet) {
  return stales(Env, InSet, false, [&] { Env.fetch(A, low(), low()); });
}
} // namespace

//===----------------------------------------------------------------------===//
// Set stamps: every change stales the tickets of its sets, nothing else
// does
//===----------------------------------------------------------------------===//

class RepeatHitEpochs : public ::testing::TestWithParam<HwKind> {};

TEST_P(RepeatHitEpochs, AnInstallAdvancesOnlyItsSide) {
  auto Env = env(GetParam());
  // The install makes the witness's line and page the second way of their
  // sets.
  EXPECT_TRUE(loadStales(*Env, DataA, SameSets));
  EXPECT_TRUE(fetchStales(*Env, CodeA, CodeSameSets));
}

TEST_P(RepeatHitEpochs, AWayZeroHitDoesNotAdvance) {
  auto Env = env(GetParam());
  Env->dataAccess(DataA, false, low(), low());
  EXPECT_FALSE(loadStales(*Env, DataA, DataA));
  EXPECT_FALSE(loadStales(*Env, DataA, DataA));
  EXPECT_TRUE(fetchStales(*Env, CodeA, CodeSameSets));
  EXPECT_FALSE(fetchStales(*Env, CodeA, CodeA));
}

TEST_P(RepeatHitEpochs, AnL1PromotionAdvances) {
  auto Env = env(GetParam());
  Env->dataAccess(DataA, false, low(), low());
  Env->dataAccess(SameL1Set, false, low(), low());
  // DataA is the L1 set's second way now; its TLB entry is still MRU.
  EXPECT_TRUE(loadStales(*Env, DataA, SameL1Set));
  EXPECT_FALSE(loadStales(*Env, DataA, DataA));
}

TEST_P(RepeatHitEpochs, ATlbPromotionAdvances) {
  auto Env = env(GetParam());
  Env->dataAccess(DataA, false, low(), low());
  Env->dataAccess(SameTlbSet, false, low(), low());
  // DataA's page is the TLB set's second way now; its line is still MRU.
  EXPECT_TRUE(loadStales(*Env, DataA, SameTlbSet));
  EXPECT_FALSE(loadStales(*Env, DataA, DataA));
}

TEST_P(RepeatHitEpochs, OnlyTheFirstDirtyBitSetAdvances) {
  auto Env = env(GetParam());
  Env->dataAccess(DataA, false, low(), low());      // Installed clean.
  EXPECT_TRUE(storeStales(*Env, DataA, DataA));     // The dirty bit is set.
  EXPECT_FALSE(storeStales(*Env, DataA, DataA));    // Already dirty.
  EXPECT_FALSE(loadStales(*Env, DataA, DataA));
}

TEST_P(RepeatHitEpochs, WholeStateChangesAdvanceBothSides) {
  auto Env = env(GetParam());
  Env->dataAccess(DataA, false, low(), low());
  Env->fetch(CodeA, low(), low());
  // Every set changes: the witnesses' sets too.
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
  // Another word of the line repeats too, counting exactly what a clone's
  // walk counts, and the ticket becomes that word's.
  auto Walker = Env->clone();
  EXPECT_TRUE(Env->repeatAccess(T, DataA + 8, true));
  EXPECT_EQ(Walker->dataAccess(DataA + 8, false, low(), low()), T.Cycles);
  EXPECT_TRUE(Env->stats() == Walker->stats());
  EXPECT_TRUE(Env->stateEquals(*Walker));
  EXPECT_EQ(T.A, DataA + 8);
  // The next line does not repeat: its L1 outcome is its own.
  const HwStats Refused = Env->stats();
  EXPECT_FALSE(Env->repeatAccess(T, DataA + 32, true));
  EXPECT_TRUE(Env->stats() == Refused);
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
  EXPECT_FALSE(loadStales(*Env, DataA, DataA, high(), high()));
  RepeatTicket T;
  Env->takeTicket(T);
  EXPECT_EQ(T.Epoch & RepeatTicket::kMissed, 0u);
  EXPECT_TRUE(Env->repeatAccess(T, DataA, true));
  // A probe miss installs nothing and changes nothing, so it earns a miss
  // ticket too: SameL1Set's page, line and block are all cold.
  EXPECT_FALSE(loadStales(*Env, SameL1Set, DataA, high(), high()));
  Env->takeTicket(T);
  EXPECT_EQ(T.Epoch & RepeatTicket::kMissed, RepeatTicket::kMissed);
  EXPECT_TRUE(Env->repeatAccess(T, SameL1Set, true));
}

TEST(RepeatHitEpochsByDesign, AStaleCopyMoveAdvances) {
  // partitioned: a low access finds DataA only in the high partition and
  // moves it down, into the low partition's sets where SameSets is MRU.
  auto Env = env(HwKind::Partitioned);
  Env->dataAccess(DataA, false, high(), high());
  EXPECT_FALSE(loadStales(*Env, DataA, SameSets, high(), high()));
  EXPECT_TRUE(loadStales(*Env, DataA, SameSets));
  EXPECT_FALSE(loadStales(*Env, DataA, DataA));
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
// Small scope: every ticket on a tiny machine, against a clone's walk
//===----------------------------------------------------------------------===//

namespace {
/// The tiny machine: 4 sets × 2 ways in every structure (2 sets per level
/// under partitioned), 16-byte lines of two words and 32-byte pages of two
/// lines.
MachineEnvConfig tinyConfig() {
  MachineEnvConfig C;
  C.L1D = {4, 2, 16, 1};
  C.L2D = {4, 2, 32, 6};
  C.L1I = {4, 2, 16, 1};
  C.L2I = {4, 2, 32, 6};
  C.DTlb = {4, 2, 32, 30};
  C.ITlb = {4, 2, 32, 30};
  return C;
}

/// Two words of one line, another line of its page, and lines in three
/// other pages. On every design they cover two TLB sets and two L1 sets,
/// and four of the lines share an L1 set of two ways.
constexpr Addr TinyDataPool[] = {DataA,      DataA + 8,  DataA + 16,
                                 DataA + 32, DataA + 64, DataA + 128};
/// Two lines of one page and a line of the next.
constexpr Addr TinyCodePool[] = {CodeA, CodeA + 16, CodeA + 32};

/// One access of the small-scope alphabet: its kind, store bit and labels,
/// and the address it makes when it grants a ticket or intervenes.
struct TinyAccess {
  Addr A;
  bool IsData, IsStore;
  Label Read, Write;
};

/// Every pool address under every label pair, loads and stores; fetches
/// under [L, L] and [H, H].
std::vector<TinyAccess> tinyAccesses() {
  std::vector<TinyAccess> Out;
  const std::pair<Label, Label> Pairs[] = {
      {low(), low()}, {low(), high()}, {high(), low()}, {high(), high()}};
  for (Addr A : TinyDataPool)
    for (bool IsStore : {false, true})
      for (const auto &[Read, Write] : Pairs)
        Out.push_back({A, true, IsStore, Read, Write});
  for (Addr A : TinyCodePool)
    for (Label L : {low(), high()})
      Out.push_back({A, false, false, L, L});
  return Out;
}

/// \p X's access, made at \p A.
uint64_t make(MachineEnv &Env, const TinyAccess &X, Addr A) {
  return X.IsData ? Env.dataAccess(A, X.IsStore, X.Read, X.Write)
                  : Env.fetch(A, X.Read, X.Write);
}

/// Every line of every partition in MRU order, dirty bits included: the
/// whole state, where stateEquals leaves the dirty bits out.
std::vector<uint64_t> fullState(const MachineEnv &Env) {
  std::vector<uint64_t> Key;
  for (const Cache &C : static_cast<const HardwareEnv &>(Env).caches())
    for (unsigned S = 0; S != C.config().NumSets; ++S) {
      Key.push_back(C.occupancy(S));
      for (unsigned W = 0; W != C.occupancy(S); ++W)
        Key.push_back(C.lineAt(S, W));
    }
  return Key;
}

/// The states reachable from a cold tiny \p Kind env in at most \p Depth
/// accesses of the alphabet, each once.
std::vector<std::unique_ptr<MachineEnv>> tinyStates(HwKind Kind,
                                                    unsigned Depth) {
  const std::vector<TinyAccess> Alphabet = tinyAccesses();
  std::vector<std::unique_ptr<MachineEnv>> States;
  std::set<std::vector<uint64_t>> Seen;
  States.push_back(createMachineEnv(Kind, lh(), tinyConfig()));
  Seen.insert(fullState(*States[0]));
  size_t Begin = 0;
  for (unsigned D = 0; D != Depth; ++D) {
    const size_t End = States.size();
    for (size_t I = Begin; I != End; ++I)
      for (const TinyAccess &X : Alphabet) {
        auto Next = States[I]->clone();
        make(*Next, X, X.A);
        if (Seen.insert(fullState(*Next)).second)
          States.push_back(std::move(Next));
      }
    Begin = End;
  }
  return States;
}
} // namespace

class RepeatTicketSmallScope : public ::testing::TestWithParam<HwKind> {};

// Every state of the tiny machine reachable in kDepth accesses; in each,
// every access that earns a ticket, then every intervening change (an
// access of the alphabet or a whole-state change), then the ticket asked
// to repeat at every pool address of its page. Whenever it answers, a
// clone's walk of the same access must give the ticket's cycles, count
// the same stats and leave the same state, dirty bits included.
TEST_P(RepeatTicketSmallScope, EveryTicketRepeatsExactlyWhatItsWalkDoes) {
  constexpr unsigned kDepth = 2;
  const HwKind Kind = GetParam();
  const auto Start = std::chrono::steady_clock::now();
  const std::vector<std::unique_ptr<MachineEnv>> States =
      tinyStates(Kind, kDepth);
  const std::vector<TinyAccess> Alphabet = tinyAccesses();
  const auto Cold = createMachineEnv(Kind, lh(), tinyConfig());
  // A restore template that no state equals: every line of both sides
  // resident somewhere.
  auto Warm = createMachineEnv(Kind, lh(), tinyConfig());
  for (const TinyAccess &X : Alphabet)
    make(*Warm, X, X.A);

  using Change = std::function<void(std::unique_ptr<MachineEnv> &)>;
  std::vector<std::pair<std::string, Change>> Changes;
  for (const TinyAccess &X : Alphabet)
    Changes.push_back({"access", [&X](std::unique_ptr<MachineEnv> &E) {
                         make(*E, X, X.A);
                       }});
  Changes.push_back(
      {"reset", [](std::unique_ptr<MachineEnv> &E) { E->reset(); }});
  Changes.push_back({"randomize", [](std::unique_ptr<MachineEnv> &E) {
                       Rng R(7);
                       E->randomize(R);
                     }});
  Changes.push_back({"perturbAbove", [](std::unique_ptr<MachineEnv> &E) {
                       Rng R(9);
                       E->perturbAbove(low(), R);
                     }});
  Changes.push_back({"restore cold", [&](std::unique_ptr<MachineEnv> &E) {
                       Cold->copyInto(E);
                     }});
  Changes.push_back({"restore warm", [&](std::unique_ptr<MachineEnv> &E) {
                       Warm->copyInto(E);
                     }});

  uint64_t Pairs = 0, Asked = 0, Answered = 0, Revalidated = 0;
  for (size_t SI = 0; SI != States.size(); ++SI) {
    const MachineEnv &State = *States[SI];
    for (const TinyAccess &G : Alphabet) {
      // Does G earn a ticket in this state?
      {
        auto Probe = State.clone();
        make(*Probe, G, G.A);
        RepeatTicket T;
        Probe->takeTicket(T);
        if (T.Epoch == 0)
          continue;
      }
      const Addr Page = G.A >> 5;
      for (const auto &[Name, Change] : Changes) {
        ++Pairs;
        for (Addr A : G.IsData ? std::span<const Addr>(TinyDataPool)
                               : std::span<const Addr>(TinyCodePool)) {
          if (A >> 5 != Page)
            continue;
          std::unique_ptr<MachineEnv> Env = State.clone();
          make(*Env, G, G.A);
          RepeatTicket T;
          Env->takeTicket(T);
          Change(Env);
          const RepeatTicket Before = T;
          auto Walker = Env->clone();
          ++Asked;
          if (!Env->repeatAccess(T, A, G.IsData))
            continue;
          ++Answered;
          Revalidated += T.Epoch != Before.Epoch || T.A != Before.A;
          SCOPED_TRACE("state " + std::to_string(SI) + ", ticket at " +
                       std::to_string(G.A - (G.IsData ? DataA : CodeA)) +
                       (G.IsStore ? " store" : "") + " [" +
                       std::to_string(G.Read.index()) + "," +
                       std::to_string(G.Write.index()) + "], " + Name +
                       ", repeated at " +
                       std::to_string(A - (G.IsData ? DataA : CodeA)));
          EXPECT_EQ(make(*Walker, G, A), Before.Cycles);
          EXPECT_TRUE(Env->stats() == Walker->stats());
          EXPECT_TRUE(fullState(*Env) == fullState(*Walker));
          if (HasFailure())
            return;
        }
      }
    }
  }
  const double Seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - Start)
                             .count();
  std::printf("[          ] %s, depth %u: %zu states, %llu ticket/change "
              "pairs, %llu repeats asked, %llu answered (%llu "
              "revalidated), %.2f s\n",
              hwKindName(Kind), kDepth, States.size(),
              static_cast<unsigned long long>(Pairs),
              static_cast<unsigned long long>(Asked),
              static_cast<unsigned long long>(Answered),
              static_cast<unsigned long long>(Revalidated), Seconds);
  EXPECT_GT(Revalidated, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, RepeatTicketSmallScope,
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

/// A fixed program that makes nofill repeat probe misses whatever the
/// random programs draw: a high loop, mitigated, reads a low scalar that
/// no low-context access ever installs, so each read under the loop's
/// high write label is a no-fill probe that misses the same way. nopar
/// and partitioned install it on the first read and hit after that.
Program highReadOfColdLow(const SecurityLattice &Lat) {
  Program P = parseOrDie("var b : L;\n"
                         "var acc : H;\n"
                         "var k : H;\n"
                         "mitigate (64, H) {\n"
                         "  while (k < 24) do {\n"
                         "    acc := acc + b;\n"
                         "    k := k + 1\n"
                         "  }\n"
                         "}",
                         Lat);
  inferTimingLabels(P);
  return P;
}

/// A fixed program that revalidates hit tickets on every design and
/// geometry: its four words fill one 32-byte line, so after the first
/// pass dirtied it, its loops change nothing on the data side, and the
/// load of a[i] repeats at the line's other word from its ticket. It is
/// the one such case on the two-set machine under partitioned, where each
/// level has one set: any access to another line there changes the set
/// of every ticket.
Program oneLineLoop(const SecurityLattice &Lat) {
  Program P = parseOrDie("var a : L[2];\n"
                         "var i : L;\n"
                         "var r : L;\n"
                         "while (r < 8) do {\n"
                         "  i := 0;\n"
                         "  while (i < 2) do {\n"
                         "    a[i] := a[i] + r;\n"
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
    FullInterpreter Step(C, S.Run, Opts);
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
    // the other's tickets. Only the first carries the ledger. Each engine
    // observes only its own steps, so with observers the second samples
    // its misses too: every access of an observed drive is observed.
    InterpreterOptions OtherOpts;
    OtherOpts.RecordMisses = WithObservers;
    FullInterpreter A(C, S.Run, Opts);
    FullInterpreter B(Other, S.Run, OtherOpts);
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
  /// The TLB and L1 misses answered from miss tickets (not counted for
  /// restored runs, whose env must be a HardwareEnv to restore in place),
  /// and the accesses answered from revalidated hit tickets.
  uint64_t RepeatedMisses = 0;
  uint64_t Revalidated = 0;
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
  if (!Counting)
    return {Ticketed->stats(), 0, Ticketed->revalidations()};
  return {Ticketed->stats(), Counting->repeatedMisses(),
          Ticketed->revalidations()};
}
} // namespace

class RepeatHitDifferential : public ::testing::TestWithParam<HwKind> {};

TEST_P(RepeatHitDifferential, RandomProgramsRunAsWithoutTickets) {
  for (CacheGeometry G :
       {CacheGeometry::Table1, CacheGeometry::TwoSetTwoWay}) {
    uint64_t L1Hits = 0, L1Misses = 0, Writebacks = 0, Evictions = 0;
    uint64_t RepeatedMisses = 0, Revalidated = 0;
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
      Programs.push_back(highReadOfColdLow(*Lat));
      Programs.push_back(oneLineLoop(*Lat));
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
            Revalidated += Run.Revalidated;
          }
      }
    }
    // The runs were worth comparing: they hit (where tickets repeat) and
    // they missed (where epochs advance) many times; on the tiny machine
    // dirty lines were evicted too. Hit tickets were revalidated after a
    // change elsewhere on their side, or at another word of their line.
    // nofill repeated probe misses from their tickets, which no other
    // design grants. storeSweep alone reaches the hit and writeback
    // counts, oneLineLoop the revalidations and highReadOfColdLow the
    // repeated misses, so none of them hangs on the seed's draws.
    std::printf("[          ] %s on %s: %llu misses repeated from tickets, "
                "%llu hits from revalidated tickets\n",
                hwKindName(GetParam()), geometryName(G),
                static_cast<unsigned long long>(RepeatedMisses),
                static_cast<unsigned long long>(Revalidated));
    EXPECT_GT(Revalidated, 0u);
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

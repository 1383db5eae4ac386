//===- HardwareModels.cpp -------------------------------------------------===//

#include "hw/HardwareModels.h"

#include "support/Diagnostics.h"

#include <cassert>

using namespace zam;

const char *zam::hwKindName(HwKind Kind) {
  switch (Kind) {
  case HwKind::NoPartition:
    return "nopar";
  case HwKind::NoFill:
    return "nofill";
  case HwKind::Partitioned:
    return "partitioned";
  }
  return "unknown";
}

MachineEnv::~MachineEnv() = default;

HwObserver::~HwObserver() = default;

bool MachineEnv::equivalentUpTo(const MachineEnv &Other, Label L) const {
  for (Label Lv : Lat->allLabels())
    if (Lat->flowsTo(Lv, L) && !projectionEquals(Other, Lv))
      return false;
  return true;
}

std::string MachineEnv::describe() const {
  std::string Out = hwKindName(Kind);
  Out += " hardware over a ";
  Out += std::to_string(Lat->size());
  Out += "-level lattice";
  return Out;
}

std::unique_ptr<MachineEnv>
zam::createMachineEnv(HwKind Kind, const SecurityLattice &Lat,
                      const MachineEnvConfig &Config) {
  switch (Kind) {
  case HwKind::NoPartition:
    return std::make_unique<NoPartitionHw>(Lat, Config);
  case HwKind::NoFill:
    return std::make_unique<NoFillHw>(Lat, Config);
  case HwKind::Partitioned:
    return std::make_unique<PartitionedHw>(Lat, Config);
  }
  reportFatalError("unknown hardware kind");
}

namespace {
/// The configurations of the six structures, in HwStructure order.
std::vector<CacheConfig> structureConfigs(const MachineEnvConfig &C) {
  return {C.L1D, C.L2D, C.L1I, C.L2I, C.DTlb, C.ITlb};
}

/// The merged-stats slot of each structure, in HwStructure order.
CacheLevelStats &statsOf(HwStats &S, unsigned Structure) {
  CacheLevelStats *Levels[] = {&S.L1D, &S.L2D, &S.L1I, &S.L2I, &S.DTlb,
                               &S.ITlb};
  return *Levels[Structure];
}

/// Folds one cache's event counters into the merged per-structure view.
void mergeEvents(CacheLevelStats &S, const CacheEvents &E) {
  S.Evictions += E.Evictions;
  S.Writebacks += E.Writebacks;
  S.LineFills += E.LineFills;
}

/// Sums the event counters of the \p N caches at \p P (one structure's
/// partitions; N = 1 for the unpartitioned designs).
CacheEvents sumEvents(const Cache *P, unsigned N) {
  CacheEvents E;
  for (unsigned I = 0; I != N; ++I) {
    E.Evictions += P[I].events().Evictions;
    E.Writebacks += P[I].events().Writebacks;
    E.LineFills += P[I].events().LineFills;
  }
  return E;
}

/// Runs \p Install, which may install into or remove from the \p N caches
/// at \p P, and stores the events it caused there in \p D. Lookups and
/// probes change no event counter, so the observed walks read events only
/// around installs: a hit leaves every delta at zero without reading any.
template <typename InstallFn>
void trackInstall(const Cache *P, unsigned N, HwEventDelta &D,
                  InstallFn Install) {
  const CacheEvents Before = sumEvents(P, N);
  Install();
  const CacheEvents After = sumEvents(P, N);
  D.Evictions = static_cast<uint32_t>(After.Evictions - Before.Evictions);
  D.Writebacks = static_cast<uint32_t>(After.Writebacks - Before.Writebacks);
  D.LineFills = static_cast<uint32_t>(After.LineFills - Before.LineFills);
}
} // namespace

//===----------------------------------------------------------------------===//
// UnifiedHwBase
//===----------------------------------------------------------------------===//

UnifiedHwBase::UnifiedHwBase(HwKind Kind, const SecurityLattice &Lat,
                             const MachineEnvConfig &Config, bool NoFillMode)
    : MachineEnv(Kind, Lat, Config), Caches(structureConfigs(Config)),
      NoFillMode(NoFillMode), Bottom(Lat.bottom()) {}

namespace {
/// Walks one TLB + two-level cache path. \p Fill selects between normal
/// operation and no-fill probing (no installs, no LRU updates). \p IsStore
/// marks the L1 line dirty (telemetry only; writebacks add no latency).
/// \p Observed selects whether miss flags and each install's event deltas
/// are reported through \p Acc — the unobserved instantiation is the
/// simulator's hottest path and skips every HwAccess store.
template <bool Observed>
uint64_t unifiedPath(Cache &Tlb, Cache &L1, Cache &L2, Addr A, bool Fill,
                     bool IsStore, uint64_t MemLatency,
                     CacheLevelStats &TlbStats, CacheLevelStats &L1Stats,
                     CacheLevelStats &L2Stats, HwAccess *Acc) {
  uint64_t Cycles = 0;

  bool TlbHit = Fill ? Tlb.lookup(A) : Tlb.probe(A);
  if (TlbHit) {
    ++TlbStats.Hits;
  } else {
    ++TlbStats.Misses;
    if constexpr (Observed)
      Acc->TlbMiss = true;
    Cycles += Tlb.latency();
    if (Fill) {
      if constexpr (Observed)
        trackInstall(&Tlb, 1, Acc->TlbEvents, [&] { Tlb.install(A); });
      else
        Tlb.install(A);
    }
  }

  Cycles += L1.latency();
  bool L1Hit = Fill ? L1.lookup(A, IsStore) : L1.probe(A);
  if (L1Hit) {
    ++L1Stats.Hits;
    return Cycles;
  }
  ++L1Stats.Misses;
  if constexpr (Observed)
    Acc->L1Miss = true;

  Cycles += L2.latency();
  bool L2Hit = Fill ? L2.lookup(A) : L2.probe(A);
  if (L2Hit) {
    ++L2Stats.Hits;
  } else {
    ++L2Stats.Misses;
    if constexpr (Observed)
      Acc->L2Miss = true;
    Cycles += MemLatency;
    if (Fill) {
      if constexpr (Observed)
        trackInstall(&L2, 1, Acc->L2Events, [&] { L2.install(A); });
      else
        L2.install(A);
    }
  }
  if (Fill) {
    if constexpr (Observed)
      trackInstall(&L1, 1, Acc->L1Events, [&] { L1.install(A, IsStore); });
    else
      L1.install(A, IsStore);
  }
  return Cycles;
}
} // namespace

uint64_t UnifiedHwBase::dataAccess(Addr A, bool IsStore, Label Read,
                                   Label Write) {
  assert(lattice().contains(Read) && lattice().contains(Write) &&
         "labels from another lattice");
  Cache &Tlb = Caches[kDTlb], &L1 = Caches[kL1D], &L2 = Caches[kL2D];
  if (observer() == nullptr)
    return unifiedPath<false>(Tlb, L1, L2, A, mayFill(Write), IsStore,
                              Config.MemLatency, Stats.DTlb, Stats.L1D,
                              Stats.L2D, nullptr);
  HwAccess Acc;
  Acc.A = A;
  Acc.IsData = true;
  Acc.IsStore = IsStore;
  Acc.Cycles = unifiedPath<true>(Tlb, L1, L2, A, mayFill(Write), IsStore,
                                 Config.MemLatency, Stats.DTlb, Stats.L1D,
                                 Stats.L2D, &Acc);
  notifyAccess(Acc);
  return Acc.Cycles;
}

uint64_t UnifiedHwBase::fetch(Addr A, Label Read, Label Write) {
  assert(lattice().contains(Read) && lattice().contains(Write) &&
         "labels from another lattice");
  Cache &Tlb = Caches[kITlb], &L1 = Caches[kL1I], &L2 = Caches[kL2I];
  if (observer() == nullptr)
    return unifiedPath<false>(Tlb, L1, L2, A, mayFill(Write),
                              /*IsStore=*/false, Config.MemLatency, Stats.ITlb,
                              Stats.L1I, Stats.L2I, nullptr);
  HwAccess Acc;
  Acc.A = A;
  Acc.Cycles = unifiedPath<true>(Tlb, L1, L2, A, mayFill(Write),
                                 /*IsStore=*/false, Config.MemLatency,
                                 Stats.ITlb, Stats.L1I, Stats.L2I, &Acc);
  notifyAccess(Acc);
  return Acc.Cycles;
}

HwStats UnifiedHwBase::stats() const {
  HwStats S = Stats;
  for (unsigned I = 0; I != kNumStructures; ++I)
    mergeEvents(statsOf(S, I), Caches[I].events());
  return S;
}

void UnifiedHwBase::resetStats() {
  Stats.reset();
  for (Cache &C : Caches)
    C.resetEvents();
}

bool UnifiedHwBase::projectionEquals(const MachineEnv &Other, Label L) const {
  assert(Other.hwKind() == hwKind() && "comparing different hardware designs");
  // All state lives at ⊥; projections at other levels are empty.
  if (L != lattice().bottom())
    return true;
  const auto &O = static_cast<const UnifiedHwBase &>(Other);
  for (unsigned I = 0; I != kNumStructures; ++I)
    if (!(Caches[I] == O.Caches[I]))
      return false;
  return true;
}

void UnifiedHwBase::reset() {
  for (Cache &C : Caches)
    C.reset();
}

void UnifiedHwBase::randomize(Rng &R) {
  for (Cache &C : Caches)
    C.randomize(R);
}

void UnifiedHwBase::perturbAbove(Label L, Rng &R) {
  // All state is at ⊥ and ⊥ ⊑ L for every L, so nothing may change.
}

std::unique_ptr<MachineEnv> NoPartitionHw::clone() const {
  return std::make_unique<NoPartitionHw>(*this);
}

std::unique_ptr<MachineEnv> NoFillHw::clone() const {
  return std::make_unique<NoFillHw>(*this);
}

//===----------------------------------------------------------------------===//
// PartitionedHw
//===----------------------------------------------------------------------===//

CacheConfig PartitionedHw::partitionConfig(const CacheConfig &Full) const {
  CacheConfig Part = Full;
  Part.NumSets = std::max(1u, Full.NumSets / lattice().size());
  return Part;
}

namespace {
/// Builds the (er, ew) lookup walks and the per-ew victim sweeps of
/// PartitionedHw::Walks from the lattice order.
std::shared_ptr<const PartitionedHw::Walks>
buildWalks(const SecurityLattice &Lat) {
  const unsigned Levels = Lat.size();
  auto Flows = [&](unsigned I, unsigned J) {
    return Lat.flowsTo(Label::fromIndex(I), Label::fromIndex(J));
  };
  auto W = std::make_shared<PartitionedHw::Walks>();
  W->LookupOff.resize(static_cast<size_t>(Levels) * Levels + 1);
  for (unsigned R = 0; R != Levels; ++R)
    for (unsigned Wr = 0; Wr != Levels; ++Wr) {
      W->LookupOff[R * Levels + Wr] = static_cast<uint16_t>(W->Lookup.size());
      for (unsigned I = 0; I != Levels; ++I)
        if (Flows(I, R))
          W->Lookup.push_back(static_cast<uint8_t>(
              I | (Flows(Wr, I) ? 0 : PartitionedHw::kProbeOnly)));
    }
  W->LookupOff.back() = static_cast<uint16_t>(W->Lookup.size());
  W->VictimOff.resize(Levels + 1);
  for (unsigned Wr = 0; Wr != Levels; ++Wr) {
    W->VictimOff[Wr] = static_cast<uint16_t>(W->Victims.size());
    for (unsigned I = 0; I != Levels; ++I)
      if (I != Wr && Flows(Wr, I))
        W->Victims.push_back(static_cast<uint8_t>(I));
  }
  W->VictimOff.back() = static_cast<uint16_t>(W->Victims.size());
  return W;
}

/// Every structure's partition configuration, Levels per structure.
std::vector<CacheConfig> partitionConfigs(const PartitionedHw &Env,
                                          const MachineEnvConfig &C,
                                          unsigned Levels) {
  std::vector<CacheConfig> Out;
  for (const CacheConfig &Full : structureConfigs(C))
    Out.insert(Out.end(), Levels, Env.partitionConfig(Full));
  return Out;
}
} // namespace

PartitionedHw::PartitionedHw(const SecurityLattice &Lat,
                             const MachineEnvConfig &Config)
    : MachineEnv(HwKind::Partitioned, Lat, Config), Levels(Lat.size()),
      Plan(buildWalks(Lat)), Lookup(Plan->Lookup.data()),
      LookupOff(Plan->LookupOff.data()), Victims(Plan->Victims.data()),
      VictimOff(Plan->VictimOff.data()),
      Caches(partitionConfigs(*this, Config, Levels)) {}

namespace {
/// Walks one precomputed lookup plan over the partitions \p P. The (er, ew)
/// plan range is resolved once per access and reused for the TLB, L1 and
/// L2 walks.
inline bool walkPlan(Cache *P, Addr A, const uint8_t *E,
                     const uint8_t *const End, bool MarkDirty) {
  for (; E != End; ++E) {
    if (*E & PartitionedHw::kProbeOnly) {
      if (P[*E & ~PartitionedHw::kProbeOnly].probe(A))
        return true;
    } else if (P[*E].lookup(A, MarkDirty)) {
      return true;
    }
  }
  return false;
}

} // namespace

void PartitionedHw::partInstall(Cache *P, Addr A, Label Write, bool Dirty) {
  const unsigned W = Write.index();
  // Consistency: keep a single copy. A stale copy may only be removed from
  // levels the write label permits modifying (ew ⊑ level) — the
  // precomputed victim sweep for ew.
  const uint8_t *const End = Victims + VictimOff[W + 1];
  for (const uint8_t *V = Victims + VictimOff[W]; V != End; ++V)
    P[*V].remove(A);
  P[W].install(A, Dirty);
}

template <bool Observed>
uint64_t PartitionedHw::accessHierarchy(bool IsData, Addr A, Label Read,
                                        Label Write, bool IsStore,
                                        HwAccess *Acc) {
  Cache *const Tlb = parts(IsData ? kDTlb : kITlb);
  Cache *const L1 = parts(IsData ? kL1D : kL1I);
  Cache *const L2 = parts(IsData ? kL2D : kL2I);
  CacheLevelStats &TlbStats = IsData ? Stats.DTlb : Stats.ITlb;
  CacheLevelStats &L1Stats = IsData ? Stats.L1D : Stats.L1I;
  CacheLevelStats &L2Stats = IsData ? Stats.L2D : Stats.L2I;
  // The plan enumerates the partitions at levels ⊑ er (Property 6); the
  // probe-only bit marks those the access may not modify (Property 5). It
  // is shared by all three structures, so it is resolved once.
  const unsigned PI = Read.index() * Levels + Write.index();
  const uint8_t *const Walk = Lookup + LookupOff[PI];
  const uint8_t *const WalkEnd = Lookup + LookupOff[PI + 1];
  uint64_t Cycles = 0;

  if (walkPlan(Tlb, A, Walk, WalkEnd, false)) {
    ++TlbStats.Hits;
  } else {
    ++TlbStats.Misses;
    if constexpr (Observed)
      Acc->TlbMiss = true;
    Cycles += Tlb[0].latency();
    // Observed deltas sum over the structure's partitions: an install may
    // displace stale copies from several of them.
    if constexpr (Observed)
      trackInstall(Tlb, Levels, Acc->TlbEvents,
                   [&] { partInstall(Tlb, A, Write); });
    else
      partInstall(Tlb, A, Write);
  }

  Cycles += L1[0].latency();
  if (walkPlan(L1, A, Walk, WalkEnd, IsStore)) {
    ++L1Stats.Hits;
    return Cycles;
  }
  ++L1Stats.Misses;
  if constexpr (Observed)
    Acc->L1Miss = true;

  Cycles += L2[0].latency();
  if (walkPlan(L2, A, Walk, WalkEnd, false)) {
    ++L2Stats.Hits;
  } else {
    ++L2Stats.Misses;
    if constexpr (Observed)
      Acc->L2Miss = true;
    Cycles += Config.MemLatency;
    if constexpr (Observed)
      trackInstall(L2, Levels, Acc->L2Events,
                   [&] { partInstall(L2, A, Write); });
    else
      partInstall(L2, A, Write);
  }
  if constexpr (Observed)
    trackInstall(L1, Levels, Acc->L1Events,
                 [&] { partInstall(L1, A, Write, IsStore); });
  else
    partInstall(L1, A, Write, IsStore);
  return Cycles;
}

uint64_t PartitionedHw::accessObserved(bool IsData, Addr A, Label Read,
                                       Label Write, bool IsStore) {
  HwAccess Acc;
  Acc.A = A;
  Acc.IsData = IsData;
  Acc.IsStore = IsStore;
  Acc.Cycles = accessHierarchy<true>(IsData, A, Read, Write, IsStore, &Acc);
  notifyAccess(Acc);
  return Acc.Cycles;
}

uint64_t PartitionedHw::dataAccess(Addr A, bool IsStore, Label Read,
                                   Label Write) {
  assert(lattice().contains(Read) && lattice().contains(Write) &&
         "labels from another lattice");
  if (observer() == nullptr)
    return accessHierarchy<false>(/*IsData=*/true, A, Read, Write, IsStore,
                                  nullptr);
  return accessObserved(/*IsData=*/true, A, Read, Write, IsStore);
}

uint64_t PartitionedHw::fetch(Addr A, Label Read, Label Write) {
  assert(lattice().contains(Read) && lattice().contains(Write) &&
         "labels from another lattice");
  if (observer() == nullptr)
    return accessHierarchy<false>(/*IsData=*/false, A, Read, Write,
                                  /*IsStore=*/false, nullptr);
  return accessObserved(/*IsData=*/false, A, Read, Write, /*IsStore=*/false);
}

std::unique_ptr<MachineEnv> PartitionedHw::clone() const {
  return std::make_unique<PartitionedHw>(*this);
}

bool PartitionedHw::projectionEquals(const MachineEnv &Other, Label L) const {
  assert(Other.hwKind() == hwKind() && "comparing different hardware designs");
  assert(lattice().contains(L) && "label from another lattice");
  const auto &O = static_cast<const PartitionedHw &>(Other);
  for (unsigned S = 0; S != kNumStructures; ++S) {
    const size_t I = S * Levels + L.index();
    if (!(Caches[I] == O.Caches[I]))
      return false;
  }
  return true;
}

void PartitionedHw::reset() {
  for (Cache &C : Caches)
    C.reset();
}

void PartitionedHw::randomize(Rng &R) {
  for (Cache &C : Caches)
    C.randomize(R);
}

void PartitionedHw::perturbAbove(Label L, Rng &R) {
  for (unsigned S = 0; S != kNumStructures; ++S)
    for (unsigned I = 0; I != Levels; ++I)
      if (!lattice().flowsTo(Label::fromIndex(I), L))
        Caches[S * Levels + I].randomize(R);
}

HwStats PartitionedHw::stats() const {
  HwStats S = Stats;
  for (unsigned St = 0; St != kNumStructures; ++St)
    for (unsigned I = 0; I != Levels; ++I)
      mergeEvents(statsOf(S, St), Caches[St * Levels + I].events());
  return S;
}

void PartitionedHw::resetStats() {
  Stats.reset();
  for (Cache &C : Caches)
    C.resetEvents();
}

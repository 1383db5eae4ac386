//===- HardwareModels.cpp -------------------------------------------------===//

#include "hw/HardwareModels.h"

#include "support/Diagnostics.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <string>
#include <typeinfo>

using namespace zam;

// The plan's encoding holds every lattice the limit admits: a partition
// index stays below the probe-only bit, and the 32-bit offsets index at
// most Levels² routes of at most Levels entries each.
static_assert(kMaxLatticeLevels <= HwPlan::kProbeOnly);
static_assert(kMaxLatticeLevels <= 64, "BottomProbeOnly has a bit per level");
static_assert(uint64_t(kMaxLatticeLevels) * kMaxLatticeLevels *
                  kMaxLatticeLevels <=
              std::numeric_limits<uint32_t>::max());

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
  return std::make_unique<HardwareEnv>(Kind, Lat, Config);
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
/// partitions).
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

/// Builds \p Kind's plan over \p Lat: its partitions, then one route per
/// (er, ew) and one sweep per partition, all from the one rule.
std::shared_ptr<const HwPlan> buildPlan(HwKind Kind,
                                        const SecurityLattice &Lat) {
  const unsigned Levels = Lat.size();
  auto Plan = std::make_shared<HwPlan>();
  // Partition 0 sits at ⊥ in every design, so every route starts with it
  // (walkRoute relies on this).
  Plan->PartLevel.push_back(Lat.bottom());
  if (Kind == HwKind::Partitioned)
    for (unsigned I = 0; I != Levels; ++I)
      if (Label::fromIndex(I) != Lat.bottom())
        Plan->PartLevel.push_back(Label::fromIndex(I));
  const std::vector<Label> &PartLevel = Plan->PartLevel;
  const unsigned Parts = PartLevel.size();
  // nopar reads every pair as [⊥,⊥].
  const bool Ignored = Kind == HwKind::NoPartition;
  Plan->Routes.resize(static_cast<size_t>(Levels) * Levels);
  for (unsigned Er = 0; Er != Levels; ++Er)
    for (unsigned Ew = 0; Ew != Levels; ++Ew) {
      const Label Read = Ignored ? Lat.bottom() : Label::fromIndex(Er);
      const Label Write = Ignored ? Lat.bottom() : Label::fromIndex(Ew);
      HwPlan::Route &R = Plan->Routes[Er * Levels + Ew];
      R.Begin = static_cast<uint32_t>(Plan->Lookup.size());
      R.Target = HwPlan::kNoTarget;
      for (unsigned P = 0; P != Parts; ++P) {
        if (Lat.flowsTo(PartLevel[P], Read))
          Plan->Lookup.push_back(static_cast<uint8_t>(
              P | (Lat.flowsTo(Write, PartLevel[P]) ? 0
                                                    : HwPlan::kProbeOnly)));
        if (PartLevel[P] == Write)
          R.Target = P;
      }
      R.End = static_cast<uint32_t>(Plan->Lookup.size());
      if (Plan->Lookup[R.Begin] & HwPlan::kProbeOnly)
        Plan->BottomProbeOnly |= uint64_t(1) << Ew;
    }
  for (unsigned T = 0; T != Parts; ++T) {
    Plan->SweepOff.push_back(static_cast<uint32_t>(Plan->Sweep.size()));
    for (unsigned P = 0; P != Parts; ++P)
      if (P != T && Lat.flowsTo(PartLevel[T], PartLevel[P]))
        Plan->Sweep.push_back(static_cast<uint8_t>(P));
  }
  Plan->SweepOff.push_back(static_cast<uint32_t>(Plan->Sweep.size()));
  return Plan;
}

/// The configuration of every partition, Parts per structure.
std::vector<CacheConfig> partitionConfigs(const HardwareEnv &Env,
                                          const MachineEnvConfig &C,
                                          unsigned Parts) {
  std::vector<CacheConfig> Out;
  for (const CacheConfig &Full : structureConfigs(C))
    Out.insert(Out.end(), Parts, Env.partitionConfig(Full));
  return Out;
}

/// Checks the lattice-size limit before anything is sized from it.
const SecurityLattice &checkedLattice(const SecurityLattice &Lat) {
  if (Lat.size() > kMaxLatticeLevels)
    reportFatalError(("machine environment over a " +
                      std::to_string(Lat.size()) +
                      "-level lattice: the limit is " +
                      std::to_string(kMaxLatticeLevels) +
                      " levels (kMaxLatticeLevels)")
                         .c_str());
  return Lat;
}

/// Checks every structure's geometry before anything is sized from it.
const MachineEnvConfig &checkedConfig(const MachineEnvConfig &C) {
  checkCacheConfig(C.L1D, "L1D");
  checkCacheConfig(C.L2D, "L2D");
  checkCacheConfig(C.L1I, "L1I");
  checkCacheConfig(C.L2I, "L2I");
  checkCacheConfig(C.DTlb, "DTlb");
  checkCacheConfig(C.ITlb, "ITlb");
  return C;
}
} // namespace

HardwareEnv::HardwareEnv(HwKind Kind, const SecurityLattice &Lat,
                         const MachineEnvConfig &Config)
    : MachineEnv(Kind, checkedLattice(Lat), checkedConfig(Config)),
      Plan(buildPlan(Kind, Lat)), Routes(Plan->Routes.data()),
      Lookup(Plan->Lookup.data()), Sweep(Plan->Sweep.data()),
      SweepOff(Plan->SweepOff.data()),
      BottomProbeOnly(Plan->BottomProbeOnly), Levels(Lat.size()),
      Parts(Plan->parts()), Caches(partitionConfigs(*this, Config, Parts)) {}

CacheConfig HardwareEnv::partitionConfig(const CacheConfig &Full) const {
  CacheConfig Part = Full;
  Part.NumSets = std::max(1u, Full.NumSets / Parts);
  return Part;
}

namespace {
/// Walks route \p R's lookup entries over the partitions \p P: a lookup
/// in each writable partition, a probe in each probe-only one, until one
/// hits. Inlined into every walk of accessHierarchy: the route is resolved
/// once per access and reused for the TLB, L1 and L2 walks.
///
/// Every route starts at partition 0, the ⊥ partition, so the first step
/// addresses it directly, and \p FirstProbeOnly (from
/// HwPlan::BottomProbeOnly) says whether it may only probe: the hit path
/// of a one-partition plan waits on no load of the route.
[[gnu::always_inline]] inline bool walkRoute(Cache *P, Addr A,
                                             bool FirstProbeOnly,
                                             const HwPlan::Route &R,
                                             const uint8_t *Lookup,
                                             bool MarkDirty) {
  if (FirstProbeOnly ? P->probe(A) : P->lookup(A, MarkDirty))
    return true;
  const uint8_t *const End = Lookup + R.End;
  for (const uint8_t *E = Lookup + R.Begin + 1; E != End; ++E) {
    if (*E & HwPlan::kProbeOnly) {
      if (P[*E & ~HwPlan::kProbeOnly].probe(A))
        return true;
    } else if (P[*E].lookup(A, MarkDirty)) {
      return true;
    }
  }
  return false;
}
} // namespace

void HardwareEnv::install(Cache *P, Addr A, uint32_t Target, bool Dirty) {
  if (Target == HwPlan::kNoTarget)
    return;
  // Consistency: keep a single copy. A stale copy may only be removed from
  // partitions the write label permits modifying, Target's sweep.
  const uint8_t *const End = Sweep + SweepOff[Target + 1];
  for (const uint8_t *V = Sweep + SweepOff[Target]; V != End; ++V)
    P[*V].remove(A);
  P[Target].install(A, Dirty);
}

template <bool Observed>
[[gnu::always_inline]] inline uint64_t
HardwareEnv::accessHierarchy(bool IsData, Addr A, Label Read, Label Write,
                             bool IsStore, HwAccess *Acc) {
  Cache *const Tlb = parts(IsData ? kDTlb : kITlb);
  Cache *const L1 = parts(IsData ? kL1D : kL1I);
  Cache *const L2 = parts(IsData ? kL2D : kL2I);
  CacheLevelStats &TlbStats = IsData ? Stats.DTlb : Stats.ITlb;
  CacheLevelStats &L1Stats = IsData ? Stats.L1D : Stats.L1I;
  CacheLevelStats &L2Stats = IsData ? Stats.L2D : Stats.L2I;
  // The route enumerates the partitions at levels ⊑ er (Property 6) with
  // the probe-only bit on those the access may not modify (Property 5),
  // and names the ew partition it installs into. It is shared by all three
  // structures, so it is resolved once.
  const HwPlan::Route &R = Routes[Read.index() * Levels + Write.index()];
  const bool FirstProbeOnly = BottomProbeOnly >> Write.index() & 1;
  // Observed deltas sum over the structure's partitions: an install may
  // displace stale copies from several of them.
  auto Install = [&](Cache *P, HwEventDelta *D, bool Dirty) {
    if constexpr (Observed)
      trackInstall(P, Parts, *D, [&] { install(P, A, R.Target, Dirty); });
    else
      install(P, A, R.Target, Dirty);
  };
  uint64_t Cycles = 0;

  if (walkRoute(Tlb, A, FirstProbeOnly, R, Lookup, false)) {
    ++TlbStats.Hits;
  } else {
    ++TlbStats.Misses;
    if constexpr (Observed)
      Acc->TlbMiss = true;
    Cycles += Tlb[0].latency();
    Install(Tlb, Observed ? &Acc->TlbEvents : nullptr, false);
  }

  Cycles += L1[0].latency();
  if (walkRoute(L1, A, FirstProbeOnly, R, Lookup, IsStore)) {
    ++L1Stats.Hits;
    return Cycles;
  }
  ++L1Stats.Misses;
  if constexpr (Observed)
    Acc->L1Miss = true;

  Cycles += L2[0].latency();
  if (walkRoute(L2, A, FirstProbeOnly, R, Lookup, false)) {
    ++L2Stats.Hits;
  } else {
    ++L2Stats.Misses;
    if constexpr (Observed)
      Acc->L2Miss = true;
    Cycles += Config.MemLatency;
    Install(L2, Observed ? &Acc->L2Events : nullptr, false);
  }
  Install(L1, Observed ? &Acc->L1Events : nullptr, IsStore);
  return Cycles;
}

// Out of line, so the observed walk stays out of dataAccess and fetch.
[[gnu::noinline]] uint64_t HardwareEnv::accessObserved(bool IsData, Addr A,
                                                       Label Read,
                                                       Label Write,
                                                       bool IsStore) {
  HwAccess Acc;
  Acc.A = A;
  Acc.IsData = IsData;
  Acc.IsStore = IsStore;
  Acc.Cycles = accessHierarchy<true>(IsData, A, Read, Write, IsStore, &Acc);
  notifyAccess(Acc);
  return Acc.Cycles;
}

// Inlined into dataAccess and fetch, so each unobserved walk runs with
// IsData fixed.
[[gnu::always_inline]] inline uint64_t
HardwareEnv::access(bool IsData, Addr A, Label Read, Label Write,
                    bool IsStore) {
  assert(lattice().contains(Read) && lattice().contains(Write) &&
         "labels from another lattice");
  if (observer() != nullptr)
    return accessObserved(IsData, A, Read, Write, IsStore);
  return accessHierarchy<false>(IsData, A, Read, Write, IsStore, nullptr);
}

uint64_t HardwareEnv::dataAccess(Addr A, bool IsStore, Label Read,
                                 Label Write) {
  return access(/*IsData=*/true, A, Read, Write, IsStore);
}

uint64_t HardwareEnv::fetch(Addr A, Label Read, Label Write) {
  return access(/*IsData=*/false, A, Read, Write, /*IsStore=*/false);
}

std::unique_ptr<MachineEnv> HardwareEnv::clone() const {
  return std::make_unique<HardwareEnv>(*this);
}

void HardwareEnv::copyInto(std::unique_ptr<MachineEnv> &Slot) const {
  // A slot of the same design and lattice walks an equal plan, and the
  // same configuration gives it the same arena shape, so only the state
  // and counters need copying. The kind tag alone does not say the slot is
  // a HardwareEnv: an env that wraps another reports the inner one's kind.
  auto *To = Slot && typeid(*Slot) == typeid(HardwareEnv)
                 ? static_cast<HardwareEnv *>(Slot.get())
                 : nullptr;
  if (!To || To->Kind != Kind || To->Lat != Lat || To->Config != Config) {
    Slot = clone();
    return;
  }
  To->Stats = Stats;
  To->Obs = nullptr;
  To->Caches.copyFrom(Caches);
}

bool HardwareEnv::projectionEquals(const MachineEnv &Other, Label L) const {
  assert(Other.hwKind() == hwKind() && "comparing different hardware designs");
  assert(lattice().contains(L) && "label from another lattice");
  const auto &O = static_cast<const HardwareEnv &>(Other);
  // Only the partitions at level L; none for L above a one-partition plan.
  for (unsigned P = 0; P != Parts; ++P) {
    if (Plan->PartLevel[P] != L)
      continue;
    for (unsigned S = 0; S != kNumStructures; ++S)
      if (!(Caches[S * Parts + P] == O.Caches[S * Parts + P]))
        return false;
  }
  return true;
}

void HardwareEnv::reset() {
  for (Cache &C : Caches)
    C.reset();
}

void HardwareEnv::randomize(Rng &R) {
  for (Cache &C : Caches)
    C.randomize(R);
}

void HardwareEnv::perturbAbove(Label L, Rng &R) {
  // Only the partitions at levels ⋢ L; none for a one-partition plan,
  // whose ⊥ partition flows to every L.
  for (unsigned S = 0; S != kNumStructures; ++S)
    for (unsigned P = 0; P != Parts; ++P)
      if (!lattice().flowsTo(Plan->PartLevel[P], L))
        Caches[S * Parts + P].randomize(R);
}

HwStats HardwareEnv::stats() const {
  HwStats S = Stats;
  for (unsigned St = 0; St != kNumStructures; ++St)
    for (unsigned P = 0; P != Parts; ++P)
      mergeEvents(statsOf(S, St), Caches[St * Parts + P].events());
  return S;
}

void HardwareEnv::resetStats() {
  Stats.reset();
  for (Cache &C : Caches)
    C.resetEvents();
}

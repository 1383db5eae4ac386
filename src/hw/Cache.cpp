//===- Cache.cpp ----------------------------------------------------------===//

#include "hw/Cache.h"

#include "support/Diagnostics.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <new>
#include <string>
#include <type_traits>

using namespace zam;

namespace {
/// Bytes of line storage and of occupancy counts for \p C. Occupancy is
/// padded to 8 bytes so the lines that follow it stay aligned.
size_t lineBytes(const CacheConfig &C) {
  return static_cast<size_t>(C.NumSets) * C.Assoc * sizeof(uint64_t);
}
size_t occupancyBytes(const CacheConfig &C) {
  return (static_cast<size_t>(C.NumSets) * sizeof(Cache::Occupancy) + 7) &
         ~size_t(7);
}

[[noreturn]] void badGeometry(const char *Name, const char *Field,
                              unsigned Value, const std::string &Rule) {
  reportFatalError((std::string("cache configuration: ") + Name + "." +
                    Field + " is " + std::to_string(Value) + "; " + Rule)
                       .c_str());
}
} // namespace

void zam::checkCacheConfig(const CacheConfig &C, const char *Name) {
  if (C.NumSets == 0)
    badGeometry(Name, "NumSets", 0, "it must be at least 1");
  if (C.BlockBytes == 0)
    badGeometry(Name, "BlockBytes", 0, "it must be at least 1");
  if (C.Assoc == 0)
    badGeometry(Name, "Assoc", 0, "it must be at least 1");
  if (C.Assoc > Cache::kMaxAssoc)
    badGeometry(Name, "Assoc", C.Assoc,
                "the limit is " + std::to_string(Cache::kMaxAssoc) +
                    " ways (Cache::kMaxAssoc, what a set's occupancy count "
                    "holds)");
}

Cache::Cache(const CacheConfig &Config, Line *Lines, Occupancy *Occ)
    : Lines(Lines), Occ(Occ), Latency(Config.Latency), Assoc(Config.Assoc),
      Config(Config) {
  // The access paths read only the first host line of a header.
  static_assert(std::is_standard_layout_v<Cache>);
  static_assert(offsetof(Cache, Events) + sizeof(CacheEvents) <= 64,
                "Cache's hot header must fit one 64-byte host line");
  assert(Config.NumSets > 0 && Config.Assoc > 0 && Config.BlockBytes > 0 &&
         "degenerate cache configuration");
  if (std::has_single_bit(Config.BlockBytes) &&
      std::has_single_bit(Config.NumSets)) {
    BlockShift = static_cast<uint8_t>(std::countr_zero(Config.BlockBytes));
    SetMask = Config.NumSets - 1;
    TagShift = static_cast<uint8_t>(
        BlockShift + std::countr_zero(Config.NumSets));
  }
}

Cache::Cache(const CacheConfig &Config)
    : Cache((checkCacheConfig(Config, "cache"), Config), nullptr, nullptr) {
  // Occupancy first, then the lines: the padding keeps them aligned.
  Owned = ::operator new(occupancyBytes(Config) + lineBytes(Config));
  Occ = static_cast<Occupancy *>(Owned);
  Lines = reinterpret_cast<Line *>(static_cast<char *>(Owned) +
                                   occupancyBytes(Config));
  reset();
}

Cache::~Cache() { ::operator delete(Owned); }

void Cache::install(Addr A, bool Dirty) {
  const unsigned S = setOf(A);
  const uint64_t Tag = tagOf(A);
  assert(!(Tag & kDirty) && "address too large for the dirty-bit encoding");
  Line *Set = setLines(S);
  Occupancy &N = Occ[S];
  uint32_t W = 0;
  while (W != N && tagBits(Set[W]) != Tag)
    ++W;
  Line Dirt = Dirty ? kDirty : 0;
  if (W != N) {
    // Resident: promote; the dirty bit accumulates (a clean install does
    // not launder a dirty line).
    Dirt |= Set[W] & kDirty;
  } else {
    ++Events.LineFills;
    if (N == Assoc) {
      // Evict LRU.
      ++Events.Evictions;
      if (Set[N - 1] & kDirty)
        ++Events.Writebacks;
      W = N - 1;
    } else {
      W = N++;
      ++Resident;
    }
  }
  for (uint32_t I = W; I != 0; --I)
    Set[I] = Set[I - 1];
  Set[0] = Tag | Dirt;
}

void Cache::remove(Addr A) {
  const unsigned S = setOf(A);
  const uint64_t Tag = tagOf(A);
  Line *Set = setLines(S);
  Occupancy &N = Occ[S];
  for (uint32_t W = 0; W != N; ++W) {
    if (tagBits(Set[W]) != Tag)
      continue;
    if (Set[W] & kDirty)
      ++Events.Writebacks;
    for (uint32_t I = W; I + 1 != N; ++I)
      Set[I] = Set[I + 1];
    --N;
    --Resident;
    return;
  }
}

void Cache::reset() {
  std::fill(Occ, Occ + Config.NumSets, 0);
  Resident = 0;
}

void Cache::randomize(Rng &R, double FillFraction) {
  reset();
  for (unsigned S = 0; S != Config.NumSets; ++S) {
    Line *Set = setLines(S);
    Occupancy &N = Occ[S];
    for (unsigned Way = 0; Way != Config.Assoc; ++Way)
      if (R.nextDouble() < FillFraction) {
        uint64_t Tag = R.nextBelow(1u << 16);
        bool Dup = false;
        for (uint32_t W = 0; W != N; ++W)
          Dup = Dup || tagBits(Set[W]) == Tag;
        if (!Dup) {
          Set[N++] = Tag;
          ++Resident;
        }
      }
  }
}

bool Cache::operator==(const Cache &Other) const {
  if (Config != Other.Config ||
      !std::equal(Occ, Occ + Config.NumSets, Other.Occ))
    return false;
  for (unsigned S = 0; S != Config.NumSets; ++S) {
    const Line *A = setLines(S), *B = Other.setLines(S);
    for (uint32_t W = 0; W != Occ[S]; ++W)
      if (tagBits(A[W]) != tagBits(B[W]))
        return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// CacheArena
//===----------------------------------------------------------------------===//

template <typename ConfigFn>
void CacheArena::place(size_t N, ConfigFn ConfigOf, size_t NumStamps) {
  size_t OccBytes = 0, LineBytes = 0;
  for (size_t I = 0; I != N; ++I) {
    OccBytes += occupancyBytes(ConfigOf(I));
    LineBytes += lineBytes(ConfigOf(I));
  }
  const size_t HeaderBytes = N * sizeof(Cache);
  const size_t StampBytes = NumStamps * sizeof(uint64_t);
  // Aligned by hand: glibc serves aligned operator new through memalign,
  // whose split-off fragments made the heap creep when environments are
  // cloned and freed in a loop; a plain block of one fixed size is reused.
  Mem = ::operator new(HeaderBytes + OccBytes + LineBytes + StampBytes +
                       alignof(Cache));
  const uintptr_t Raw = reinterpret_cast<uintptr_t>(Mem);
  Caches = reinterpret_cast<Cache *>((Raw + alignof(Cache) - 1) &
                                     ~uintptr_t(alignof(Cache) - 1));
  Count = N;
  char *Occ = reinterpret_cast<char *>(Caches) + HeaderBytes;
  char *Lines = Occ + OccBytes;
  // Every cache starts cold: the occupancy counts are contiguous.
  std::memset(Occ, 0, OccBytes);
  Stamps = reinterpret_cast<uint64_t *>(Lines + LineBytes);
  StampWords = NumStamps;
  std::memset(Stamps, 0, StampBytes);
  for (size_t I = 0; I != N; ++I) {
    const CacheConfig &C = ConfigOf(I);
    new (&Caches[I]) Cache(C, reinterpret_cast<Cache::Line *>(Lines),
                           reinterpret_cast<Cache::Occupancy *>(Occ));
    Occ += occupancyBytes(C);
    Lines += lineBytes(C);
  }
}

CacheArena::CacheArena(const std::vector<CacheConfig> &Configs,
                       size_t StampWords) {
  place(
      Configs.size(),
      [&](size_t I) -> const CacheConfig & { return Configs[I]; },
      StampWords);
}

CacheArena::CacheArena(const CacheArena &Other) {
  place(
      Other.Count,
      [&](size_t I) -> const CacheConfig & { return Other.Caches[I].Config; },
      Other.StampWords);
  copyFrom(Other);
}

void CacheArena::copyFrom(const CacheArena &Other) {
  assert(Count == Other.Count && "restoring from a different arena shape");
  for (size_t I = 0; I != Count; ++I)
    copyCache(Caches[I], Other.Caches[I]);
}

void CacheArena::copyCache(Cache &To, const Cache &From) {
  assert(To.Config == From.Config && "copying between cache geometries");
  To.Events = From.Events;
  const unsigned Sets = From.Config.NumSets;
  if (!From.Resident) {
    if (To.Resident)
      std::memset(To.Occ, 0, Sets * sizeof(Cache::Occupancy));
    To.Resident = 0;
    return;
  }
  To.Resident = From.Resident;
  std::memcpy(To.Occ, From.Occ, Sets * sizeof(Cache::Occupancy));
  // A plain loop, not memcpy: with a one-byte count the compiler knows a
  // set holds at most 255 ways and expands memcpy as `rep movsq`, which
  // made a warm environment's copy about 4x slower than this loop.
  for (unsigned S = 0; S != Sets; ++S) {
    const Cache::Line *Src = From.setLines(S);
    Cache::Line *Dst = To.setLines(S);
    for (unsigned W = 0, Ways = From.Occ[S]; W != Ways; ++W)
      Dst[W] = Src[W];
  }
}

CacheArena::~CacheArena() {
  for (Cache &C : *this)
    C.~Cache();
  ::operator delete(Mem);
}

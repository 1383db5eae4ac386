//===- Cache.cpp ----------------------------------------------------------===//

#include "hw/Cache.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>

using namespace zam;

namespace {
/// Bytes of line storage and of occupancy words for \p C. Occupancy is
/// padded to 8 bytes so the lines that follow it stay aligned.
size_t lineBytes(const CacheConfig &C) {
  return static_cast<size_t>(C.NumSets) * C.Assoc * sizeof(uint64_t);
}
size_t occupancyBytes(const CacheConfig &C) {
  return (static_cast<size_t>(C.NumSets) * sizeof(uint32_t) + 7) & ~size_t(7);
}
} // namespace

Cache::Cache(const CacheConfig &Config, Line *Lines, uint32_t *Occupancy)
    : Lines(Lines), Occupancy(Occupancy), Latency(Config.Latency),
      Assoc(Config.Assoc), Config(Config) {
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

Cache::Cache(const Cache &Other, Line *Lines, uint32_t *Occupancy)
    : Lines(Lines), Occupancy(Occupancy), Latency(Other.Latency),
      SetMask(Other.SetMask), Assoc(Other.Assoc), Resident(Other.Resident),
      BlockShift(Other.BlockShift), TagShift(Other.TagShift),
      Events(Other.Events), Config(Other.Config) {}

Cache::Cache(const CacheConfig &Config) : Cache(Config, nullptr, nullptr) {
  // Occupancy first, then the lines: the padding keeps them aligned.
  Owned = ::operator new(occupancyBytes(Config) + lineBytes(Config));
  Occupancy = static_cast<uint32_t *>(Owned);
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
  uint32_t &N = Occupancy[S];
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
  uint32_t &N = Occupancy[S];
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
  std::fill(Occupancy, Occupancy + Config.NumSets, 0);
  Resident = 0;
}

void Cache::randomize(Rng &R, double FillFraction) {
  reset();
  for (unsigned S = 0; S != Config.NumSets; ++S) {
    Line *Set = setLines(S);
    uint32_t &N = Occupancy[S];
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
      !std::equal(Occupancy, Occupancy + Config.NumSets, Other.Occupancy))
    return false;
  for (unsigned S = 0; S != Config.NumSets; ++S) {
    const Line *A = setLines(S), *B = Other.setLines(S);
    for (uint32_t W = 0; W != Occupancy[S]; ++W)
      if (tagBits(A[W]) != tagBits(B[W]))
        return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// CacheArena
//===----------------------------------------------------------------------===//

template <typename ConfigFn, typename MakeFn>
void CacheArena::place(size_t N, ConfigFn ConfigOf, MakeFn Make) {
  size_t OccBytes = 0, LineBytes = 0;
  for (size_t I = 0; I != N; ++I) {
    OccBytes += occupancyBytes(ConfigOf(I));
    LineBytes += lineBytes(ConfigOf(I));
  }
  const size_t HeaderBytes = N * sizeof(Cache);
  // Aligned by hand: glibc serves aligned operator new through memalign,
  // whose split-off fragments made the heap creep when environments are
  // cloned and freed in a loop; a plain block of one fixed size is reused.
  Mem = ::operator new(HeaderBytes + OccBytes + LineBytes + alignof(Cache));
  const uintptr_t Raw = reinterpret_cast<uintptr_t>(Mem);
  Caches = reinterpret_cast<Cache *>((Raw + alignof(Cache) - 1) &
                                     ~uintptr_t(alignof(Cache) - 1));
  Count = N;
  char *Occ = reinterpret_cast<char *>(Caches) + HeaderBytes;
  char *Lines = Occ + OccBytes;
  for (size_t I = 0; I != N; ++I) {
    const CacheConfig &C = ConfigOf(I);
    Make(I, reinterpret_cast<Cache::Line *>(Lines),
         reinterpret_cast<uint32_t *>(Occ));
    Occ += occupancyBytes(C);
    Lines += lineBytes(C);
  }
}

CacheArena::CacheArena(const std::vector<CacheConfig> &Configs) {
  auto ConfigOf = [&](size_t I) -> const CacheConfig & { return Configs[I]; };
  place(Configs.size(), ConfigOf,
        [&](size_t I, Cache::Line *Lines, uint32_t *Occ) {
          new (&Caches[I]) Cache(Configs[I], Lines, Occ);
          Caches[I].reset();
        });
}

CacheArena::CacheArena(const CacheArena &Other) {
  auto ConfigOf = [&](size_t I) -> const CacheConfig & {
    return Other.Caches[I].Config;
  };
  place(Other.Count, ConfigOf,
        [&](size_t I, Cache::Line *Lines, uint32_t *Occ) {
          const Cache &From = Other.Caches[I];
          const unsigned Sets = From.Config.NumSets;
          new (&Caches[I]) Cache(From, Lines, Occ);
          // A cold cache copies nothing but zeros; otherwise only the
          // resident ways carry state.
          if (!From.Resident) {
            std::memset(Occ, 0, Sets * sizeof(uint32_t));
            return;
          }
          std::memcpy(Occ, From.Occupancy, Sets * sizeof(uint32_t));
          for (unsigned S = 0; S != Sets; ++S)
            if (const uint32_t Ways = Occ[S])
              std::memcpy(Lines + static_cast<size_t>(S) * From.Assoc,
                          From.Lines + static_cast<size_t>(S) * From.Assoc,
                          Ways * sizeof(Cache::Line));
        });
}

CacheArena::~CacheArena() {
  for (Cache &C : *this)
    C.~Cache();
  ::operator delete(Mem);
}

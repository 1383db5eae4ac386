//===- Cache.h - Set-associative cache model --------------------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A set-associative, LRU cache holding only (tag, valid) pairs — the
/// coarse-grained machine-environment abstraction argued for in Sec. 4.1:
/// data-block contents do not affect access time, so they are deliberately
/// not part of the state. This is what lets confidential values reside in a
/// public cache partition without violating single-step noninterference
/// (Property 7). The same class models TLBs (block size = page size).
///
/// For telemetry each line additionally carries a dirty bit and the cache
/// keeps eviction/writeback/line-fill counters. Both are *observational
/// only*: writebacks add no latency (the timing model is unchanged from the
/// paper's), and neither participates in state equality, so the projected
/// equivalences of Sec. 3.3 — and the noninterference properties built on
/// them — see exactly the (tag, LRU-order) state they always did.
///
/// Storage: a Cache is a header over line and occupancy storage. A
/// standalone Cache owns its storage; the caches of a machine environment
/// live in one CacheArena, whose single allocation holds every header,
/// every occupancy count and every line, so cloning an environment is one
/// allocation plus a copy of the resident lines only, and restoring one in
/// place (CacheArena::copyFrom) is the same copy with no allocation.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_HW_CACHE_H
#define ZAM_HW_CACHE_H

#include "hw/CacheConfig.h"
#include "support/Rng.h"

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace zam {

/// Telemetry counters maintained by one Cache (see CacheLevelStats for the
/// merged per-structure view).
struct CacheEvents {
  uint64_t Evictions = 0;
  uint64_t Writebacks = 0;
  uint64_t LineFills = 0;

  bool operator==(const CacheEvents &Other) const = default;
};

/// Fatal error unless \p C describes a cache this model can hold: every
/// geometry field (NumSets, Assoc, BlockBytes) at least 1, and Assoc at
/// most Cache::kMaxAssoc. \p Name ("L1D", ...) prefixes the field in the
/// diagnostic. Checked in every build: a zero field would otherwise
/// divide by zero or index out of bounds on the first access.
void checkCacheConfig(const CacheConfig &C, const char *Name);

/// One cache-like structure. State per set is the list of resident lines in
/// LRU order (front = most recently used). Replacement is strict LRU.
///
/// Aligned to a 64-byte host line: everything the access paths read — the
/// storage pointers, shift/mask geometry, associativity, latency and the
/// event counters — sits in the first host line, so the headers of
/// adjacent partitions never share or straddle one.
class alignas(64) Cache {
public:
  /// The count of resident lines in one set.
  using Occupancy = uint8_t;
  /// The most ways a set may have: its occupancy count must hold them.
  static constexpr unsigned kMaxAssoc = std::numeric_limits<Occupancy>::max();

  /// A standalone cache owning its storage (tests). Fatal error if
  /// checkCacheConfig rejects \p Config.
  explicit Cache(const CacheConfig &Config);
  Cache(const Cache &) = delete;
  Cache &operator=(const Cache &) = delete;
  ~Cache();

  const CacheConfig &config() const { return Config; }
  uint64_t latency() const { return Latency; }

  /// What a lookup found. Tests as a bool: true on a hit.
  enum LookupResult : uint8_t {
    kMiss = 0,
    kHit = 1,        ///< A hit that left the set exactly as it was.
    kHitChanged = 2, ///< A hit that promoted the line or set its dirty bit.
  };

  /// Hit test that promotes the line to MRU on a hit; \p MarkDirty
  /// additionally sets the line's dirty bit (stores). \returns kMiss, or
  /// whether the hit changed the set: a hit at the MRU way whose dirty bit
  /// needs no setting changes nothing (kHit), which is what lets the
  /// machine environment hand out hit tickets (RepeatTicket in
  /// hw/MachineEnv.h); a probe never changes anything, so a no-fill probe
  /// that misses earns a miss ticket.
  /// Defined inline below: this is the hottest call in the simulator, and
  /// the partition/no-fill walks that drive it live in another TU.
  LookupResult lookup(Addr A, bool MarkDirty = false);

  /// Hit test with no state change at all (used for no-fill accesses and
  /// for hits that may not disturb another partition's LRU state).
  bool probe(Addr A) const;

  /// Installs the block containing \p A as MRU, evicting the LRU way if the
  /// set is full. Installing a resident block just promotes it (the dirty
  /// bit accumulates: a clean install does not launder a dirty line).
  void install(Addr A, bool Dirty = false);

  /// Removes the block containing \p A if resident (consistency moves in
  /// the partitioned design). Counts a writeback if the line was dirty.
  void remove(Addr A);

  /// Flushes all contents (event counters are preserved; resetEvents()
  /// clears those).
  void reset();

  /// Fills the cache with random resident tags; \p FillFraction in [0,1].
  /// Used by property-based tests to explore machine-environment states.
  void randomize(Rng &R, double FillFraction = 0.5);

  /// The set that holds the block containing \p A. Every lookup, probe,
  /// install and remove at \p A reads or changes this set only, so caches
  /// of one geometry (the partitions of one structure) agree on it.
  unsigned setOf(Addr A) const {
    if (TagShift)
      return static_cast<unsigned>((A >> BlockShift) & SetMask);
    return static_cast<unsigned>((A / Config.BlockBytes) % Config.NumSets);
  }

  const CacheEvents &events() const { return Events; }
  void resetEvents() { Events = CacheEvents(); }

  /// Set \p S's resident lines and, for \p W below that count, its way
  /// \p W (0 is MRU): the block's tag with the dirty bit as bit 63.
  /// Exposed for tests that enumerate states.
  unsigned occupancy(unsigned S) const { return Occ[S]; }
  uint64_t lineAt(unsigned S, unsigned W) const { return setLines(S)[W]; }

  /// Structural equality of (tags, valid bits, LRU order): the projected
  /// equivalence of Sec. 3.3 at the granularity of one structure. Dirty
  /// bits and event counters are telemetry, not machine state visible to
  /// the timing model, so they deliberately do not participate.
  bool operator==(const Cache &Other) const;

private:
  friend class CacheArena;

  /// One resident line: the tag in the low 63 bits, the dirty bit
  /// (telemetry only) in the top bit. Tags are addresses shifted right by
  /// at least the block offset, so the top bit is always free for
  /// simulated addresses below 2^63.
  using Line = uint64_t;
  static constexpr Line kDirty = Line(1) << 63;
  static Line tagBits(Line L) { return L & ~kDirty; }

  /// A header over storage the arena owns. The cache is cold only once
  /// its occupancy counts are zero.
  Cache(const CacheConfig &Config, Line *Lines, Occupancy *Occ);

  uint64_t tagOf(Addr A) const {
    if (TagShift)
      return A >> TagShift;
    return A / Config.BlockBytes / Config.NumSets;
  }
  Line *setLines(unsigned S) { return Lines + static_cast<size_t>(S) * Assoc; }
  const Line *setLines(unsigned S) const {
    return Lines + static_cast<size_t>(S) * Assoc;
  }

  // The hot header: the first 64-byte host line (checked in Cache.cpp).

  /// Line storage, NumSets × Assoc: set S occupies [S*Assoc, S*Assoc +
  /// Occ[S]) in MRU-to-LRU order. Ways at or beyond the occupancy are
  /// never read, so they need not be initialized or copied.
  Line *Lines;
  Occupancy *Occ;   ///< Resident lines per set.
  uint64_t Latency; ///< Copy of Config.Latency.
  /// Shift/mask fast path for power-of-two geometry (all Table 1 shapes).
  /// TagShift == 0 falls back to division — partitioned designs divide sets
  /// among lattice levels, which need not leave a power of two.
  uint32_t SetMask = 0;
  uint32_t Assoc;        ///< Copy of Config.Assoc (set stride).
  uint32_t Resident = 0; ///< Σ Occ: lets a copy skip a cold cache.
  uint8_t BlockShift = 0, TagShift = 0;
  CacheEvents Events;

  // Cold: the full configuration and, for a standalone cache, its storage.
  CacheConfig Config;
  void *Owned = nullptr;
};

/// The caches of one machine environment in one allocation: the Cache
/// headers first (one 64-byte-aligned header each), then every cache's
/// occupancy counts, then every cache's lines, then the owner's stamp
/// words. Copying an arena allocates once and copies each cache's state
/// with copyCache: the occupancy counts and only the resident ways of each
/// set, so a cold environment copies no lines at all.
///
/// The stamp words are the environment's per-set change stamps
/// (MachineEnv::SetStamps), kept here so that they cost a clone no
/// allocation of its own. The arena never reads them: it zeroes them when
/// it is made or copied (the copy's owner starts its epochs afresh), and
/// copyFrom leaves them as they are (the owner marks its whole state
/// changed instead).
class CacheArena {
public:
  explicit CacheArena(const std::vector<CacheConfig> &Configs,
                      size_t StampWords = 0);
  CacheArena(const CacheArena &Other);
  CacheArena &operator=(const CacheArena &) = delete;
  ~CacheArena();

  /// Makes every cache's state a copy of \p Other's, in place: the same
  /// copyCache as the copy constructor, with no allocation. \p Other must
  /// hold the same configurations in the same order.
  void copyFrom(const CacheArena &Other);

  /// The StampWords stamp words, zeroed at construction and copy.
  uint64_t *stamps() { return Stamps; }

  size_t size() const { return Count; }
  Cache *data() { return Caches; }
  const Cache *data() const { return Caches; }
  Cache &operator[](size_t I) { return Caches[I]; }
  const Cache &operator[](size_t I) const { return Caches[I]; }
  Cache *begin() { return Caches; }
  Cache *end() { return Caches + Count; }
  const Cache *begin() const { return Caches; }
  const Cache *end() const { return Caches + Count; }

private:
  /// Allocates the block for the caches of \p Configs and places a cold
  /// header over each one's storage.
  template <typename ConfigFn>
  void place(size_t N, ConfigFn ConfigOf, size_t NumStamps);

  /// Makes \p To's state (occupancy, resident lines and event counters) a
  /// copy of \p From's, which has the same configuration. Copies only the
  /// resident ways; a cold \p From clears \p To's occupancy, unless \p To
  /// is cold as well and there is nothing to clear.
  static void copyCache(Cache &To, const Cache &From);

  void *Mem = nullptr;
  Cache *Caches = nullptr;
  size_t Count = 0;
  uint64_t *Stamps = nullptr;
  size_t StampWords = 0;
};

inline Cache::LookupResult Cache::lookup(Addr A, bool MarkDirty) {
  const unsigned S = setOf(A);
  const uint64_t Tag = tagOf(A);
  Line *Set = setLines(S);
  const uint32_t N = Occ[S];
  for (uint32_t W = 0; W != N; ++W) {
    if (tagBits(Set[W]) != Tag)
      continue;
    if (W == 0) {
      // Already MRU: nothing moves (the hot path for looping programs).
      // The dirty bit is written only when it changes, so repeat loads
      // leave the line untouched.
      if (MarkDirty && !(Set[0] & kDirty)) {
        Set[0] |= kDirty;
        return kHitChanged;
      }
      return kHit;
    }
    // Promote to MRU: rotate the ways above the hit down one.
    const Line L = Set[W] | (MarkDirty ? kDirty : 0);
    for (uint32_t I = W; I != 0; --I)
      Set[I] = Set[I - 1];
    Set[0] = L;
    return kHitChanged;
  }
  return kMiss;
}

inline bool Cache::probe(Addr A) const {
  const unsigned S = setOf(A);
  const uint64_t Tag = tagOf(A);
  const Line *Set = setLines(S);
  const uint32_t N = Occ[S];
  for (uint32_t W = 0; W != N; ++W)
    if (tagBits(Set[W]) == Tag)
      return true;
  return false;
}

} // namespace zam

#endif // ZAM_HW_CACHE_H

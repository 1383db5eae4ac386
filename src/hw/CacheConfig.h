//===- CacheConfig.h - Machine environment parameters -----------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Configuration structures for the simulated machine environment. The
/// defaults reproduce Table 1 of the paper:
///
///   Name       | sets | assoc | block  | latency
///   L1 D-cache | 128  | 4-way | 32 B   | 1 cycle
///   L2 D-cache | 1024 | 4-way | 64 B   | 6 cycles
///   L1 I-cache | 512  | 1-way | 32 B   | 1 cycle
///   L2 I-cache | 1024 | 4-way | 64 B   | 6 cycles
///   D-TLB      | 16   | 4-way | 4 KB   | 30 cycles (miss penalty)
///   I-TLB      | 32   | 4-way | 4 KB   | 30 cycles (miss penalty)
///
/// The paper does not list the main-memory latency of its SimpleScalar
/// configuration; we use 100 cycles, a conventional value for that era.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_HW_CACHECONFIG_H
#define ZAM_HW_CACHECONFIG_H

#include <cstdint>

namespace zam {

/// A simulated physical address. Data and code live in disjoint regions
/// (see sem/MemoryLayout.h).
using Addr = uint64_t;

/// Geometry and latency of one cache-like structure (cache or TLB).
struct CacheConfig {
  unsigned NumSets = 1;
  unsigned Assoc = 1;
  unsigned BlockBytes = 32; ///< Line size; page size for TLBs.
  uint64_t Latency = 1;     ///< Hit latency (caches) or miss penalty (TLBs).

  /// Number of blocks the structure can hold.
  unsigned capacity() const { return NumSets * Assoc; }

  bool operator==(const CacheConfig &Other) const = default;
};

/// Full machine-environment configuration (Table 1 defaults).
struct MachineEnvConfig {
  CacheConfig L1D{128, 4, 32, 1};
  CacheConfig L2D{1024, 4, 64, 6};
  CacheConfig L1I{512, 1, 32, 1};
  CacheConfig L2I{1024, 4, 64, 6};
  CacheConfig DTlb{16, 4, 4096, 30};
  CacheConfig ITlb{32, 4, 4096, 30};
  uint64_t MemLatency = 100; ///< Penalty beyond L2 on an L2 miss.

  bool operator==(const MachineEnvConfig &Other) const = default;
};

/// Counters for one cache-like structure; purely observational (never fed
/// back into timing). Hits/Misses are counted at the access sites;
/// Evictions/Writebacks/LineFills are maintained by the Cache itself and
/// merged in by MachineEnv::stats().
struct CacheLevelStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;  ///< LRU replacements of a valid line.
  uint64_t Writebacks = 0; ///< Dirty lines retired (evicted or removed).
  uint64_t LineFills = 0;  ///< Installs of a not-yet-resident block.

  uint64_t accesses() const { return Hits + Misses; }

  bool operator==(const CacheLevelStats &Other) const = default;
};

/// Per-structure counters for one run, consumed by the telemetry layer
/// (obs/Telemetry.h) and the benchmark harnesses.
struct HwStats {
  CacheLevelStats L1D, L2D, L1I, L2I, DTlb, ITlb;

  void reset() { *this = HwStats(); }

  bool operator==(const HwStats &Other) const = default;
};

} // namespace zam

#endif // ZAM_HW_CACHECONFIG_H

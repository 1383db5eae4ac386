//===- TestUtil.h - Shared test fixtures ------------------------*- C++ -*-===//
//
// Part of the zam project test suite.
//
//===----------------------------------------------------------------------===//

#ifndef ZAM_TESTS_TESTUTIL_H
#define ZAM_TESTS_TESTUTIL_H

#include "analysis/RandomProgram.h"
#include "hw/HardwareModels.h"
#include "lang/Parser.h"
#include "lattice/SecurityLattice.h"
#include "support/Diagnostics.h"
#include "support/Rng.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <memory>
#include <string>
#include <tuple>

namespace zam {
namespace test {

/// The two-point lattice shared by most tests.
inline const TwoPointLattice &lh() {
  static const TwoPointLattice Lat;
  return Lat;
}

inline Label low() { return TwoPointLattice::low(); }
inline Label high() { return TwoPointLattice::high(); }

/// The three-level lattice of the Sec. 6 examples.
inline const TotalOrderLattice &lmh() {
  static const TotalOrderLattice Lat({"L", "M", "H"});
  return Lat;
}

/// Parses \p Source over \p Lat, failing the test on diagnostics.
inline Program parseOrDie(const std::string &Source,
                          const SecurityLattice &Lat = lh()) {
  DiagnosticEngine Diags;
  std::optional<Program> P = parseProgram(Source, Lat, Diags);
  EXPECT_TRUE(P.has_value()) << Diags.str();
  if (!P)
    return Program(Lat);
  return std::move(*P);
}

/// All three hardware designs, for parameterized tests.
inline std::vector<HwKind> allHwKinds() {
  return {HwKind::NoPartition, HwKind::NoFill, HwKind::Partitioned};
}

/// The two designs that claim to satisfy the security properties.
inline std::vector<HwKind> secureHwKinds() {
  return {HwKind::NoFill, HwKind::Partitioned};
}

/// A non-cold \p Kind template over lh(): random resident lines, then
/// stores at ⊤ over the first 4 KiB of the data segment, where programs
/// keep their variables.
inline std::unique_ptr<MachineEnv> warmTemplate(HwKind Kind, uint64_t Seed) {
  auto Env = createMachineEnv(Kind, lh());
  Rng R(Seed);
  Env->randomize(R);
  for (Addr A = 0x10000000; A != 0x10000000 + 4096; A += 32)
    Env->dataAccess(A, /*IsStore=*/true, high(), high());
  return Env;
}

/// A machine so small that random programs conflict everywhere: two-way
/// sets that promote, evict and write back on every design, and TLB
/// "pages" of one L2 line, so the TLBs thrash as well. Short random
/// programs on Table 1's caches never evict anything.
inline MachineEnvConfig twoSetTwoWayConfig() {
  MachineEnvConfig C;
  C.L1D = {2, 2, 32, 1};
  C.L2D = {4, 2, 64, 6};
  C.L1I = {2, 2, 32, 1};
  C.L2I = {4, 2, 64, 6};
  C.DTlb = {2, 2, 64, 30};
  C.ITlb = {2, 2, 64, 30};
  return C;
}

/// The cache geometries random-program suites run on, as a test parameter.
enum class CacheGeometry { Table1, TwoSetTwoWay };

inline MachineEnvConfig configOf(CacheGeometry G) {
  return G == CacheGeometry::Table1 ? MachineEnvConfig()
                                    : twoSetTwoWayConfig();
}

inline const char *geometryName(CacheGeometry G) {
  return G == CacheGeometry::Table1 ? "table1" : "twoset";
}

/// Every design on both geometries, and the matching test-name suffix.
inline auto allDesignsAndGeometries() {
  return ::testing::Combine(
      ::testing::ValuesIn(allHwKinds()),
      ::testing::Values(CacheGeometry::Table1, CacheGeometry::TwoSetTwoWay));
}
inline std::string designAndGeometryName(
    const ::testing::TestParamInfo<std::tuple<HwKind, CacheGeometry>> &Info) {
  return std::string(hwKindName(std::get<0>(Info.param))) + "_" +
         geometryName(std::get<1>(Info.param));
}

/// The array size of random programs run on \p G: the generator's default
/// on Table 1, and on the two-set geometry one line more than its L1D
/// holds (20 words, 5 lines against 4), so that each array alone conflicts
/// with itself and every design evicts — nofill too, whose high-context
/// accesses install nothing.
inline unsigned randomArraySize(CacheGeometry G) {
  if (G == CacheGeometry::Table1)
    return RandomProgramOptions().ArraySize;
  const CacheConfig &L1D = configOf(G).L1D;
  return (L1D.capacity() + 1) * L1D.BlockBytes / 8;
}

/// The L1D evictions one random-program test makes, per design and
/// geometry. Once every design has added its count for a geometry, prints
/// them and requires each two-set count to reach kMinTwoSetEvictions:
/// random programs on Table 1's caches evict nothing, so without it no
/// random program would reach a design's eviction and writeback paths
/// (nor, on nofill, the installs that make a probe miss's ticket stale).
/// Keep one static tally per test; a run filtered to some of its designs
/// checks nothing.
class EvictionTally {
public:
  /// The floor of every design's two-set count. Well-typed random
  /// programs, whose loops scan arrays by their counters, give each suite
  /// 44 or more per design, so the floor leaves room for other seeds while
  /// near-trivial programs (one eviction per suite on nofill) fail it.
  static constexpr uint64_t kMinTwoSetEvictions = 20;

  void add(HwKind Kind, CacheGeometry G, uint64_t L1DEvictions) {
    Part &P = Parts[static_cast<unsigned>(G)];
    P.Evictions[static_cast<unsigned>(Kind)] += L1DEvictions;
    P.Added[static_cast<unsigned>(Kind)] = true;
    for (bool Added : P.Added)
      if (!Added)
        return;
    std::printf("[          ] L1D evictions on %s:", geometryName(G));
    for (HwKind K : allHwKinds())
      std::printf(" %s %llu", hwKindName(K),
                  static_cast<unsigned long long>(
                      P.Evictions[static_cast<unsigned>(K)]));
    std::printf("\n");
    if (G == CacheGeometry::TwoSetTwoWay) {
      for (HwKind K : allHwKinds()) {
        EXPECT_GE(P.Evictions[static_cast<unsigned>(K)], kMinTwoSetEvictions)
            << hwKindName(K);
      }
    }
    P = Part();
  }

private:
  static constexpr unsigned kDesigns = 3;
  struct Part {
    uint64_t Evictions[kDesigns] = {};
    bool Added[kDesigns] = {};
  };
  Part Parts[2];
};

} // namespace test
} // namespace zam

#endif // ZAM_TESTS_TESTUTIL_H

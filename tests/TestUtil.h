//===- TestUtil.h - Shared test fixtures ------------------------*- C++ -*-===//
//
// Part of the zam project test suite.
//
//===----------------------------------------------------------------------===//

#ifndef ZAM_TESTS_TESTUTIL_H
#define ZAM_TESTS_TESTUTIL_H

#include "hw/HardwareModels.h"
#include "lang/Parser.h"
#include "lattice/SecurityLattice.h"
#include "support/Diagnostics.h"

#include "gtest/gtest.h"

#include <cstdio>
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

/// The L1D evictions one random-program test makes, summed per geometry
/// over every design. Once all designs have added theirs, prints each sum
/// and requires the two-set one to be nonzero: random programs on Table 1's
/// caches evict nothing, so without it no random program would reach the
/// eviction and writeback paths. Keep one static tally per test; a run
/// filtered to some of its designs checks nothing.
class EvictionTally {
public:
  void add(CacheGeometry G, uint64_t L1DEvictions, unsigned Designs = 1) {
    Part &P = Parts[static_cast<unsigned>(G)];
    P.Evictions += L1DEvictions;
    P.Designs += Designs;
    if (P.Designs < allHwKinds().size())
      return;
    std::printf("[          ] L1D evictions on %s over every design: %llu\n",
                geometryName(G),
                static_cast<unsigned long long>(P.Evictions));
    if (G == CacheGeometry::TwoSetTwoWay) {
      EXPECT_GT(P.Evictions, 0u);
    }
    P = Part();
  }

private:
  struct Part {
    uint64_t Evictions = 0;
    size_t Designs = 0;
  };
  Part Parts[2];
};

} // namespace test
} // namespace zam

#endif // ZAM_TESTS_TESTUTIL_H

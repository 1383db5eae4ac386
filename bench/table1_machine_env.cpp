//===- table1_machine_env.cpp - Reproduces Table 1 --------------------------===//
//
// Table 1 of the paper lists the machine-environment parameters of the
// simulated processor. This harness prints the configuration our simulator
// uses (identical to the paper's) and validates each structure's modeled
// latency with targeted accesses: hit latency, miss penalty, and the
// partitioned design's per-partition geometry.
//
//===----------------------------------------------------------------------===//

#include "exp/Harness.h"
#include "hw/HardwareModels.h"

#include <cinttypes>
#include <cstdio>

using namespace zam;

namespace {

void printRow(const char *Name, const CacheConfig &C, const char *LatencyKind) {
  std::printf("  %-14s %5u sets  %u-way  %5u byte  %3" PRIu64 " cycles (%s)\n",
              Name, C.NumSets, C.Assoc, C.BlockBytes, C.Latency, LatencyKind);
}

/// Measures the latency of the first (cold) and second (warm) access.
std::pair<uint64_t, uint64_t> probeData(MachineEnv &Env, Addr A) {
  TwoPointLattice Lat;
  uint64_t Cold = Env.dataAccess(A, false, Lat.bottom(), Lat.bottom());
  uint64_t Warm = Env.dataAccess(A, false, Lat.bottom(), Lat.bottom());
  return {Cold, Warm};
}

} // namespace

int main(int Argc, char **Argv) {
  if (!parseHarnessArgs(Argc, Argv, /*Takes=*/0).Ok)
    return 2;
  MachineEnvConfig C;
  std::printf("=== Table 1: machine environment parameters ===\n");
  std::printf("(paper: name | # of sets | issue | block size | latency)\n\n");
  printRow("L1 Data Cache", C.L1D, "hit");
  printRow("L2 Data Cache", C.L2D, "hit");
  printRow("L1 Inst. Cache", C.L1I, "hit");
  printRow("L2 Inst. Cache", C.L2I, "hit");
  printRow("Data TLB", C.DTlb, "miss penalty");
  printRow("Instruction TLB", C.ITlb, "miss penalty");
  std::printf("  %-14s %*s %3" PRIu64 " cycles\n", "Main memory", 30, "",
              C.MemLatency);

  TwoPointLattice Lat;
  const uint64_t ExpectCold =
      C.DTlb.Latency + C.L1D.Latency + C.L2D.Latency + C.MemLatency;
  const uint64_t ExpectFetchCold =
      C.ITlb.Latency + C.L1I.Latency + C.L2I.Latency + C.MemLatency;

  std::printf("\n=== model validation (measured vs expected cycles) ===\n");
  std::printf("  %-12s %-22s %-22s\n", "design", "data cold/warm",
              "fetch cold/warm");
  for (HwKind Kind :
       {HwKind::NoPartition, HwKind::NoFill, HwKind::Partitioned}) {
    auto Env = createMachineEnv(Kind, Lat, C);
    auto [Cold, Warm] = probeData(*Env, 0x10000000);
    uint64_t FetchCold = Env->fetch(0x40000000, Lat.bottom(), Lat.bottom());
    uint64_t FetchWarm = Env->fetch(0x40000000, Lat.bottom(), Lat.bottom());
    std::printf("  %-12s %3" PRIu64 "/%-3" PRIu64 " (expect %3" PRIu64
                "/%-3" PRIu64 ")  %3" PRIu64 "/%-3" PRIu64 " (expect %3" PRIu64
                "/%-3" PRIu64 ")\n",
                hwKindName(Kind), Cold, Warm, ExpectCold, C.L1D.Latency,
                FetchCold, FetchWarm, ExpectFetchCold, C.L1I.Latency);
  }

  // Partition geometry of the Sec. 4.3 design.
  HardwareEnv Part(HwKind::Partitioned, Lat, C);
  CacheConfig P1 = Part.partitionConfig(C.L1D);
  std::printf("\npartitioned design: each structure statically divided per"
              " level\n  e.g. L1D partition: %u sets x %u ways (of %u sets"
              " total)\n",
              P1.NumSets, P1.Assoc, C.L1D.NumSets);
  return 0;
}

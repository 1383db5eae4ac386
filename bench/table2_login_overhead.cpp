//===- table2_login_overhead.cpp - Reproduces Table 2 ------------------------===//
//
// Table 2: "Login time with various usernames and options (in clock
// cycles)". Rows: average attempt time over valid and invalid usernames.
// Columns:
//   nopar — commodity (unpartitioned) hardware, no mitigation
//   moff  — secure partitioned hardware, mitigation off
//   mon   — secure partitioned hardware, mitigation on
// The paper reports overhead on valid usernames of 1 / 1.11 / 1.22: the
// partitioning costs ~11% (halved cache capacity) and mitigation adds
// another ~10%; with mitigation on, valid and invalid times coincide.
//
//===----------------------------------------------------------------------===//

#include "apps/LoginApp.h"
#include "exp/Harness.h"
#include "hw/HardwareModels.h"

#include <cinttypes>
#include <cstdio>
#include <vector>

using namespace zam;

namespace {

constexpr unsigned TableSize = 100;
constexpr unsigned NumValid = 50;
constexpr unsigned Rounds = 4; // Passes over the 100-username request mix.

/// A cache configuration scaled down so the login's working set exerts the
/// same relative pressure the paper's full web application exerted on the
/// Table 1 caches. With the full-size caches the toy workload fits in every
/// partition and the partitioning overhead vanishes; this configuration
/// reproduces the paper's ~11% "moff" cost.
MachineEnvConfig pressureConfig() {
  MachineEnvConfig C;
  C.L1D = {8, 2, 32, 1};
  C.L2D = {32, 4, 64, 6};
  C.L1I = {16, 1, 32, 1};
  C.L2I = {32, 4, 64, 6};
  C.DTlb = {4, 4, 4096, 30};
  C.ITlb = {4, 4, 4096, 30};
  return C;
}

struct Averages {
  double Valid = 0;
  double Invalid = 0;
  bool Coincide = false;
};

Averages measure(const SecurityLattice &Lat, const LoginTable &Table,
                 HwKind Hw, const LoginProgramConfig &Config) {
  auto Env = createMachineEnv(Hw, Lat, pressureConfig());
  LoginSession Session(Lat, Table, Config, *Env);
  // Warm-up pass so we measure steady-state behavior, as the paper's
  // long-running sessions do.
  for (unsigned I = 0; I != TableSize; ++I)
    Session.attempt("user" + std::to_string(I), "x");
  Session.resetMitigation();

  uint64_t ValidSum = 0, InvalidSum = 0;
  unsigned ValidCount = 0, InvalidCount = 0;
  std::vector<uint64_t> ValidTimes, InvalidTimes;
  for (unsigned Round = 0; Round != Rounds; ++Round)
    for (unsigned I = 0; I != TableSize; ++I) {
      uint64_t T =
          Session.attempt("user" + std::to_string(I), "pass" + std::to_string(I))
              .Cycles;
      if (I < NumValid) {
        ValidSum += T;
        ++ValidCount;
        ValidTimes.push_back(T);
      } else {
        InvalidSum += T;
        ++InvalidCount;
        InvalidTimes.push_back(T);
      }
    }
  Averages Out;
  Out.Valid = static_cast<double>(ValidSum) / ValidCount;
  Out.Invalid = static_cast<double>(InvalidSum) / InvalidCount;
  // "Coincide" when the averages differ by well under 1% (the paper's
  // mitigated row shows 86132 vs 86147 — a 0.02% gap).
  double Gap = Out.Valid > Out.Invalid ? Out.Valid - Out.Invalid
                                       : Out.Invalid - Out.Valid;
  Out.Coincide = Gap < 0.01 * Out.Valid;
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  if (!parseHarnessArgs(Argc, Argv, /*Takes=*/0).Ok)
    return 2;
  TwoPointLattice Lat;
  Rng R(424242);
  LoginTable Table = makeLoginTable(TableSize, NumValid, R);

  LoginProgramConfig Plain;
  Plain.Mitigated = false;

  auto CalEnv = createMachineEnv(HwKind::Partitioned, Lat, pressureConfig());
  auto [E1, E2] = calibrateLoginEstimates(Lat, Table, *CalEnv, 40, R);
  LoginProgramConfig Padded;
  Padded.Mitigated = true;
  Padded.Estimate1 = E1;
  Padded.Estimate2 = E2;

  Averages Nopar = measure(Lat, Table, HwKind::NoPartition, Plain);
  Averages Moff = measure(Lat, Table, HwKind::Partitioned, Plain);
  Averages Mon = measure(Lat, Table, HwKind::Partitioned, Padded);

  std::printf("=== Table 2: login time with various usernames and options"
              " (clock cycles) ===\n\n");
  std::printf("  %-22s %10s %10s %10s\n", "", "nopar", "moff", "mon");
  std::printf("  %-22s %10.0f %10.0f %10.0f\n", "ave. time (valid)",
              Nopar.Valid, Moff.Valid, Mon.Valid);
  std::printf("  %-22s %10.0f %10.0f %10.0f\n", "ave. time (invalid)",
              Nopar.Invalid, Moff.Invalid, Mon.Invalid);
  std::printf("  %-22s %10.2f %10.2f %10.2f\n", "overhead (valid)", 1.0,
              Moff.Valid / Nopar.Valid, Mon.Valid / Nopar.Valid);

  std::printf("\n=== shape checks (paper: 1 / 1.11 / 1.22; mitigated"
              " valid==invalid) ===\n");
  std::printf("  partitioning slows the login down:        %s"
              "  (moff/nopar = %.2f)\n",
              Moff.Valid > Nopar.Valid ? "YES" : "no",
              Moff.Valid / Nopar.Valid);
  std::printf("  mitigation adds modest extra cost:        %s"
              "  (mon/moff  = %.2f)\n",
              Mon.Valid > Moff.Valid ? "YES" : "no", Mon.Valid / Moff.Valid);
  std::printf("  unmitigated valid/invalid distinguishable: %s"
              "  (%.0f vs %.0f)\n",
              !Nopar.Coincide ? "YES" : "no", Nopar.Valid, Nopar.Invalid);
  std::printf("  mitigated valid/invalid coincide:          %s"
              "  (%.0f vs %.0f)\n",
              Mon.Coincide ? "YES" : "no", Mon.Valid, Mon.Invalid);
  return Mon.Coincide ? 0 : 1;
}

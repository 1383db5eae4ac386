//===- initial_prediction.cpp - Ablation: choosing the initial estimate ------===//
//
// Sec. 8.2: "With the doubling policy, the slowdown of mitigation is at most
// twice the worst-case time. To improve performance, we can sample the
// running time of mitigated commands, setting the initial prediction to be a
// little higher than the average" — the paper uses 110% of the sampled time.
//
// This ablation sweeps the initial prediction of the login mitigates from
// far too small (1 cycle) to oversized (4x) and reports steady-state attempt
// latency and misprediction counts, quantifying the design choice.
//
//===----------------------------------------------------------------------===//

#include "apps/LoginApp.h"
#include "exp/Harness.h"
#include "hw/HardwareModels.h"

#include <cinttypes>
#include <cstdio>

using namespace zam;

namespace {
constexpr unsigned TableSize = 100;
constexpr unsigned NumValid = 50;

struct Row {
  const char *Name;
  int64_t E1, E2;
};
} // namespace

int main(int Argc, char **Argv) {
  if (!parseHarnessArgs(Argc, Argv, /*Takes=*/0).Ok)
    return 2;
  TwoPointLattice Lat;
  Rng R(31415);
  LoginTable Table = makeLoginTable(TableSize, NumValid, R);

  auto CalEnv = createMachineEnv(HwKind::Partitioned, Lat);
  auto [E1, E2] = calibrateLoginEstimates(Lat, Table, *CalEnv, 40, R);

  // Unmitigated baseline for overhead.
  LoginProgramConfig Plain;
  Plain.Mitigated = false;
  uint64_t BaseSum = 0;
  {
    auto Env = createMachineEnv(HwKind::Partitioned, Lat);
    LoginSession S(Lat, Table, Plain, *Env);
    for (unsigned I = 0; I != TableSize; ++I)
      S.attempt("user" + std::to_string(I), "x");
    for (unsigned I = 0; I != TableSize; ++I)
      BaseSum += S.attempt("user" + std::to_string(I), "x").Cycles;
  }
  double Base = static_cast<double>(BaseSum) / TableSize;

  const Row Rows[] = {
      {"1 cycle (worst case)", 1, 1},
      {"50% of calibrated", E1 / 2, E2 / 2},
      {"calibrated (110% max)", E1, E2},
      {"200% of calibrated", 2 * E1, 2 * E2},
      {"400% of calibrated", 4 * E1, 4 * E2},
  };

  std::printf("=== initial-prediction ablation (login, partitioned hw) ===\n");
  std::printf("unmitigated steady-state average: %.0f cycles\n\n", Base);
  std::printf("  %-24s %12s %12s %10s\n", "initial prediction", "avg cycles",
              "overhead", "misses");
  for (const Row &Cfg : Rows) {
    LoginProgramConfig Config;
    Config.Mitigated = true;
    Config.Estimate1 = Cfg.E1;
    Config.Estimate2 = Cfg.E2;
    auto Env = createMachineEnv(HwKind::Partitioned, Lat);
    LoginSession S(Lat, Table, Config, *Env);
    // Warm the machine, then measure a fresh schedule in steady state.
    for (unsigned I = 0; I != TableSize; ++I)
      S.attempt("user" + std::to_string(I), "x");
    S.resetMitigation();
    uint64_t Sum = 0;
    for (unsigned I = 0; I != TableSize; ++I)
      Sum += S.attempt("user" + std::to_string(I), "x").Cycles;
    double Avg = static_cast<double>(Sum) / TableSize;
    unsigned Misses = S.mitigationState().misses(Lat.top());
    std::printf("  %-24s %12.0f %11.2fx %10u\n", Cfg.Name, Avg, Avg / Base,
                Misses);
  }

  std::printf("\n=== shape checks ===\n");
  std::printf("the doubling policy bounds the worst case at ~2x the body\n"
              "time even from a 1-cycle estimate; the 110%%-calibrated\n"
              "estimate minimizes overhead (paper: ~10%% on this workload).\n");
  return 0;
}

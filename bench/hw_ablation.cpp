//===- hw_ablation.cpp - Ablation: the cost of each secure design ------------===//
//
// Sec. 4 sketches two realizations of the hardware contract: the no-fill
// mode on stock hardware (Sec. 4.2) and the statically partitioned caches
// (Sec. 4.3), which the paper calls "more efficient". This ablation runs
// the login and RSA workloads on all three designs and quantifies the
// trade: no-fill makes every high-context access a full miss; partitioning
// halves capacity but keeps high contexts cached.
//
// Runs on the zam_exp harness: the six (design x workload) measurements
// are independent and fan out over the worker pool.
//
//===----------------------------------------------------------------------===//

#include "apps/LoginApp.h"
#include "apps/RsaApp.h"
#include "crypto/ToyRsa.h"
#include "exp/Harness.h"
#include "exp/Report.h"
#include "hw/HardwareModels.h"
#include "obs/LeakAudit.h"
#include "obs/Telemetry.h"

#include <cinttypes>
#include <cstdio>

using namespace zam;

namespace {

std::vector<uint64_t> loginTimes(const SecurityLattice &Lat,
                                 const LoginTable &Table, HwKind Hw) {
  LoginProgramConfig Config;
  Config.Mitigated = false; // Isolate the hardware cost.
  auto Env = createMachineEnv(Hw, Lat);
  LoginSession S(Lat, Table, Config, *Env);
  for (unsigned I = 0; I != 100; ++I)
    S.attempt("user" + std::to_string(I), "x");
  std::vector<uint64_t> Times;
  for (unsigned I = 0; I != 100; ++I)
    Times.push_back(S.attempt("user" + std::to_string(I), "x").Cycles);
  return Times;
}

std::vector<uint64_t> rsaTime(const SecurityLattice &Lat, const RsaKey &Key,
                              HwKind Hw) {
  RsaProgramConfig Config;
  Config.Mode = RsaMitigationMode::Unmitigated;
  Config.MaxBlocks = 2;
  auto Env = createMachineEnv(Hw, Lat);
  RsaSession S(Lat, Key, Config, *Env);
  std::vector<uint64_t> Msg = {rsaEncryptBlock(Key, 123456),
                               rsaEncryptBlock(Key, 654321)};
  S.decrypt(Msg); // Warm-up.
  return {S.decrypt(Msg).Cycles};
}

} // namespace

int main(int Argc, char **Argv) {
  HarnessOptions Harness =
      parseHarnessArgs(Argc, Argv, TakesThreads | TakesJson);
  if (!Harness.Ok)
    return 2;
  ParallelRunner Runner(Harness.Threads);

  TwoPointLattice Lat;
  Rng R(161803);
  LoginTable Table = makeLoginTable(100, 50, R);
  RsaKey Key = generateRsaKey(R, 53);

  const HwKind Kinds[] = {HwKind::NoPartition, HwKind::Partitioned,
                          HwKind::NoFill};

  Report Rep("hw_ablation");
  std::vector<SeriesSpec> Specs;
  for (HwKind Kind : Kinds)
    Specs.push_back({std::string("login/") + hwKindName(Kind),
                     [&, Kind] { return loginTimes(Lat, Table, Kind); }});
  for (HwKind Kind : Kinds)
    Specs.push_back({std::string("rsa/") + hwKindName(Kind),
                     [&, Kind] { return rsaTime(Lat, Key, Kind); }});
  runSeriesInto(Rep, Specs, Runner);

  std::printf("=== hardware ablation: workload time by design (cycles,"
              " unmitigated) ===\n\n");
  std::printf("  %-12s %14s %14s\n", "design", "login avg", "rsa 2-block");

  double LoginBase = 0, RsaBase = 0;
  for (HwKind Kind : Kinds) {
    double Login =
        Rep.seriesAverage(std::string("login/") + hwKindName(Kind));
    double Rsa = Rep.seriesAverage(std::string("rsa/") + hwKindName(Kind));
    if (Kind == HwKind::NoPartition) {
      LoginBase = Login;
      RsaBase = Rsa;
    }
    std::printf("  %-12s %14.0f %14.0f   (%.2fx / %.2fx)\n",
                hwKindName(Kind), Login, Rsa, Login / LoginBase,
                Rsa / RsaBase);
    Rep.setScalar(std::string("login_overhead_") + hwKindName(Kind),
                  Login / LoginBase);
    Rep.setScalar(std::string("rsa_overhead_") + hwKindName(Kind),
                  Rsa / RsaBase);
  }

  // Telemetry of record: one login attempt per design on fresh
  // environments, prefixed by design name — the hit/miss/line-fill split
  // is precisely what differs between the three realizations.
  for (HwKind Kind : Kinds) {
    LoginProgramConfig Config;
    Config.Mitigated = false;
    auto Env = createMachineEnv(Kind, Lat);
    Program P = buildLoginProgram(Lat, Table, Config);
    RunResult RepRun = runFull(P, *Env, [&](Memory &M) {
      setLoginRequest(M, "user0", "x");
    });
    const std::string Prefix = std::string(hwKindName(Kind)) + ".";
    collectRunMetrics(Rep.metrics(), RepRun.T, RepRun.Hw, Lat, Prefix);
    LeakAudit Audit(Lat);
    Audit.ingest(RepRun.T);
    Audit.exportMetrics(Rep.metrics(), Prefix);
  }

  std::printf("\n=== shape checks ===\n");
  std::printf("nopar is fastest but violates the contract (insecure);\n"
              "partitioned pays a modest capacity penalty (paper: ~11%%);\n"
              "no-fill pays most in high-context-heavy code (every \n"
              "high-context access bypasses the cache).\n");
  if (!emitReportJson(Rep, Harness))
    return 2;
  return 0;
}

//===- fig7_login_timing.cpp - Reproduces Fig. 7 ----------------------------===//
//
// Fig. 7: "Login time with various secrets". 100 login attempts
// (user0..user99) against a credential table whose secret contents vary in
// the number of valid usernames (10, 50, 100). Upper plot: unmitigated —
// the three curves separate and valid attempts are distinguishable from
// invalid ones. Lower plot: mitigated — all curves coincide and carry no
// information about the secret table.
//
// Runs on the zam_exp harness: the six sessions (3 secrets x 2 modes) are
// independent deterministic series and fan out over the worker pool;
// statistics, the attempt table and the optional --json report all come
// from exp::Report.
//
//===----------------------------------------------------------------------===//

#include "apps/LoginApp.h"
#include "exp/Harness.h"
#include "exp/Report.h"
#include "hw/HardwareModels.h"
#include "obs/CostLedger.h"
#include "obs/LeakAudit.h"
#include "obs/Telemetry.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <vector>

using namespace zam;

namespace {

constexpr unsigned Attempts = 100;
constexpr unsigned TableSize = 100;

std::vector<uint64_t> runSession(const SecurityLattice &Lat,
                                 const LoginTable &Table,
                                 const LoginProgramConfig &Config) {

  auto Env = createMachineEnv(HwKind::Partitioned, Lat);
  // A server session that has been up for a while: warm the machine with a
  // handful of requests before the measured sequence.
  LoginSession Session(Lat, Table, Config, *Env);
  for (unsigned I = 0; I != 8; ++I)
    Session.attempt("warmup" + std::to_string(I), "pw");
  if (!Table.ValidUsernames.empty())
    Session.attempt(Table.ValidUsernames[0], "pw");
  Session.resetMitigation(); // Fresh schedule for the measured run.

  std::vector<uint64_t> Times;
  for (unsigned I = 0; I != Attempts; ++I)
    Times.push_back(
        Session.attempt("user" + std::to_string(I), "pass" + std::to_string(I))
            .Cycles);
  return Times;
}

} // namespace

int main(int Argc, char **Argv) {
  HarnessOptions Harness =
      parseHarnessArgs(Argc, Argv, TakesThreads | TakesJson | TakesTrace);
  if (!Harness.Ok)
    return 2;
  ParallelRunner Runner(Harness.Threads);

  TwoPointLattice Lat;
  Rng TableRng(2254078);

  const unsigned ValidCounts[3] = {10, 50, 100};
  LoginTable Tables[3];
  for (unsigned I = 0; I != 3; ++I)
    Tables[I] = makeLoginTable(TableSize, ValidCounts[I], TableRng);

  // Sec. 8.2 calibration, done once with "randomly generated secrets": the
  // initial predictions are fixed before the secret table is chosen, so the
  // prediction schedule itself cannot encode the secret. We take the
  // worst case over the candidate tables (110% of the max sampled body).
  // The three calibrations are independent (seeded Rng each) and fan out.
  auto Estimates =
      Runner.map(3, [&](size_t I) -> std::pair<int64_t, int64_t> {
        Rng CalibRng(7 + I);
        auto Env = createMachineEnv(HwKind::Partitioned, Lat);
        return calibrateLoginEstimates(Lat, Tables[I], *Env, 30, CalibRng);
      });
  int64_t E1 = 1, E2 = 1;
  for (const auto &[A, B] : Estimates) {
    E1 = std::max(E1, A);
    E2 = std::max(E2, B);
  }
  std::printf("calibrated initial predictions: lookup=%" PRId64
              " cycles, check=%" PRId64 " cycles\n\n",
              E1, E2);

  LoginProgramConfig Plain;
  Plain.Mitigated = false;
  LoginProgramConfig Padded;
  Padded.Mitigated = true;
  Padded.Estimate1 = E1;
  Padded.Estimate2 = E2;

  Report R("fig7_login_timing");
  std::vector<SeriesSpec> Specs;
  for (unsigned I = 0; I != 3; ++I)
    Specs.push_back({"unmit/" + std::to_string(ValidCounts[I]),
                     [&, I] { return runSession(Lat, Tables[I], Plain); }});
  for (unsigned I = 0; I != 3; ++I)
    Specs.push_back({"mit/" + std::to_string(ValidCounts[I]),
                     [&, I] { return runSession(Lat, Tables[I], Padded); }});
  runSeriesInto(R, Specs, Runner);
  R.setIndex("attempt", {});
  R.setScalar("calibrated_lookup_estimate", static_cast<double>(E1));
  R.setScalar("calibrated_check_estimate", static_cast<double>(E2));

  // Telemetry of record: one mitigated attempt against the first table on a
  // fresh environment — deterministic, so it is safe in byte-stable JSON.
  // The leakage accountant prices its mitigate windows into the leak.*
  // metrics, the source profiler attributes the run's costs into prof.*
  // (hot lines plus the per-mitigate-site sub-accounts), and --trace-out
  // exports the run for offline zamtrace checks.
  {
    auto Env = createMachineEnv(HwKind::Partitioned, Lat);
    Program P = buildLoginProgram(Lat, Tables[0], Padded);
    CostLedger Ledger;
    InterpreterOptions IOpts;
    IOpts.Provenance = &Ledger;
    RunResult Rep = runFull(
        P, *Env, [&](Memory &M) { setLoginRequest(M, "user0", "pass0"); },
        IOpts);
    collectRunMetrics(R.metrics(), Rep.T, Rep.Hw, Lat);
    LeakAudit Audit(Lat);
    Audit.ingest(Rep.T);
    Audit.exportMetrics(R.metrics());
    Ledger.applyLeakage(Audit);
    Ledger.exportMetrics(R.metrics());
    if (!emitBenchTrace(Rep.T, Lat, Harness))
      return 2;
  }

  // Interpreter throughput of record: repeated mitigated attempts against
  // the first table, single-threaded, no provenance — the raw engine speed.
  // Wall-clock only (the "wall" JSON section), so the deterministic metrics
  // stay byte-stable across machines; zam_perf (bench/perf) is the
  // repeated, per-layer measurement.
  {
    constexpr unsigned Reps = 200;
    auto Env = createMachineEnv(HwKind::Partitioned, Lat);
    Program P = buildLoginProgram(Lat, Tables[0], Padded);
    auto Start = std::chrono::steady_clock::now();
    for (unsigned I = 0; I != Reps; ++I)
      runFull(P, *Env, [&](Memory &M) {
        setLoginRequest(M, "user" + std::to_string(I % Attempts),
                        "pass" + std::to_string(I % Attempts));
      });
    double Ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
    R.setWallScalar("interp_runs", Reps);
    R.setWallScalar("interp_wall_ms", Ms);
    std::printf("\ninterpreter throughput: %u mitigated attempts in %.1f ms\n",
                Reps, Ms);
  }

  std::printf("=== Fig. 7: login time per attempt (cycles; secrets = #valid"
              " usernames) ===\n");
  std::printf("%s", R.renderTable(/*Stride=*/5).c_str());

  std::printf("\n=== shape checks (paper's findings) ===\n");
  std::printf("unmitigated averages: %.0f / %.0f / %.0f cycles"
              " (curves separate by secret)\n",
              R.seriesAverage("unmit/10"), R.seriesAverage("unmit/50"),
              R.seriesAverage("unmit/100"));

  // Valid vs invalid distinguishable in the unmitigated 10-valid run.
  const Series &Unmit10 = *R.find("unmit/10");
  std::vector<double> Valid(Unmit10.Values.begin(),
                            Unmit10.Values.begin() + 10);
  std::vector<double> Invalid(Unmit10.Values.begin() + 10,
                              Unmit10.Values.end());
  bool Separates = average(Valid) > 1.2 * average(Invalid);
  std::printf("unmitigated (10 valid): avg valid %.0f vs avg invalid %.0f"
              " -> adversary separates them: %s\n",
              average(Valid), average(Invalid), Separates ? "YES" : "no");

  // Mitigated curves coincide: same series of times across secrets.
  bool Coincide =
      R.coincide("mit/10", "mit/50") && R.coincide("mit/50", "mit/100");
  std::printf("mitigated curves coincide across secrets: %s\n",
              Coincide ? "YES (execution time does not depend on secrets)"
                       : "no — INVESTIGATE");

  size_t Distinct = R.find("mit/10")->stats().Distinct;
  std::printf("distinct mitigated attempt times within a session: %zu\n",
              Distinct);

  R.setVerdict("valid_invalid_separate_unmitigated", Separates);
  R.setVerdict("mitigated_curves_coincide", Coincide);
  R.setScalar("distinct_mitigated_times", static_cast<double>(Distinct));
  if (!emitReportJson(R, Harness))
    return 2;
  return Coincide ? 0 : 1;
}

//===- harness_baseline.cpp - Parallel-runner determinism baseline --------===//
//
// Checks that the experiment harness gives the same answers at any thread
// count: the leakage Q/V enumeration and a Fig. 7-style batch of login
// sessions each run serially and fanned out over the worker pool, and the
// results must be bit-identical. It also records the dispatch profile
// (exec.*) of a loop-heavy probe. The JSON report (--json) is the
// BENCH_harness.json baseline; every number in it is deterministic. Host
// time is bench/perf's job (zam_perf).
//
//===----------------------------------------------------------------------===//

#include "analysis/Leakage.h"
#include "apps/LoginApp.h"
#include "exp/Harness.h"
#include "exp/Scenario.h"
#include "hw/HardwareModels.h"
#include "ir/IrPrinter.h"
#include "lang/Parser.h"
#include "obs/ExecProfile.h"
#include "sem/FullInterpreter.h"
#include "types/LabelInference.h"

#include <cstdio>
#include <thread>

using namespace zam;

namespace {

LeakageResult measureOnce(const Program &P, const SecurityLattice &Lat,
                          unsigned Threads) {
  auto Env = createMachineEnv(HwKind::Partitioned, Lat);
  LeakageSpec Spec;
  Spec.SourceLevels = LabelSet(Lat, {Lat.top()});
  Spec.Adversary = Lat.bottom();
  constexpr unsigned NumSecrets = 4096;
  for (unsigned I = 0; I != NumSecrets; ++I)
    Spec.Variations.push_back(
        SecretAssignment{{{"h", static_cast<int64_t>(1 + 61 * I)}}, {}});
  return measureLeakage(P, *Env, Spec, InterpreterOptions(), Threads);
}

bool sameLeakage(const LeakageResult &A, const LeakageResult &B) {
  return A.DistinctObservations == B.DistinctObservations &&
         A.QBits == B.QBits && A.ShannonBits == B.ShannonBits &&
         A.DistinctTimingVectors == B.DistinctTimingVectors &&
         A.VBits == B.VBits && A.TheoremTwoHolds == B.TheoremTwoHolds &&
         A.MitigatesLowDeterministic == B.MitigatesLowDeterministic &&
         A.MaxFinalTime == B.MaxFinalTime &&
         A.RelevantMitigates == B.RelevantMitigates &&
         A.ClosedFormBoundBits == B.ClosedFormBoundBits;
}

/// A Fig. 7-style batch: six independent login sessions (3 secret tables x
/// 2 modes), 100 measured attempts each.
std::string loginBatchJson(const SecurityLattice &Lat,
                           const LoginTable (&Tables)[3], unsigned Threads) {
  const unsigned ValidCounts[3] = {10, 50, 100};
  LoginProgramConfig Plain;
  Plain.Mitigated = false;
  LoginProgramConfig Padded;
  Padded.Mitigated = true;
  Padded.Estimate1 = 3000;
  Padded.Estimate2 = 3000;

  auto Session = [&](const LoginTable &Table,
                     const LoginProgramConfig &Config) {
    auto Env = createMachineEnv(HwKind::Partitioned, Lat);
    LoginSession S(Lat, Table, Config, *Env);
    std::vector<uint64_t> Times;
    for (unsigned I = 0; I != 100; ++I)
      Times.push_back(
          S.attempt("user" + std::to_string(I), "pass" + std::to_string(I))
              .Cycles);
    return Times;
  };

  Report R("login_batch");
  std::vector<SeriesSpec> Specs;
  for (unsigned I = 0; I != 3; ++I)
    Specs.push_back({"unmit/" + std::to_string(ValidCounts[I]),
                     [&, I] { return Session(Tables[I], Plain); }});
  for (unsigned I = 0; I != 3; ++I)
    Specs.push_back({"mit/" + std::to_string(ValidCounts[I]),
                     [&, I] { return Session(Tables[I], Padded); }});
  runSeriesInto(R, Specs, ParallelRunner(Threads));
  return R.toJson().dump();
}

} // namespace

int main(int Argc, char **Argv) {
  HarnessOptions Harness = parseHarnessArgs(Argc, Argv);
  if (!Harness.Ok)
    return 2;
  // The fan-out width to compare against serial: --threads, else 8 (the
  // acceptance configuration), regardless of the host's core count.
  const unsigned Wide = Harness.Threads ? Harness.Threads : 8;
  const unsigned Cores = std::thread::hardware_concurrency();

  TwoPointLattice Lat;
  DiagnosticEngine Diags;
  std::optional<Program> P =
      parseProgram("var h : H;\nvar l : L;\n"
                   "mitigate (64, H) { sleep(h) @[H,H] };\n"
                   "l := 1",
                   Lat, Diags);
  inferTimingLabels(*P);

  std::printf("host: hardware_concurrency=%u, comparing 1 vs %u threads\n\n",
              Cores, Wide);

  // Leakage enumeration: 4096 secret variations per measurement.
  const LeakageResult L1 = measureOnce(*P, Lat, 1);
  const bool LeakSame = sameLeakage(L1, measureOnce(*P, Lat, Wide));
  std::printf("leakage enumeration (4096 runs) at 1 and %u threads "
              "identical: %s\n",
              Wide, LeakSame ? "YES" : "NO");

  // Login batch: six independent sessions of 100 attempts.
  Rng TableRng(2254078);
  LoginTable Tables[3];
  const unsigned ValidCounts[3] = {10, 50, 100};
  for (unsigned I = 0; I != 3; ++I)
    Tables[I] = makeLoginTable(100, ValidCounts[I], TableRng);

  const bool LoginSame =
      loginBatchJson(Lat, Tables, 1) == loginBatchJson(Lat, Tables, Wide);
  std::printf("login batch (6 sessions x 100 attempts) at 1 and %u threads, "
              "bit-identical JSON: %s\n",
              Wide, LoginSame ? "YES" : "NO");

  // The dispatch profile of many serial full-semantics runs of a
  // loop-heavy probe (~400 evaluation steps per run).
  std::optional<Program> InterpP = parseProgram(
      "var h : H;\nvar l : L;\nvar a : L[16];\nvar i : L;\n"
      "i := 0;\n"
      "while i < 128 do { a[i] := a[i + 7] + i; i := i + 1 };\n"
      "mitigate (64, H) { sleep(h) @[H,H] };\n"
      "l := i",
      Lat, Diags);
  inferTimingLabels(*InterpP);
  constexpr unsigned InterpReps = 2000;
  ExecProfile InterpProf;
  {
    auto Env = createMachineEnv(HwKind::Partitioned, Lat);
    InterpreterOptions IOpts;
    IOpts.Probe = &InterpProf;
    for (unsigned I = 0; I != InterpReps; ++I)
      runFull(
          *InterpP, *Env,
          [&](Memory &M) { M.store("h", static_cast<int64_t>(I % 97)); },
          IOpts);
  }
  std::string ProfErr;
  if (!InterpProf.selfCheck(ProfErr)) {
    std::fprintf(stderr, "error: %s\n", ProfErr.c_str());
    return 2;
  }
  std::vector<ExecProfile::DigramRank> Digrams = InterpProf.rankedDigrams();
  std::printf("engine observatory: %u serial runs, %llu dispatches",
              InterpReps,
              static_cast<unsigned long long>(InterpProf.dispatches()));
  if (!Digrams.empty())
    std::printf(", hottest digram %s;%s (%llu pairs)",
                irOpName(Digrams.front().A), irOpName(Digrams.front().B),
                static_cast<unsigned long long>(Digrams.front().Count));
  std::printf("\n");

  Report R("harness_baseline");
  R.setScalar("hardware_concurrency", Cores);
  R.setScalar("threads_compared", Wide);
  R.setScalar("leakage_runs", 4096);
  R.setScalar("leakage_q_bits", L1.QBits);
  R.setScalar("leakage_v_bits", L1.VBits);
  R.setVerdict("leakage_identical", LeakSame);
  R.setVerdict("login_json_bit_identical", LoginSame);
  InterpProf.exportMetrics(R.metrics());

  std::printf("\n%s", R.renderSummary().c_str());
  if (!emitReportJson(R, Harness))
    return 2;
  return (LeakSame && LoginSame) ? 0 : 1;
}

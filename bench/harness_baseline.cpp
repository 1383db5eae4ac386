//===- harness_baseline.cpp - Parallel-runner wall-clock baseline -----------===//
//
// Records the wall-clock trajectory of the experiment harness itself: the
// leakage Q/V enumeration and a Fig. 7-style batch of login sessions, each
// executed serially and fanned out over the worker pool, with the results
// cross-checked for bit-identical equality. The JSON report (--json) is the
// BENCH_harness.json baseline; it includes hardware_concurrency so that a
// 1-core container's "speedup" numbers read as what they are.
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
#include "obs/Phase.h"
#include "sem/FullInterpreter.h"
#include "types/LabelInference.h"

#include <chrono>
#include <cstdio>
#include <thread>

using namespace zam;

namespace {

/// Wall-clock phase breakdown of the whole baseline, printed at the end.
/// Wall-clock never enters the report's deterministic members; the
/// trailing "wall" and "phases" sections carry the timings instead.
PhaseProfiler Phases;

/// Milliseconds of wall-clock spent in \p Fn, also accumulated into the
/// phase profiler under \p Phase.
template <typename Fn> double timeMs(const char *Phase, Fn &&Fn_) {
  auto Start = std::chrono::steady_clock::now();
  Fn_();
  auto End = std::chrono::steady_clock::now();
  double Ms = std::chrono::duration<double, std::milli>(End - Start).count();
  Phases.add(Phase, Ms);
  return Ms;
}

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
  LeakageResult L1, LN;
  double LeakMs1 =
      timeMs("leakage/1thread", [&] { L1 = measureOnce(*P, Lat, 1); });
  double LeakMsN =
      timeMs("leakage/wide", [&] { LN = measureOnce(*P, Lat, Wide); });
  bool LeakSame = sameLeakage(L1, LN);
  std::printf("leakage enumeration (4096 runs): %.1f ms at 1 thread, "
              "%.1f ms at %u threads (speedup %.2fx), identical: %s\n",
              LeakMs1, LeakMsN, Wide, LeakMs1 / LeakMsN,
              LeakSame ? "YES" : "NO");

  // Login batch: six independent sessions of 100 attempts.
  Rng TableRng(2254078);
  LoginTable Tables[3];
  const unsigned ValidCounts[3] = {10, 50, 100};
  for (unsigned I = 0; I != 3; ++I)
    Tables[I] = makeLoginTable(100, ValidCounts[I], TableRng);

  std::string Batch1, BatchN;
  double LoginMs1 =
      timeMs("login/1thread", [&] { Batch1 = loginBatchJson(Lat, Tables, 1); });
  double LoginMsN =
      timeMs("login/wide", [&] { BatchN = loginBatchJson(Lat, Tables, Wide); });
  bool LoginSame = Batch1 == BatchN;
  std::printf("login batch (6 sessions x 100 attempts): %.1f ms at 1 "
              "thread, %.1f ms at %u threads (speedup %.2fx), "
              "bit-identical JSON: %s\n",
              LoginMs1, LoginMsN, Wide, LoginMs1 / LoginMsN,
              LoginSame ? "YES" : "NO");

  // Interpreter throughput: many serial full-semantics runs of a
  // loop-heavy probe (~400 evaluation steps per run, so per-run setup is
  // amortized and the engine's step rate dominates) — the engine-speed
  // floor under every harness number above. Comparing engine speed across
  // builds is bench/perf's job; this is one sample on this host.
  std::optional<Program> InterpP = parseProgram(
      "var h : H;\nvar l : L;\nvar a : L[16];\nvar i : L;\n"
      "i := 0;\n"
      "while i < 128 do { a[i] := a[i + 7] + i; i := i + 1 };\n"
      "mitigate (64, H) { sleep(h) @[H,H] };\n"
      "l := i",
      Lat, Diags);
  inferTimingLabels(*InterpP);
  constexpr unsigned InterpReps = 2000;
  // The execution observatory rides the measured loop: its per-dispatch
  // counters are part of the engine cost being measured, and its exec.*
  // profile is the loop's dispatch mix.
  ExecProfile InterpProf;
  double InterpMs = timeMs("interp/serial", [&] {
    auto Env = createMachineEnv(HwKind::Partitioned, Lat);
    InterpreterOptions IOpts;
    IOpts.Probe = &InterpProf;
    for (unsigned I = 0; I != InterpReps; ++I)
      runFull(
          *InterpP, *Env,
          [&](Memory &M) { M.store("h", static_cast<int64_t>(I % 97)); },
          IOpts);
  });
  std::printf("interpreter throughput: %u serial runs in %.1f ms\n",
              InterpReps, InterpMs);
  std::string ProfErr;
  if (!InterpProf.selfCheck(ProfErr)) {
    std::fprintf(stderr, "error: %s\n", ProfErr.c_str());
    return 2;
  }
  std::vector<ExecProfile::DigramRank> Digrams = InterpProf.rankedDigrams();
  std::printf("engine observatory: %llu dispatches",
              static_cast<unsigned long long>(InterpProf.dispatches()));
  if (!Digrams.empty())
    std::printf(", hottest digram %s;%s (%llu pairs)",
                irOpName(Digrams.front().A), irOpName(Digrams.front().B),
                static_cast<unsigned long long>(Digrams.front().Count));
  std::printf("; %.1f dispatches/us sampled\n",
              InterpProf.wall().dispatchesPerUs());

  Report R("harness_baseline");
  R.setScalar("hardware_concurrency", Cores);
  R.setScalar("threads_compared", Wide);
  R.setScalar("leakage_runs", 4096);
  R.setScalar("leakage_q_bits", L1.QBits);
  R.setScalar("leakage_v_bits", L1.VBits);
  R.setVerdict("leakage_identical", LeakSame);
  R.setVerdict("login_json_bit_identical", LoginSame);
  // Wall-clock trajectory: elapsed times and speedups vary per host and
  // per run, so they ride in the report's trailing "wall"/"phases"
  // sections, outside the deterministic projection that byte-stability
  // audits (and zamtrace diff) look at.
  R.setWallScalar("leakage_ms_1thread", LeakMs1);
  R.setWallScalar("leakage_ms_wide", LeakMsN);
  R.setWallScalar("leakage_speedup", LeakMs1 / LeakMsN);
  R.setWallScalar("login_ms_1thread", LoginMs1);
  R.setWallScalar("login_ms_wide", LoginMsN);
  R.setWallScalar("login_speedup", LoginMs1 / LoginMsN);
  R.setWallScalar("interp_runs", InterpReps);
  R.setWallScalar("interp_wall_ms", InterpMs);
  // The deterministic dispatch profile of the interp loop rides the
  // "metrics" object (exec.*); the epoch-sampled host throughput joins
  // the other wall numbers as wall.exec.* (outside the deterministic
  // projection, like every wall figure).
  InterpProf.exportMetrics(R.metrics());
  R.setWallScalar("exec.sample_epochs",
                  static_cast<double>(InterpProf.wall().Epochs));
  R.setWallScalar("exec.sampled_dispatches",
                  static_cast<double>(InterpProf.wall().SampledDispatches));
  R.setWallScalar("exec.elapsed_ms",
                  static_cast<double>(InterpProf.wall().ElapsedNs) / 1e6);
  R.setWallScalar("exec.dispatch_per_us",
                  InterpProf.wall().dispatchesPerUs());
  R.setPhases(Phases.toJson());

  std::printf("\n-- phases (wall clock) --\n%s", Phases.render().c_str());
  std::printf("\n%s", R.renderSummary().c_str());
  if (!emitReportJson(R, Harness))
    return 2;
  return (LeakSame && LoginSame) ? 0 : 1;
}

//===- pareto_sweep.cpp - Mitigation-policy Pareto frontier ------------------===//
//
// Sec. 7 fixes one point in the predictive-mitigation design space: the
// fast-doubling schedule with the local (per-level) penalty policy, citing
// [5, 38] for alternatives. This harness sweeps the registered policy
// family across that space and records, per policy point, the two axes of
// the trade-off the paper describes:
//
//   security — the priced Sec. 6 leakage bound (Σ log2 N_i(T_i) over the
//              counted windows, by the policy's own attainable-value count),
//   cost     — the padding overhead (Σ padded duration / Σ body time).
//
// Three workloads: the mitigated-sleep secret sweep (the classic ablation,
// fresh schedule per secret), a Fig. 7-style login session (persistent Miss
// table, deliberately under-predicted check estimate so mispredictions
// occur) and a Fig. 8-style per-block RSA decryption. A policy family whose
// schedule grows slower than doubling (bucketed) should land strictly
// between fast-doubling and linear on both axes — the non-trivial frontier
// the report's verdicts check.
//
// The old penalty-policy ablation (per-level vs global Miss sharing on the
// login workload) rides along at the end.
//
//===----------------------------------------------------------------------===//

#include "apps/LoginApp.h"
#include "apps/RsaApp.h"
#include "crypto/ToyRsa.h"
#include "exp/Harness.h"
#include "exp/ParallelRunner.h"
#include "hw/HardwareModels.h"
#include "lang/Parser.h"
#include "obs/LeakAudit.h"
#include "sem/FullInterpreter.h"
#include "support/Diagnostics.h"
#include "types/LabelInference.h"

#include <cinttypes>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

using namespace zam;

namespace {

/// One policy point of the sweep: the parsed policy plus its canonical
/// spec (the report's frontier index).
struct PolicyPoint {
  std::string Spec;
  MitigationPolicyPtr Policy;
};

/// Parses \p Specs, dying on any malformed entry (they are compiled in).
std::vector<PolicyPoint> makePoints(const std::vector<std::string> &Specs) {
  std::vector<PolicyPoint> Points;
  for (const std::string &Spec : Specs) {
    std::string Err;
    MitigationPolicyPtr P = parseMitigationPolicy(Spec, &Err);
    if (!P)
      reportFatalError(("pareto_sweep: bad policy spec: " + Err).c_str());
    Points.push_back({P->spec(), std::move(P)});
  }
  return Points;
}

/// One policy point's measurement on one workload.
struct FrontierRow {
  double BoundBits = 0;    ///< Σ log2 N_i(T_i), the policy's own account.
  double PadOverhead = 0;  ///< Σ padded duration / Σ body time.
  double Distinct = 0;     ///< Empirically distinguishable durations.
  double TotalCycles = 0;  ///< End-to-end cycles (for e2e overheads).
};

//===----------------------------------------------------------------------===//
// Workload 1: the mitigated-sleep secret sweep (fresh schedule per secret)
//===----------------------------------------------------------------------===//

FrontierRow sweepWorkload(const SecurityLattice &Lat,
                          const MitigationPolicy &Policy) {
  DiagnosticEngine Diags;
  std::optional<Program> P = parseProgram(
      "var h : H;\nvar l : L;\nmitigate (64, H) { sleep(h) @[H,H] };\nl := 1",
      Lat, Diags);
  inferTimingLabels(*P);

  PolicySelection Sel;
  Sel.Default = &Policy;
  LeakAudit Audit(Lat, std::nullopt, Sel);

  FrontierRow Row;
  std::set<uint64_t> Durations;
  uint64_t Padded = 0, Body = 0;
  for (int64_t H = 0; H <= 40000; H += 997) {
    auto Env = createMachineEnv(HwKind::Partitioned, Lat);
    InterpreterOptions Opts;
    Opts.Mitigation = Sel;
    FullInterpreter Interp(*P, *Env, Opts);
    Interp.memory().store("h", H);
    RunResult R = Interp.run();
    Audit.ingest(R.T);
    Durations.insert(R.T.Mitigations[0].Duration);
    Padded += R.T.Mitigations[0].Duration;
    Body += R.T.Mitigations[0].BodyTime;
    Row.TotalCycles += static_cast<double>(R.T.FinalTime);
  }
  Row.BoundBits = Audit.totalBitsBound();
  Row.PadOverhead = static_cast<double>(Padded) / static_cast<double>(Body);
  Row.Distinct = static_cast<double>(Durations.size());
  return Row;
}

//===----------------------------------------------------------------------===//
// Workload 2: Fig. 7-style login session (persistent Miss table)
//===----------------------------------------------------------------------===//

constexpr unsigned LoginAttempts = 60;

FrontierRow loginWorkload(const SecurityLattice &Lat, const LoginTable &Table,
                          const LoginProgramConfig &Config,
                          const MitigationPolicy &Policy) {
  Program P = buildLoginProgram(Lat, Table, Config);
  auto Env = createMachineEnv(HwKind::Partitioned, Lat);

  PolicySelection Sel;
  Sel.Default = &Policy;
  InterpreterOptions Opts;
  Opts.Mitigation = Sel;
  // A server session: one machine environment and one Miss table across
  // the attempts, exactly like LoginSession.
  MitigationState St(Lat, Sel.base(), Opts.Penalty);
  Opts.SharedMitState = &St;
  LeakAudit Audit(Lat, std::nullopt, Sel);

  FrontierRow Row;
  std::set<uint64_t> Durations;
  uint64_t Padded = 0, Body = 0;
  for (unsigned I = 0; I != LoginAttempts; ++I) {
    RunResult R = runFull(
        P, *Env,
        [&](Memory &M) {
          setLoginRequest(M, "user" + std::to_string(I),
                          "pass" + std::to_string(I));
        },
        Opts);
    Audit.ingest(R.T);
    for (const MitigateRecord &M : R.T.Mitigations) {
      Durations.insert(M.Duration);
      Padded += M.Duration;
      Body += M.BodyTime;
    }
    Row.TotalCycles += static_cast<double>(R.T.FinalTime);
  }
  Row.BoundBits = Audit.totalBitsBound();
  Row.PadOverhead = static_cast<double>(Padded) / static_cast<double>(Body);
  Row.Distinct = static_cast<double>(Durations.size());
  return Row;
}

//===----------------------------------------------------------------------===//
// Workload 3: Fig. 8-style per-block RSA decryption
//===----------------------------------------------------------------------===//

constexpr unsigned RsaMessages = 6;
constexpr unsigned RsaBlocks = 2;
constexpr unsigned RsaModulusBits = 31;

FrontierRow rsaWorkload(const SecurityLattice &Lat, const RsaKey &Key,
                        int64_t Estimate,
                        const std::vector<std::vector<uint64_t>> &Msgs,
                        const MitigationPolicy &Policy) {
  RsaProgramConfig Config;
  Config.Mode = RsaMitigationMode::PerBlock;
  Config.Estimate = Estimate;
  Config.MaxBlocks = RsaBlocks;
  auto Env = createMachineEnv(HwKind::Partitioned, Lat);

  PolicySelection Sel;
  Sel.Default = &Policy;
  InterpreterOptions Opts;
  Opts.Mitigation = Sel;
  RsaSession Session(Lat, Key, Config, *Env, Opts);
  LeakAudit Audit(Lat, std::nullopt, Sel);

  FrontierRow Row;
  std::set<uint64_t> Durations;
  uint64_t Padded = 0, Body = 0;
  for (const std::vector<uint64_t> &Msg : Msgs) {
    RsaDecryptResult R = Session.decrypt(Msg);
    Audit.ingest(R.T);
    for (const MitigateRecord &M : R.T.Mitigations) {
      Durations.insert(M.Duration);
      Padded += M.Duration;
      Body += M.BodyTime;
    }
    Row.TotalCycles += static_cast<double>(R.Cycles);
  }
  Row.BoundBits = Audit.totalBitsBound();
  Row.PadOverhead = static_cast<double>(Padded) / static_cast<double>(Body);
  Row.Distinct = static_cast<double>(Durations.size());
  return Row;
}

//===----------------------------------------------------------------------===//
// Frontier shape check
//===----------------------------------------------------------------------===//

/// True when some bucketed point sits strictly between fast-doubling and
/// linear on BOTH axes: more bits bound than doubling but fewer than
/// linear, and less padding than doubling but more than linear.
bool frontierNontrivial(const std::vector<PolicyPoint> &Points,
                        const std::vector<FrontierRow> &Rows) {
  const FrontierRow *Doubling = nullptr, *Linear = nullptr;
  for (size_t I = 0; I != Points.size(); ++I) {
    if (Points[I].Spec == "fast-doubling")
      Doubling = &Rows[I];
    if (Points[I].Spec == "linear")
      Linear = &Rows[I];
  }
  if (!Doubling || !Linear)
    return false;
  for (size_t I = 0; I != Points.size(); ++I) {
    if (Points[I].Policy->name() != std::string("bucketed"))
      continue;
    const FrontierRow &B = Rows[I];
    if (B.BoundBits > Doubling->BoundBits && B.BoundBits < Linear->BoundBits &&
        B.PadOverhead < Doubling->PadOverhead &&
        B.PadOverhead > Linear->PadOverhead)
      return true;
  }
  return false;
}

void printFrontier(const char *Title, const std::vector<PolicyPoint> &Points,
                   const std::vector<FrontierRow> &Rows) {
  std::printf("\n-- %s --\n", Title);
  std::printf("  %-20s %12s %12s %10s\n", "policy", "bound bits",
              "pad overhead", "distinct");
  for (size_t I = 0; I != Points.size(); ++I)
    std::printf("  %-20s %12.3f %11.3fx %10.0f\n", Points[I].Spec.c_str(),
                Rows[I].BoundBits, Rows[I].PadOverhead, Rows[I].Distinct);
}

void addFrontierSeries(Report &R, const std::string &Prefix,
                       const std::vector<FrontierRow> &Rows) {
  std::vector<double> Bound, Overhead, Distinct;
  for (const FrontierRow &Row : Rows) {
    Bound.push_back(Row.BoundBits);
    Overhead.push_back(Row.PadOverhead);
    Distinct.push_back(Row.Distinct);
  }
  R.addSeries(Prefix + "/bound_bits", Bound);
  R.addSeries(Prefix + "/pad_overhead", Overhead);
  R.addSeries(Prefix + "/distinct_durations", Distinct);
}

} // namespace

int main(int Argc, char **Argv) {
  HarnessOptions Harness =
      parseHarnessArgs(Argc, Argv, TakesThreads | TakesJson | TakesProgress);
  if (!Harness.Ok)
    return 2;
  ParallelRunner Runner(Harness.Threads);

  TwoPointLattice Lat;

  // --- Workload setup (deterministic; fixed seeds). ---
  Rng TableRng(2254078);
  LoginTable Table = makeLoginTable(100, 50, TableRng);
  Rng CalRng(7);
  auto CalEnv = createMachineEnv(HwKind::Partitioned, Lat);
  auto [E1, E2] = calibrateLoginEstimates(Lat, Table, *CalEnv, 30, CalRng);
  // Under-predict the check mitigate so mispredictions occur and the
  // schedules can actually differ (a perfectly calibrated session never
  // leaves the initial prediction and every policy coincides).
  LoginProgramConfig LoginConfig;
  LoginConfig.Mitigated = true;
  LoginConfig.Estimate1 = E1 / 2;
  LoginConfig.Estimate2 = E2 / 4;

  Rng KeyRng(1001), MsgRng(3003), RsaCalRng(4004);
  RsaKey Key = generateRsaKey(KeyRng, RsaModulusBits);
  std::vector<std::vector<uint64_t>> Msgs;
  for (unsigned I = 0; I != RsaMessages; ++I) {
    std::vector<uint64_t> Msg;
    for (unsigned B = 0; B != RsaBlocks; ++B)
      Msg.push_back(rsaEncryptBlock(Key, MsgRng.nextBelow(Key.N)));
    Msgs.push_back(std::move(Msg));
  }
  auto RsaCalEnv = createMachineEnv(HwKind::Partitioned, Lat);
  int64_t RsaEst = calibrateRsaEstimate(Lat, Key, *RsaCalEnv, 4, RsaCalRng,
                                        RsaBlocks);
  // The RSA sweep runs the *uncalibrated* configuration (initial estimate
  // 1, the language default): per-block modexp bodies are near-constant,
  // so a calibrated estimate settles every policy onto the same rung and
  // the frontier degenerates. From estimate 1 each schedule must climb its
  // own ladder to the body time, which separates the policies: doubling
  // overshoots to the next power of two, bucketed lands within 1+1/q, the
  // linear ladder tracks the body exactly. The calibrated estimate still
  // seeds the profile-seeded point.
  int64_t RsaUnder = 1;
  std::printf("login estimates (calibrated, then under-predicted): "
              "lookup=%" PRId64 " check=%" PRId64 "\n",
              LoginConfig.Estimate1, LoginConfig.Estimate2);
  std::printf("rsa per-block estimate: calibrated=%" PRId64
              " (seeded point), swept at %" PRId64 "\n",
              RsaEst, RsaUnder);

  // --- The policy points: ≥3 policies, the bucketed family at 3 quanta,
  // and a profile-seeded point per workload (the floor chosen from the
  // workload's own body-time scale, as `zamc profile --recommend` would).
  const std::vector<std::string> BaseSpecs = {
      "fast-doubling", "bucketed:q=2", "bucketed:q=4", "bucketed:q=8",
      "linear"};
  auto withSeeded = [&](int64_t Floor) {
    std::vector<std::string> Specs = BaseSpecs;
    Specs.push_back("seeded:est=" + std::to_string(Floor));
    return makePoints(Specs);
  };
  std::vector<PolicyPoint> SweepPoints = withSeeded(40001);
  std::vector<PolicyPoint> LoginPoints = withSeeded(E2);
  std::vector<PolicyPoint> RsaPoints = withSeeded(RsaEst);

  // --- The sweep proper: every policy point independent, fanned out.
  // The meter ticks from worker threads (stderr only; report bytes are
  // submission-order reduced and unaffected).
  ProgressMeter Progress(
      "pareto_sweep",
      SweepPoints.size() + LoginPoints.size() + RsaPoints.size(),
      Harness.Progress);
  std::vector<FrontierRow> SweepRows =
      Runner.map(SweepPoints.size(), [&](size_t I) {
        FrontierRow Row = sweepWorkload(Lat, *SweepPoints[I].Policy);
        Progress.tick();
        return Row;
      });
  std::vector<FrontierRow> LoginRows =
      Runner.map(LoginPoints.size(), [&](size_t I) {
        FrontierRow Row =
            loginWorkload(Lat, Table, LoginConfig, *LoginPoints[I].Policy);
        Progress.tick();
        return Row;
      });
  std::vector<FrontierRow> RsaRows =
      Runner.map(RsaPoints.size(), [&](size_t I) {
        FrontierRow Row =
            rsaWorkload(Lat, Key, RsaUnder, Msgs, *RsaPoints[I].Policy);
        Progress.tick();
        return Row;
      });

  std::printf("\n=== mitigation-policy Pareto sweep: leakage bound vs"
              " padding ===\n");
  printFrontier("mitigated sleep, 41 secrets, fresh schedule each",
                SweepPoints, SweepRows);
  printFrontier("fig7 login, 60 attempts, persistent schedule", LoginPoints,
                LoginRows);
  printFrontier("fig8 RSA, 6 messages x 2 blocks", RsaPoints, RsaRows);

  bool SweepFrontier = frontierNontrivial(SweepPoints, SweepRows);
  bool LoginFrontier = frontierNontrivial(LoginPoints, LoginRows);
  bool RsaFrontier = frontierNontrivial(RsaPoints, RsaRows);
  std::printf("\nnon-trivial frontier (a bucketed point strictly between"
              " doubling and linear\non both axes): sweep %s, login %s,"
              " rsa %s\n",
              SweepFrontier ? "YES" : "no", LoginFrontier ? "YES" : "no",
              RsaFrontier ? "YES" : "no");

  // --- Penalty-policy ablation (kept from the scheme-ablation bench). ---
  std::printf("\n=== penalty-policy ablation (login, partitioned hw) ===\n");
  double PenaltyAvg[2] = {0, 0};
  unsigned PenaltyMisses[2] = {0, 0};
  for (PenaltyPolicy Penalty :
       {PenaltyPolicy::PerLevel, PenaltyPolicy::Global}) {
    auto Env = createMachineEnv(HwKind::Partitioned, Lat);
    InterpreterOptions Opts;
    Opts.Penalty = Penalty;
    LoginSession S(Lat, Table, LoginConfig, *Env, Opts);
    uint64_t Sum = 0;
    for (unsigned I = 0; I != LoginAttempts; ++I)
      Sum += S.attempt("user" + std::to_string(I), "x").Cycles;
    unsigned Idx = Penalty == PenaltyPolicy::PerLevel ? 0 : 1;
    PenaltyAvg[Idx] = static_cast<double>(Sum) / LoginAttempts;
    PenaltyMisses[Idx] = S.mitigationState().misses(Lat.top());
    std::printf("  %-10s avg attempt %8.0f cycles, H-level misses %u\n",
                Idx == 0 ? "per-level" : "global", PenaltyAvg[Idx],
                PenaltyMisses[Idx]);
  }
  std::printf("(on a two-point lattice both policies share one counter for"
              " H; they\ndiverge on deeper lattices — see"
              " tests/mitigation_test.cpp)\n");

  Report R("pareto_sweep");
  std::vector<double> PolicyIndex;
  for (size_t I = 0; I != SweepPoints.size(); ++I)
    PolicyIndex.push_back(static_cast<double>(I));
  R.setIndex("policy", PolicyIndex);
  for (size_t I = 0; I != SweepPoints.size(); ++I) {
    R.setText("policy/" + std::to_string(I), SweepPoints[I].Spec);
    R.setText("policy_login/" + std::to_string(I), LoginPoints[I].Spec);
    R.setText("policy_rsa/" + std::to_string(I), RsaPoints[I].Spec);
  }
  addFrontierSeries(R, "sweep", SweepRows);
  addFrontierSeries(R, "fig7_login", LoginRows);
  addFrontierSeries(R, "fig8_rsa", RsaRows);
  R.setScalar("login_estimate_lookup",
              static_cast<double>(LoginConfig.Estimate1));
  R.setScalar("login_estimate_check",
              static_cast<double>(LoginConfig.Estimate2));
  R.setScalar("rsa_estimate", static_cast<double>(RsaUnder));
  R.setScalar("penalty_per_level_avg_cycles", PenaltyAvg[0]);
  R.setScalar("penalty_global_avg_cycles", PenaltyAvg[1]);
  R.setVerdict("sweep_frontier_nontrivial", SweepFrontier);
  R.setVerdict("fig7_frontier_nontrivial", LoginFrontier);
  R.setVerdict("fig8_frontier_nontrivial", RsaFrontier);

  std::printf("\n%s", R.renderSummary().c_str());
  if (!emitReportJson(R, Harness))
    return 2;
  return (SweepFrontier && LoginFrontier && RsaFrontier) ? 0 : 1;
}

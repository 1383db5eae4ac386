//===- adversary_gate.cpp - Empirical adversary vs analytic bounds ---------===//
//
// The observability gate for the Sec. 6 leakage story: a black-box
// statistical adversary (src/adv) attacks the two case-study workloads —
// the Fig. 7 login and the Fig. 8 RSA decryption — in mitigated and
// unmitigated form, on all three hardware designs.
//
// For every cell the gate samples N seeded executions with secrets drawn
// from two classes (login: requested user present/absent; RSA: two private
// exponents), runs the leak detector (Welch's t, Cohen's d, Miller–Madow
// mutual information) on the adversary-projected timings, and holds the
// results to the paper's claims:
//
//   - unmitigated variants must be DETECTED at overwhelming significance
//     (p <= 1e-9 and |t| >= 5): the timing attack works;
//   - mitigated variants must stay within the analytic Sec. 6 bound:
//     empirical mi_bits <= leak.total_bits_bound of the same runs.
//
// Every number is derived from deterministic cycle counts with fixed seeds
// and submission-order reduction, so the --json report is byte-identical
// at any --threads setting and diffable against the committed
// BENCH_adversary.json baseline in CI.
//
//===----------------------------------------------------------------------===//

#include "adv/Adversary.h"
#include "adv/LeakDetector.h"
#include "apps/LoginApp.h"
#include "apps/RsaApp.h"
#include "exp/Harness.h"
#include "hw/HardwareModels.h"
#include "obs/Telemetry.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

using namespace zam;

namespace {

constexpr uint64_t kDefaultSeed = 0xAD5EED;
constexpr unsigned kDefaultSamples = 64;

/// The significance bar for "the attack works": p <= 1e-9 (the detector
/// default) and an effect at least 5 pooled standard errors wide.
constexpr double kMinAbsT = 5.0;

struct CellResult {
  std::string Prefix; ///< "<design>.<workload>.<variant>."
  DetectorResult D;
  bool Pass = false;
};

void printCell(const CellResult &C, const char *Check) {
  std::printf("  %-28s t=%11.3f  log10(p)=%9.2f  d=%8.3f  "
              "mi=%.6f bits  bound=%.6f bits  [%s] %s\n",
              C.Prefix.c_str(), C.D.TStat, C.D.PValueLog10, C.D.CohensD,
              C.D.MiBits, C.D.AnalyticBoundBits, Check,
              C.Pass ? "ok" : "FAIL");
}

/// One attack cell: stream observations through the bounded-memory
/// collector (compact detector rows only; the full window lists are kept
/// solely for the representative cell a trace was requested for), run the
/// detector, export the prefixed adv.* metrics into the report.
CellResult runCell(Report &R, const std::string &Prefix, const Program &P,
                   const MachineEnv &Env,
                   const std::vector<SecretClassSpec> &Classes,
                   unsigned Samples, uint64_t Seed,
                   const ParallelRunner &Runner, ProgressMeter &Progress,
                   std::vector<Observation> *KeepObs = nullptr) {
  AttackOptions AOpts;
  AOpts.Samples = Samples;
  AOpts.Seed = Seed;
  InterpreterOptions IOpts;
  std::vector<CompactObservation> Compact;
  Compact.reserve(Samples);
  streamObservations(P, Env, Classes, AOpts, IOpts, Runner,
                     [&](const Observation &O, size_t) {
                       Compact.push_back({O.ClassIndex, O.EndToEnd,
                                          O.BoundBits});
                       if (KeepObs)
                         KeepObs->push_back(O);
                       Progress.tick();
                     });
  std::vector<std::string> Names;
  for (const SecretClassSpec &C : Classes)
    Names.push_back(C.Name);
  CellResult Cell;
  Cell.Prefix = Prefix;
  Cell.D = detectLeak(Compact, Names);
  exportDetectorMetrics(R.metrics(), Cell.D, Prefix);
  return Cell;
}

/// Maximum unpadded modexp body time over a spread of ciphertexts and both
/// candidate exponents. The RSA estimate must cover the worst body so the
/// mitigated run never mispredicts — a misprediction would re-open a
/// (bounded, but measurable) timing difference between the key classes,
/// and the gate wants the clean "mitigated carries ~0 empirical bits"
/// reproduction.
int64_t maxRsaBodyTime(const SecurityLattice &Lat, const RsaKey &Key,
                       const std::vector<int64_t> &Exponents,
                       const MachineEnv &EnvTemplate, unsigned Samples,
                       uint64_t Seed) {
  RsaProgramConfig Probe;
  Probe.Mode = RsaMitigationMode::PerBlock;
  Probe.Estimate = int64_t(1) << 40; // Never mispredicts; body time is exact.
  Probe.MaxBlocks = 1;
  Program P = buildRsaProgram(Lat, Key, Probe);
  int64_t MaxBody = 1;
  Rng R(Seed);
  for (unsigned I = 0; I != Samples; ++I) {
    for (int64_t D : Exponents) {
      std::unique_ptr<MachineEnv> Env = EnvTemplate.clone();
      uint64_t C = 2 + R.nextBelow(Key.N - 2);
      RunResult RR = runFull(P, *Env, [&](Memory &M) {
        M.store("d", D);
        setRsaMessage(M, {C});
      });
      for (const MitigateRecord &W : RR.T.Mitigations)
        MaxBody = std::max(MaxBody, static_cast<int64_t>(W.BodyTime));
    }
  }
  return MaxBody;
}

} // namespace

int main(int Argc, char **Argv) {
  HarnessOptions Harness = parseHarnessArgs(
      Argc, Argv,
      TakesThreads | TakesJson | TakesTrace | TakesSeed | TakesSamples |
          TakesProgress);
  if (!Harness.Ok)
    return 2;
  ParallelRunner Runner(Harness.Threads);
  const uint64_t Seed = Harness.seedOr(kDefaultSeed);
  const unsigned Samples = Harness.Samples.value_or(kDefaultSamples);

  TwoPointLattice Lat;
  const HwKind Designs[3] = {HwKind::NoPartition, HwKind::NoFill,
                             HwKind::Partitioned};

  // --- Workload 1: the Fig. 7 login. Secret classes: the requested
  // username is present in (vs absent from) the credential table. The
  // table itself is fixed across samples; the per-sample Rng picks which
  // account (or which ghost name) the adversary-observed request probes.
  Rng TableRng(2254078);
  const unsigned NumValid = 10;
  LoginTable Table = makeLoginTable(100, NumValid, TableRng);

  std::vector<SecretClassSpec> LoginClasses(2);
  LoginClasses[0].Name = "present";
  LoginClasses[0].Prepare = [&Table, NumValid](Memory &M, Rng &R) {
    uint64_t J = R.nextBelow(NumValid);
    setLoginRequest(M, Table.ValidUsernames[J], "pass" + std::to_string(J));
  };
  LoginClasses[1].Name = "absent";
  LoginClasses[1].Prepare = [](Memory &M, Rng &R) {
    uint64_t J = R.nextBelow(1000000);
    setLoginRequest(M, "ghost" + std::to_string(J), "pw");
  };

  // --- Workload 2: the Fig. 8 RSA decryption, one block. Secret classes:
  // two candidate private exponents (a second generated key supplies the
  // alternative); the per-sample Rng draws the ciphertext.
  Rng KeyRng(Seed ^ 0x52534131);
  RsaKey KeyA = generateRsaKey(KeyRng, 31);
  RsaKey KeyB = generateRsaKey(KeyRng, 31);
  std::printf("rsa keys: n=%" PRIu64 " dA=%" PRIu64 " dB=%" PRIu64 "\n", KeyA.N,
              KeyA.D, KeyB.D);

  std::vector<SecretClassSpec> RsaClasses(2);
  RsaClasses[0].Name = "keyA";
  RsaClasses[0].Fixed = {{"d", static_cast<int64_t>(KeyA.D)}};
  RsaClasses[1].Name = "keyB";
  RsaClasses[1].Fixed = {{"d", static_cast<int64_t>(KeyB.D)}};
  for (SecretClassSpec &C : RsaClasses)
    C.Prepare = [&KeyA](Memory &M, Rng &R) {
      setRsaMessage(M, {2 + R.nextBelow(KeyA.N - 2)});
    };

  Report R("adversary_gate");
  R.setScalar("samples_per_cell", Samples);
  R.setScalar("seed", static_cast<double>(Seed));
  std::vector<Observation> RepresentativeObs; // partitioned/login/mit.

  bool AllPass = true;
  std::printf("\n=== empirical adversary vs analytic bounds "
              "(%u samples/cell, seed 0x%" PRIx64 ") ===\n",
              Samples, Seed);

  // 3 designs × 4 cells, one meter across the whole gate (stderr only).
  ProgressMeter Progress("adversary_gate", 12ull * Samples,
                         Harness.Progress);

  for (HwKind Kind : Designs) {
    const std::string Design = hwKindName(Kind);
    auto Env = createMachineEnv(Kind, Lat);
    std::printf("\n-- %s --\n", Design.c_str());

    // Login calibration is per-design: initial predictions at 110% of the
    // worst sampled body on THIS hardware, fixed before the secret request
    // is drawn (Sec. 8.2), so the schedule cannot encode the secret and
    // steady state never mispredicts.
    Rng CalibRng(7);
    auto [E1, E2] = calibrateLoginEstimates(Lat, Table, *Env, 30, CalibRng);
    LoginProgramConfig Mit;
    Mit.Mitigated = true;
    Mit.Estimate1 = E1;
    Mit.Estimate2 = E2;
    LoginProgramConfig Unmit;
    Unmit.Mitigated = false;
    Program LoginMit = buildLoginProgram(Lat, Table, Mit);
    Program LoginUnmit = buildLoginProgram(Lat, Table, Unmit);

    // RSA calibration likewise: the estimate covers the worst body over
    // both candidate exponents so the per-block mitigate never mispredicts.
    RsaProgramConfig RsaMitCfg;
    RsaMitCfg.Mode = RsaMitigationMode::PerBlock;
    RsaMitCfg.MaxBlocks = 1;
    RsaMitCfg.Estimate =
        (maxRsaBodyTime(Lat, KeyA,
                        {static_cast<int64_t>(KeyA.D),
                         static_cast<int64_t>(KeyB.D)},
                        *Env, 8, Seed ^ 0xCA11B) *
         5 + 3) / 4; // 125% of the worst sampled body.
    RsaProgramConfig RsaUnmitCfg;
    RsaUnmitCfg.Mode = RsaMitigationMode::Unmitigated;
    RsaUnmitCfg.MaxBlocks = 1;
    Program RsaMit = buildRsaProgram(Lat, KeyA, RsaMitCfg);
    Program RsaUnmit = buildRsaProgram(Lat, KeyA, RsaUnmitCfg);

    struct CellSpec {
      const char *Workload;
      const char *Variant;
      const Program *P;
      const std::vector<SecretClassSpec> *Classes;
      bool WantDetected;
    };
    const CellSpec Cells[4] = {
        {"login", "mit", &LoginMit, &LoginClasses, false},
        {"login", "unmit", &LoginUnmit, &LoginClasses, true},
        {"rsa", "mit", &RsaMit, &RsaClasses, false},
        {"rsa", "unmit", &RsaUnmit, &RsaClasses, true},
    };

    for (const CellSpec &Spec : Cells) {
      std::string Prefix =
          Design + "." + Spec.Workload + "." + Spec.Variant + ".";
      bool Keep = Kind == HwKind::Partitioned && !Spec.WantDetected &&
                  std::string(Spec.Workload) == "login";
      CellResult Cell =
          runCell(R, Prefix, *Spec.P, *Env, *Spec.Classes, Samples, Seed,
                  Runner, Progress, Keep ? &RepresentativeObs : nullptr);
      if (Spec.WantDetected) {
        // The attack must work: overwhelming significance, large effect.
        Cell.Pass = Cell.D.LeakDetected &&
                    std::abs(Cell.D.TStat) >= kMinAbsT &&
                    Cell.D.PValueLog10 <= kDetectPValueLog10;
        printCell(Cell, "unmit: detect");
      } else {
        // The mitigation must hold: what the adversary measured carries no
        // more bits than the Sec. 6 analysis promised.
        Cell.Pass = Cell.D.MiBits <= Cell.D.AnalyticBoundBits;
        printCell(Cell, "mit: mi<=bound");
      }
      R.setVerdict(Prefix + "pass", Cell.Pass);
      AllPass &= Cell.Pass;
    }
  }

  std::printf("\n=== adversary gate: %s ===\n",
              AllPass ? "all cells pass (unmitigated variants detected, "
                        "mitigated variants within their analytic bounds)"
                      : "FAILED — see cells marked FAIL above");

  // Representative observation trace (partitioned/login/mit) for offline
  // inspection: zamtrace report reruns the detector over it.
  if (!Harness.TraceOutPath.empty() &&
      !writeTraceFile(Harness, PolicySelection(),
                      {{"attack_samples", std::to_string(Samples)},
                       {"attack_seed", std::to_string(Seed)},
                       {"attack_classes", "present,absent"}},
                      [&](TraceSink &Sink) {
                        return exportObservations(Sink, RepresentativeObs,
                                                  {"present", "absent"});
                      }))
    return 2;

  if (!emitReportJson(R, Harness))
    return 2;
  return AllPass ? 0 : 1;
}

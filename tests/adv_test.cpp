//===- adv_test.cpp - The statistical adversary subsystem -----------------===//
//
// Part of the zam project test suite: src/adv. The special functions
// against known values, the detector over synthetic bags (separated,
// identical, degenerate), the Miller–Madow correction and its entropy
// clamp, the collector's thread-count byte-identity, mitigated vs
// unmitigated end-to-end detection, and the LeakAudit adversary-projection
// edge cases (adversary at lattice top / bottom, zero-window runs).
//
//===----------------------------------------------------------------------===//

#include "adv/Adversary.h"
#include "adv/LeakDetector.h"
#include "obs/LeakAudit.h"
#include "obs/Telemetry.h"
#include "obs/TraceSink.h"
#include "types/LabelInference.h"

#include "TestUtil.h"

#include <cmath>
#include <set>

using namespace zam;
using namespace zam::test;

namespace {

// --- Special functions ---------------------------------------------------

TEST(AdvMath, LgammaKnownValues) {
  // Γ(1) = Γ(2) = 1, Γ(5) = 24, Γ(1/2) = sqrt(pi).
  EXPECT_NEAR(advLgamma(1.0), 0.0, 1e-13);
  EXPECT_NEAR(advLgamma(2.0), 0.0, 1e-13);
  EXPECT_NEAR(advLgamma(5.0), std::log(24.0), 1e-12);
  EXPECT_NEAR(advLgamma(0.5), 0.5 * std::log(M_PI), 1e-13);
  EXPECT_NEAR(advLgamma(10.5), std::lgamma(10.5), 1e-10);
}

TEST(AdvMath, IncompleteBetaEndpointsAndSymmetry) {
  // I_x(a,b): I_0 = 0 (log10 -> very negative), I_1 = 1 (log10 -> 0).
  EXPECT_NEAR(regularizedIncompleteBetaLog10(2.0, 3.0, 1.0), 0.0, 1e-12);
  // I_1/2(a,a) = 1/2 for any a.
  EXPECT_NEAR(regularizedIncompleteBetaLog10(4.0, 4.0, 0.5),
              std::log10(0.5), 1e-12);
}

TEST(AdvMath, WelchPValueTable) {
  // t = 0: p = 1, log10 = 0.
  EXPECT_NEAR(welchPValueLog10(0.0, 10.0), 0.0, 1e-12);
  // Student t table: df=10, two-sided p = 0.05 at t = 2.228.
  EXPECT_NEAR(welchPValueLog10(2.228, 10.0), std::log10(0.05), 2e-3);
  // df=30, p = 0.01 at t = 2.750.
  EXPECT_NEAR(welchPValueLog10(2.750, 30.0), std::log10(0.01), 2e-3);
  // Far tail stays finite and clamps at the sentinel.
  EXPECT_GE(welchPValueLog10(1e6, 30.0), kDegeneratePValueLog10);
  EXPECT_EQ(welchPValueLog10(1e300, 5.0), kDegeneratePValueLog10);
}

// --- Detector over synthetic observation bags ----------------------------

std::vector<Observation> bagOf(const std::vector<uint64_t> &A,
                               const std::vector<uint64_t> &B) {
  std::vector<Observation> Obs;
  for (uint64_t T : A)
    Obs.push_back({0, T, {}, 0.0});
  for (uint64_t T : B)
    Obs.push_back({1, T, {}, 0.0});
  return Obs;
}

TEST(LeakDetector, SeparatedClassesDetected) {
  auto Obs = bagOf({100, 101, 102, 103, 100, 101, 102, 103},
                   {200, 201, 202, 203, 200, 201, 202, 203});
  DetectorResult D = detectLeak(Obs, {"a", "b"});
  EXPECT_TRUE(D.LeakDetected);
  EXPECT_LT(D.TStat, 0.0); // Mean(a) < mean(b); t = a - b side.
  EXPECT_LE(D.PValueLog10, kDetectPValueLog10);
  // Full separation: MI = H(class) = 1 bit.
  EXPECT_NEAR(D.MiBits, 1.0, 1e-12);
  EXPECT_EQ(D.DistinctTimings, 8u);
}

TEST(LeakDetector, IdenticalClassesNotDetected) {
  auto Obs = bagOf({100, 101, 102, 103}, {100, 101, 102, 103});
  DetectorResult D = detectLeak(Obs, {"a", "b"});
  EXPECT_FALSE(D.LeakDetected);
  EXPECT_NEAR(D.TStat, 0.0, 1e-12);
  EXPECT_NEAR(D.PValueLog10, 0.0, 1e-12);
  EXPECT_NEAR(D.MiBits, 0.0, 1e-12);
}

TEST(LeakDetector, DegenerateConstantClassesUseSentinels) {
  // Two disjoint constants: zero variance, different means.
  auto Obs = bagOf({500, 500, 500, 500}, {900, 900, 900, 900});
  DetectorResult D = detectLeak(Obs, {"a", "b"});
  EXPECT_TRUE(D.LeakDetected);
  EXPECT_EQ(std::abs(D.TStat), kDegenerateTStat);
  EXPECT_EQ(D.PValueLog10, kDegeneratePValueLog10);
  EXPECT_NEAR(D.MiBits, 1.0, 1e-12);

  // Equal constants: no evidence at all.
  auto Same = bagOf({500, 500, 500}, {500, 500, 500});
  DetectorResult S = detectLeak(Same, {"a", "b"});
  EXPECT_FALSE(S.LeakDetected);
  EXPECT_EQ(S.TStat, 0.0);
  EXPECT_EQ(S.PValueLog10, 0.0);
}

TEST(LeakDetector, MillerMadowClampsToClassEntropy) {
  // Every sample a distinct timing: the plug-in estimate saturates at
  // H(class) = 1 bit and the corrected value must stay in [0, 1].
  auto Obs = bagOf({1, 2, 3, 4}, {5, 6, 7, 8});
  DetectorResult D = detectLeak(Obs, {"a", "b"});
  EXPECT_NEAR(D.MiPluginBits, 1.0, 1e-12);
  EXPECT_LE(D.MiBits, 1.0 + 1e-12);
  EXPECT_GE(D.MiBits, 0.0);
}

TEST(LeakDetector, MaxPairSelectedDeterministically) {
  // Three classes; the separated pair (0, 2) must be chosen.
  std::vector<Observation> Obs;
  for (uint64_t T : {100, 101, 102, 103})
    Obs.push_back({0, T, {}, 0.0});
  for (uint64_t T : {104, 105, 106, 107})
    Obs.push_back({1, T, {}, 0.0});
  for (uint64_t T : {400, 401, 402, 403})
    Obs.push_back({2, T, {}, 0.0});
  DetectorResult D = detectLeak(Obs, {"a", "b", "c"});
  EXPECT_EQ(D.PairA, 0u);
  EXPECT_EQ(D.PairB, 2u);
}

TEST(LeakDetector, AnalyticBoundIsMaxOverObservations) {
  std::vector<Observation> Obs = bagOf({10, 11}, {12, 13});
  Obs[1].BoundBits = 2.5;
  Obs[3].BoundBits = 1.25;
  DetectorResult D = detectLeak(Obs, {"a", "b"});
  EXPECT_EQ(D.AnalyticBoundBits, 2.5);
}

TEST(LeakDetector, MetricsExportShape) {
  auto Obs = bagOf({100, 101, 102, 103}, {200, 201, 202, 203});
  DetectorResult D = detectLeak(Obs, {"a", "b"});
  MetricsRegistry Reg;
  exportDetectorMetrics(Reg, D, "x.");
  EXPECT_EQ(Reg.counterValue("x.adv.samples"), 8u);
  EXPECT_EQ(Reg.counterValue("x.adv.classes"), 2u);
  EXPECT_EQ(Reg.gaugeValue("x.adv.verdict"), 1.0);
  EXPECT_EQ(Reg.gaugeValue("x.adv.mi_bits"), D.MiBits);
  EXPECT_EQ(Reg.gaugeValue("x.adv.p_value_log10"), D.PValueLog10);
}

// --- Collector: determinism and end-to-end detection ---------------------

const char *kSweepSource = R"(
var h : H;
var l : L;
mitigate (64, H) {
  sleep(h) @[H, H]
};
l := 1
)";

const char *kUnmitSource = R"(
var h : H;
var l : L;
sleep(h) @[H, H];
l := 1
)";

/// Parses and label-infers a runnable program (attack deliberately skips
/// type checking: attackers measure insecure programs too).
Program parsed(const std::string &Source) {
  Program P = parseOrDie(Source);
  inferTimingLabels(P);
  return P;
}

std::vector<SecretClassSpec> twoRangeClasses() {
  std::vector<SecretClassSpec> Classes(2);
  Classes[0].Name = "small";
  Classes[0].Ranges = {{"h", 1, 40}};
  Classes[1].Name = "large";
  Classes[1].Ranges = {{"h", 600, 700}};
  return Classes;
}

TEST(Collector, ByteIdenticalAcrossThreadCounts) {
  Program P = parsed(kSweepSource);
  auto Env = createMachineEnv(HwKind::Partitioned, lh());
  AttackOptions Opts;
  Opts.Samples = 24;
  Opts.Seed = 1234;
  std::vector<std::vector<Observation>> Bags;
  for (unsigned Threads : {1u, 2u, 8u}) {
    ParallelRunner Runner(Threads);
    Bags.push_back(collectObservations(P, *Env, twoRangeClasses(), Opts,
                                       InterpreterOptions(), Runner));
  }
  for (size_t I = 1; I < Bags.size(); ++I) {
    ASSERT_EQ(Bags[0].size(), Bags[I].size());
    for (size_t J = 0; J < Bags[0].size(); ++J) {
      EXPECT_EQ(Bags[0][J].ClassIndex, Bags[I][J].ClassIndex);
      EXPECT_EQ(Bags[0][J].EndToEnd, Bags[I][J].EndToEnd);
      EXPECT_EQ(Bags[0][J].Windows, Bags[I][J].Windows);
      EXPECT_EQ(Bags[0][J].BoundBits, Bags[I][J].BoundBits);
    }
  }
  // And the serialized trace bytes agree too.
  std::string Dumps[2];
  for (unsigned I = 0; I != 2; ++I) {
    std::unique_ptr<TraceSink> Sink = makeTraceSink(TraceFormat::Jsonl);
    Sink->header({});
    exportObservations(*Sink, Bags[I], {"small", "large"});
    Dumps[I] = Sink->finish();
  }
  EXPECT_EQ(Dumps[0], Dumps[1]);
}

/// The clone-per-sample loop written out: sample I runs on a fresh clone
/// of \p Template with its own Rng, no events retained, audited by
/// replay. streamObservations restores one env per worker slice instead
/// and must produce exactly this bag.
std::vector<Observation>
cloneEverySample(const Program &P, const MachineEnv &Template,
                 const std::vector<SecretClassSpec> &Classes,
                 const AttackOptions &Opts) {
  InterpreterOptions RunOpts;
  RunOpts.RetainEvents = false;
  std::vector<Observation> Out;
  for (size_t I = 0; I != Opts.Samples; ++I) {
    const SecretClassSpec &Spec = Classes[I % Classes.size()];
    Rng R(sampleSeed(Opts.Seed, I));
    std::unique_ptr<MachineEnv> Env = Template.clone();
    FullInterpreter Interp(P, *Env, RunOpts);
    for (const auto &[Var, Value] : Spec.Fixed)
      Interp.memory().store(Var, Value);
    for (const SecretClassSpec::Range &Rg : Spec.Ranges)
      Interp.memory().store(Rg.Var, R.nextInRange(Rg.Lo, Rg.Hi));
    RunResult RR = Interp.run();
    LeakAudit Audit(P.lattice(), Opts.Adversary);
    Audit.ingest(RR.T);
    Observation &O = Out.emplace_back();
    O.ClassIndex = static_cast<uint32_t>(I % Classes.size());
    O.EndToEnd = RR.T.FinalTime;
    for (const LeakWindow &W : Audit.windows())
      O.Windows.push_back(W.Duration);
    O.BoundBits = Audit.totalBitsBound();
  }
  return Out;
}

TEST(Collector, RestoredEnvsMatchACloneEverySample) {
  Program P = parsed(kSweepSource);
  AttackOptions Opts;
  // Crosses a chunk boundary; a multiple of neither the chunk nor any
  // slice size.
  Opts.Samples = static_cast<unsigned>(kObservationChunk + 37);
  Opts.Seed = 4321;
  Opts.Adversary = low();
  for (HwKind Kind : allHwKinds()) {
    const auto Template = warmTemplate(Kind, 77);
    const std::vector<Observation> Expected =
        cloneEverySample(P, *Template, twoRangeClasses(), Opts);
    for (unsigned Threads : {1u, 2u, 8u}) {
      const std::vector<Observation> Got =
          collectObservations(P, *Template, twoRangeClasses(), Opts,
                              InterpreterOptions(), ParallelRunner(Threads));
      ASSERT_EQ(Got.size(), Expected.size());
      for (size_t I = 0; I != Got.size(); ++I) {
        SCOPED_TRACE(std::string(hwKindName(Kind)) + ", " +
                     std::to_string(Threads) + " threads, sample " +
                     std::to_string(I));
        ASSERT_EQ(Got[I].ClassIndex, Expected[I].ClassIndex);
        ASSERT_EQ(Got[I].EndToEnd, Expected[I].EndToEnd);
        ASSERT_EQ(Got[I].Windows, Expected[I].Windows);
        ASSERT_EQ(Got[I].BoundBits, Expected[I].BoundBits);
      }
    }
  }
}

/// A probe whose samples differ in more than their clock: the window
/// count follows the drawn n, the class's fixed k stretches every window
/// after the first, and the windows of one run share (and grow) the run's
/// own Miss table, so a sample's mispredictions depend on its inputs.
const char *kLoopSource = R"(
var h : H;
var k : H;
var n : L;
var i : L;
var l : L;
while (i < n) do {
  mitigate (16, H) {
    sleep(h + k * i) @[H, H]
  };
  i := i + 1
};
l := 1
)";

std::vector<SecretClassSpec> loopClasses() {
  std::vector<SecretClassSpec> Classes(2);
  Classes[0].Name = "flat";
  Classes[0].Fixed = {{"k", 0}};
  Classes[0].Ranges = {{"h", 1, 40}, {"n", 0, 3}};
  Classes[1].Name = "growing";
  Classes[1].Fixed = {{"k", 70}};
  Classes[1].Ranges = {{"h", 10, 300}, {"n", 1, 5}};
  return Classes;
}

TEST(Collector, RestartedInterpretersMatchAFreshOneEverySample) {
  Program P = parsed(kLoopSource);
  AttackOptions Opts;
  Opts.Samples = 301;
  Opts.Seed = 8765;
  Opts.Adversary = low();
  for (HwKind Kind : allHwKinds()) {
    const auto Template = warmTemplate(Kind, 79);
    const std::vector<Observation> Expected =
        cloneEverySample(P, *Template, loopClasses(), Opts);
    // The probe is only worth its name if the samples do differ.
    std::set<size_t> WindowCounts;
    std::set<uint64_t> Durations;
    for (const Observation &O : Expected) {
      WindowCounts.insert(O.Windows.size());
      Durations.insert(O.Windows.begin(), O.Windows.end());
    }
    ASSERT_GE(WindowCounts.size(), 4u);
    ASSERT_GE(Durations.size(), 4u);
    for (unsigned Threads : {1u, 2u, 8u}) {
      const std::vector<Observation> Got =
          collectObservations(P, *Template, loopClasses(), Opts,
                              InterpreterOptions(), ParallelRunner(Threads));
      ASSERT_EQ(Got.size(), Expected.size());
      for (size_t I = 0; I != Got.size(); ++I) {
        SCOPED_TRACE(std::string(hwKindName(Kind)) + ", " +
                     std::to_string(Threads) + " threads, sample " +
                     std::to_string(I));
        ASSERT_EQ(Got[I].ClassIndex, Expected[I].ClassIndex);
        ASSERT_EQ(Got[I].EndToEnd, Expected[I].EndToEnd);
        ASSERT_EQ(Got[I].Windows, Expected[I].Windows);
        ASSERT_EQ(Got[I].BoundBits, Expected[I].BoundBits);
      }
    }
  }
}

TEST(Collector, RejectsAnArrayInputNamingIt) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Program P = parsed("var h : H;\nvar a : H[4];\nh := a[1]\n");
  std::vector<SecretClassSpec> Classes = twoRangeClasses();
  Classes[1].Fixed = {{"a", 3}};
  const auto Env = createMachineEnv(HwKind::NoPartition, lh());
  AttackOptions Opts;
  Opts.Samples = 4;
  EXPECT_DEATH(collectObservations(P, *Env, Classes, Opts,
                                   InterpreterOptions(), ParallelRunner(1)),
               "'a' is an array, not a scalar input");
  Classes[1].Fixed = {{"nope", 3}};
  EXPECT_DEATH(collectObservations(P, *Env, Classes, Opts,
                                   InterpreterOptions(), ParallelRunner(1)),
               "no variable 'nope'");
}

TEST(Collector, SampleSeedMixesIndices) {
  EXPECT_NE(sampleSeed(7, 0), sampleSeed(7, 1));
  EXPECT_NE(sampleSeed(7, 0), sampleSeed(8, 0));
}

TEST(Collector, UnmitigatedLeakDetectedMitigatedBounded) {
  auto Env = createMachineEnv(HwKind::Partitioned, lh());
  ParallelRunner Runner(1);
  AttackOptions Opts;
  Opts.Samples = 32;
  Opts.Seed = 99;

  Program Unmit = parsed(kUnmitSource);
  auto UnmitObs = collectObservations(Unmit, *Env, twoRangeClasses(), Opts,
                                      InterpreterOptions(), Runner);
  DetectorResult DU = detectLeak(UnmitObs, {"small", "large"});
  EXPECT_TRUE(DU.LeakDetected);
  EXPECT_EQ(DU.AnalyticBoundBits, 0.0); // No mitigate windows at all.
  EXPECT_GT(DU.MiBits, 0.5);

  Program Mit = parsed(kSweepSource);
  auto MitObs = collectObservations(Mit, *Env, twoRangeClasses(), Opts,
                                    InterpreterOptions(), Runner);
  DetectorResult DM = detectLeak(MitObs, {"small", "large"});
  // The mitigated run may still be distinguishable (fast-doubling leaks a
  // bounded number of bits), but the empirical estimate must respect the
  // analytic account.
  EXPECT_GT(DM.AnalyticBoundBits, 0.0);
  EXPECT_LE(DM.MiBits, DM.AnalyticBoundBits);
}

// --- LeakAudit adversary-projection edge cases (online == ingest) --------

/// Runs kSweepSource once and audits it at \p Adversary, both by replaying
/// the finished trace and through the online onWindow hook; the two
/// accounts must agree bit-for-bit.
std::pair<double, size_t> auditAt(std::optional<Label> Adversary) {
  Program P = parsed(kSweepSource);
  auto Env = createMachineEnv(HwKind::Partitioned, lh());

  LeakAudit Online(lh(), Adversary);
  InterpreterOptions Opts;
  Opts.OnMitigateWindow = [&](const MitigateRecord &R) {
    Online.onWindow(R);
  };
  RunResult RR =
      runFull(P, *Env, [](Memory &M) { M.store("h", 700); }, Opts);

  LeakAudit Replay(lh(), Adversary);
  Replay.ingest(RR.T);
  EXPECT_EQ(Online.totalBitsBound(), Replay.totalBitsBound());
  EXPECT_EQ(Online.windows().size(), Replay.windows().size());
  return {Replay.totalBitsBound(), Replay.windows().size()};
}

TEST(AdvProjection, AdversaryAtTopSeesNoWindows) {
  // lev(M) = H ⊑ H = ℓA: the window carries nothing the top adversary
  // does not already know. Zero windows, zero bound.
  auto [Bits, Windows] = auditAt(high());
  EXPECT_EQ(Windows, 0u);
  EXPECT_EQ(Bits, 0.0);
}

TEST(AdvProjection, AdversaryAtBottomCountsAll) {
  // pc = L ⊑ L and lev = H ⋢ L: counted. Must equal the conservative
  // any-observer account on this single-window program.
  auto [BotBits, BotWindows] = auditAt(low());
  auto [AnyBits, AnyWindows] = auditAt(std::nullopt);
  EXPECT_EQ(BotWindows, 1u);
  EXPECT_GT(BotBits, 0.0);
  EXPECT_EQ(BotBits, AnyBits);
  EXPECT_EQ(BotWindows, AnyWindows);
}

TEST(AdvProjection, ZeroWindowRunHasZeroBound) {
  Program P = parsed("var l : L;\nl := 41;\nl := l + 1");
  auto Env = createMachineEnv(HwKind::Partitioned, lh());
  RunResult RR = runFull(P, *Env);
  for (std::optional<Label> Adv :
       {std::optional<Label>(), std::optional<Label>(low()),
        std::optional<Label>(high())}) {
    LeakAudit Audit(lh(), Adv);
    Audit.ingest(RR.T);
    EXPECT_EQ(Audit.windows().size(), 0u);
    EXPECT_EQ(Audit.totalBitsBound(), 0.0);
  }
}

TEST(AdvProjection, CollectorHonoursAdversaryLevel) {
  // The same bag collected at adversary H must carry no windows and a
  // zero bound in every observation, while the bottom/conservative runs
  // carry the mitigate window.
  Program P = parsed(kSweepSource);
  auto Env = createMachineEnv(HwKind::Partitioned, lh());
  ParallelRunner Runner(1);
  AttackOptions Opts;
  Opts.Samples = 8;
  Opts.Seed = 5;
  Opts.Adversary = high();
  auto Top = collectObservations(P, *Env, twoRangeClasses(), Opts,
                                 InterpreterOptions(), Runner);
  for (const Observation &O : Top) {
    EXPECT_TRUE(O.Windows.empty());
    EXPECT_EQ(O.BoundBits, 0.0);
  }
  Opts.Adversary = low();
  auto Bot = collectObservations(P, *Env, twoRangeClasses(), Opts,
                                 InterpreterOptions(), Runner);
  for (const Observation &O : Bot) {
    EXPECT_EQ(O.Windows.size(), 1u);
    EXPECT_GT(O.BoundBits, 0.0);
  }
}

} // namespace

//===- leakage_test.cpp - Quantitative leakage machinery (Secs. 6-7) -------===//

#include "analysis/Leakage.h"

#include "hw/HardwareModels.h"
#include "obs/LeakAudit.h"
#include "obs/Telemetry.h"
#include "obs/TraceReader.h"
#include "sem/FullInterpreter.h"
#include "types/LabelInference.h"
#include "types/TypeChecker.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>

using namespace zam;
using namespace zam::test;

namespace {
Program wellTyped(const std::string &Source,
                  const SecurityLattice &Lat = lh()) {
  Program P = parseOrDie(Source, Lat);
  inferTimingLabels(P);
  DiagnosticEngine Diags;
  EXPECT_TRUE(typeCheck(P, Diags)) << Diags.str();
  return P;
}

LeakageSpec highSecretSweep(std::initializer_list<int64_t> Values) {
  LeakageSpec Spec;
  Spec.SourceLevels = LabelSet(lh(), {high()});
  Spec.Adversary = low();
  for (int64_t V : Values)
    Spec.Variations.push_back(SecretAssignment{{{"h", V}}, {}});
  return Spec;
}
} // namespace

TEST(LeakageBound, ClosedForm) {
  // |LeA↑| · log2(K+1) · (1 + log2 T).
  EXPECT_DOUBLE_EQ(leakageBoundBits(1, 0, 1000), 0.0); // K = 0 ⇒ no leak.
  EXPECT_DOUBLE_EQ(leakageBoundBits(1, 1, 1024), 1.0 * 1.0 * 11.0);
  EXPECT_DOUBLE_EQ(leakageBoundBits(2, 3, 1024), 2.0 * 2.0 * 11.0);
  // Polylogarithmic in T: doubling T adds one bit per (level × log(K+1)).
  double B1 = leakageBoundBits(1, 1, 1 << 20);
  double B2 = leakageBoundBits(1, 1, 1 << 21);
  EXPECT_DOUBLE_EQ(B2 - B1, 1.0);
}

TEST(Leakage, UnmitigatedSleepLeaksEverything) {
  // Without mitigation the adversary distinguishes every secret value via
  // the final low assignment's timestamp. (The program is deliberately
  // ill-typed — no mitigate — so we bypass the checker.)
  Program P = parseOrDie("var h : H;\nvar l : L;\nsleep(h); l := 1");
  inferTimingLabels(P);
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), MachineEnvConfig());
  LeakageResult R =
      measureLeakage(P, *Env, highSecretSweep({0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(R.DistinctObservations, 8u);
  EXPECT_DOUBLE_EQ(R.QBits, 3.0);
}

TEST(Leakage, MitigatedSleepLeaksAtMostScheduleBits) {
  Program P = wellTyped("var h : H;\nvar l : L;\n"
                        "mitigate (1, H) { sleep(h) @[H,H] };\nl := 1");
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), MachineEnvConfig());
  LeakageResult R =
      measureLeakage(P, *Env, highSecretSweep({0, 1, 2, 3, 4, 5, 6, 7}));
  // Secrets 0..7 after the entry overhead collapse onto very few
  // power-of-two durations.
  EXPECT_LT(R.DistinctObservations, 8u);
  EXPECT_TRUE(R.TheoremTwoHolds);
  EXPECT_EQ(R.RelevantMitigates, 1u);
}

// Regression: observation keys were formatted into a fixed 96-byte buffer,
// so a long low variable cut off the value and time, and two different
// observations collapsed into one key (Q undercounted).
TEST(Leakage, LongVariableNamesKeepObservationsDistinct) {
  const std::string Name(100, 'v');
  auto keyOf = [&Name](int64_t V) {
    Program P = parseOrDie("var " + Name + " : L;\n" + Name +
                           " := " + std::to_string(V));
    inferTimingLabels(P);
    auto Env =
        createMachineEnv(HwKind::Partitioned, lh(), MachineEnvConfig());
    return runFull(P, *Env).T.observationKey(low(), lh());
  };
  const std::string K1 = keyOf(1), K2 = keyOf(2);
  EXPECT_NE(K1, K2);
  EXPECT_EQ(K1.compare(0, Name.size(), Name), 0) << K1;

  // Definition 1 over a secret copied into the long-named low variable
  // (deliberately ill-typed, so the checker is bypassed): two secrets, two
  // observations.
  Program P = parseOrDie("var h : H;\nvar " + Name + " : L;\n" + Name +
                         " := h");
  inferTimingLabels(P);
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), MachineEnvConfig());
  LeakageResult R = measureLeakage(P, *Env, highSecretSweep({1, 2}));
  EXPECT_EQ(R.DistinctObservations, 2u);
  EXPECT_DOUBLE_EQ(R.QBits, 1.0);
}

namespace {
/// Definition 1 the long way: every variation runs on a fresh clone of
/// \p Template through runFull, and the runs reduce as measureLeakage
/// documents. measureLeakage restores one env per worker slice instead,
/// and must measure exactly this.
LeakageResult cloneEveryVariation(const Program &P,
                                  const MachineEnv &Template,
                                  const LeakageSpec &Spec) {
  const SecurityLattice &Lat = P.lattice();
  const LabelSet Up =
      unobservableUpwardClosure(Lat, Spec.SourceLevels, Spec.Adversary);
  LeakageResult R;
  R.MitigatesLowDeterministic = true;
  std::map<std::string, unsigned> Observations;
  std::set<std::string> TimingVectors;
  std::vector<unsigned> FirstIdentity;
  for (const SecretAssignment &A : Spec.Variations) {
    auto Env = Template.clone();
    const RunResult RR = runFull(P, *Env, [&](Memory &M) {
      for (const auto &[Var, Value] : A.Scalars)
        M.store(Var, Value);
    });
    ++Observations[RR.T.observationKey(Spec.Adversary, Lat)];
    TimingVectors.insert(timingVectorKey(RR.T, Lat, Up));
    const std::vector<unsigned> Identity =
        mitigateIdentityProjection(RR.T, Up);
    if (&A == &Spec.Variations.front())
      FirstIdentity = Identity;
    else if (Identity != FirstIdentity)
      R.MitigatesLowDeterministic = false;
    R.MaxFinalTime = std::max(R.MaxFinalTime, RR.T.FinalTime);
    uint64_t Relevant = 0;
    for (const MitigateRecord &MR : RR.T.Mitigations)
      Relevant += !Up.contains(MR.PcLabel) && Up.contains(MR.Level);
    R.RelevantMitigates = std::max(R.RelevantMitigates, Relevant);
  }
  R.DistinctObservations = Observations.size();
  R.QBits = std::log2(static_cast<double>(Observations.size()));
  for (const auto &[Key, Count] : Observations) {
    const double Prob = static_cast<double>(Count) /
                        static_cast<double>(Spec.Variations.size());
    R.ShannonBits -= Prob * std::log2(Prob);
  }
  R.MinEntropyBits = R.QBits;
  R.DistinctTimingVectors = TimingVectors.size();
  R.VBits = std::log2(static_cast<double>(TimingVectors.size()));
  R.TheoremTwoHolds = R.DistinctObservations <= R.DistinctTimingVectors;
  R.ClosedFormBoundBits =
      InterpreterOptions().Mitigation.base().closedFormBoundBits(
          Up.count(), R.RelevantMitigates, R.MaxFinalTime);
  return R;
}
} // namespace

// A slice's env is restored from the template before every variation, so
// no run sees the lines an earlier run of its slice left behind. The probe
// reads secret-indexed lines of an 8 KiB array, inside and after a
// mitigate, on warm templates that hold its first 4 KiB (loaded at ⊥ as
// well, since nofill installs nothing for warmTemplate's stores at ⊤).
TEST(Leakage, RestoredSlicesMatchAFreshCloneEveryVariation) {
  Program P = parseOrDie("var h : H;\nvar l : L;\nvar t : H;\n"
                         "var a : H[1024];\n"
                         "mitigate (32, H) { t := a[h * 40] + a[h * 56] };\n"
                         "t := a[h * 24];\n"
                         "l := 1");
  inferTimingLabels(P);
  LeakageSpec Spec = highSecretSweep({});
  for (int64_t H = 0; H != 48; ++H)
    Spec.Variations.push_back(SecretAssignment{{{"h", H}}, {}});
  for (HwKind Kind : allHwKinds()) {
    SCOPED_TRACE(hwKindName(Kind));
    const auto Template = warmTemplate(Kind, 80);
    for (Addr A = 0x10000000; A != 0x10000000 + 4096; A += 32)
      Template->dataAccess(A, /*IsStore=*/false, low(), low());
    const LeakageResult Expected = cloneEveryVariation(P, *Template, Spec);
    // The probe is only worth its name if the variations do differ.
    ASSERT_GE(Expected.DistinctObservations, 4u);
    for (unsigned Threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(std::to_string(Threads) + " threads");
      const LeakageResult Got =
          measureLeakage(P, *Template, Spec, InterpreterOptions(), Threads);
      EXPECT_EQ(Got.DistinctObservations, Expected.DistinctObservations);
      EXPECT_EQ(Got.QBits, Expected.QBits);
      EXPECT_EQ(Got.ShannonBits, Expected.ShannonBits);
      EXPECT_EQ(Got.MinEntropyBits, Expected.MinEntropyBits);
      EXPECT_EQ(Got.DistinctTimingVectors, Expected.DistinctTimingVectors);
      EXPECT_EQ(Got.VBits, Expected.VBits);
      EXPECT_EQ(Got.TheoremTwoHolds, Expected.TheoremTwoHolds);
      EXPECT_EQ(Got.MitigatesLowDeterministic,
                Expected.MitigatesLowDeterministic);
      EXPECT_EQ(Got.MaxFinalTime, Expected.MaxFinalTime);
      EXPECT_EQ(Got.RelevantMitigates, Expected.RelevantMitigates);
      EXPECT_EQ(Got.ClosedFormBoundBits, Expected.ClosedFormBoundBits);
    }
  }
}

// A variation names its variables; one that names an array as a scalar,
// a scalar as an array, or nothing at all aborts naming it instead of
// writing past a check that release builds skip.
TEST(Leakage, VariationOfTheWrongKindAbortsNamingTheVariable) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Program P = wellTyped("var a : H[4];\nvar h : H;\nvar l : L;\nl := 1");
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), MachineEnvConfig());
  LeakageSpec Spec = highSecretSweep({});
  Spec.Variations.push_back(SecretAssignment{{{"a", 1}}, {}});
  EXPECT_DEATH(measureLeakage(P, *Env, Spec),
               "measureLeakage: 'a' is an array, not a scalar input");
  Spec.Variations.back() = SecretAssignment{{}, {{"h", {1}}}};
  EXPECT_DEATH(measureLeakage(P, *Env, Spec),
               "measureLeakage: 'h' is a scalar, not an array input");
  Spec.Variations.back() = SecretAssignment{{{"nope", 1}}, {}};
  EXPECT_DEATH(measureLeakage(P, *Env, Spec),
               "measureLeakage: no variable 'nope'");
}

TEST(Leakage, NoSecretsNoObservations) {
  Program P = wellTyped("var h : H;\nvar l : L;\nl := 3");
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), MachineEnvConfig());
  LeakageResult R = measureLeakage(P, *Env, highSecretSweep({1, 2, 3}));
  EXPECT_EQ(R.DistinctObservations, 1u);
  EXPECT_DOUBLE_EQ(R.QBits, 0.0);
  EXPECT_EQ(R.RelevantMitigates, 0u);
  EXPECT_DOUBLE_EQ(R.ClosedFormBoundBits, 0.0);
}

TEST(Leakage, HighMitigatesAreExcludedFromTheProjection) {
  // A mitigate whose pc is high (inside if h) is not part of the
  // Definition 2 projection; only the outer low-context one counts.
  Program P = wellTyped(
      "var h : H;\nvar l : L;\n"
      "mitigate (1, H) {\n"
      "  if h then { mitigate (1, H) { h := h + 1 } } else { skip }\n"
      "};\nl := 1");
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), MachineEnvConfig());
  LeakageResult R = measureLeakage(P, *Env, highSecretSweep({0, 1}));
  EXPECT_EQ(R.RelevantMitigates, 1u);
  EXPECT_TRUE(R.MitigatesLowDeterministic);
}

TEST(Leakage, TimingVectorKeyProjection) {
  Trace T;
  MitigateRecord LowCtx;
  LowCtx.Eta = 0;
  LowCtx.PcLabel = low();
  LowCtx.Level = high();
  LowCtx.Duration = 64;
  MitigateRecord HighCtx = LowCtx;
  HighCtx.Eta = 1;
  HighCtx.PcLabel = high();
  HighCtx.Duration = 32;
  MitigateRecord LowLevel = LowCtx;
  LowLevel.Eta = 2;
  LowLevel.Level = low();
  LowLevel.Duration = 16;
  T.Mitigations = {LowCtx, HighCtx, LowLevel};

  LabelSet Up = unobservableUpwardClosure(
      lh(), LabelSet(lh(), {high()}), low()); // = {H}.
  std::string Key = timingVectorKey(T, lh(), Up);
  // Only LowCtx (pc ∉ {H}, lev ∈ {H}) contributes.
  EXPECT_EQ(Key, "64;");

  std::vector<unsigned> Ids = mitigateIdentityProjection(T, Up);
  EXPECT_EQ(Ids, (std::vector<unsigned>{0, 2}));
}

TEST(Leakage, SecretVariationOutsideUpwardSetAborts) {
  Program P = wellTyped("var h : H;\nvar l : L;\nl := 1");
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), MachineEnvConfig());
  LeakageSpec Spec;
  Spec.SourceLevels = LabelSet(lh(), {high()});
  Spec.Adversary = low();
  // Varying the *low* variable is outside LeA↑ — the analysis must refuse.
  Spec.Variations.push_back(SecretAssignment{{{"l", 5}}, {}});
  EXPECT_DEATH(measureLeakage(P, *Env, Spec), "outside LeA");
}

// A replayed mitigate span whose numeric field does not parse fails the
// replay with an error naming the span and the key; it never reads as 0.
TEST(Leakage, ReplayRejectsMalformedSpanFields) {
  const SecurityLattice &Lat = lh();
  Program P = wellTyped("var h : H = 9;\nmitigate (64, H) { sleep(h) };\n");
  auto Env = createMachineEnv(HwKind::Partitioned, Lat, MachineEnvConfig());
  RunResult R = runFull(P, *Env);
  auto Sink = makeTraceSink(TraceFormat::Jsonl);
  exportTrace(*Sink, R.T, Lat);
  const std::string Good = Sink->finish();

  auto Replay = [&](const std::string &Bytes, std::string &Err) {
    std::FILE *F = std::tmpfile();
    EXPECT_NE(F, nullptr);
    std::fwrite(Bytes.data(), 1, Bytes.size(), F);
    std::rewind(F);
    JsonlTraceReader Reader(F, /*TakeOwnership=*/true);
    LeakAudit Audit(Lat);
    return Audit.replay(Reader, Err);
  };
  std::string Err;
  ASSERT_TRUE(Replay(Good, Err)) << Err;

  // Each corruption replaces one field of the mitigate span.
  const std::pair<std::string, std::string> Cases[] = {
      {"\"mitigate#0\"", "\"mitigate#x\""},
      {"\"estimate\":64", "\"estimate\":\"64k\""},
      {"\"consumed\":", "\"consumed\":-"},
      {"\"loc\":2", "\"loc\":\"two\""},
  };
  const char *Keys[] = {"eta", "estimate", "consumed", "loc"};
  for (size_t I = 0; I != std::size(Cases); ++I) {
    const auto &[From, To] = Cases[I];
    const size_t At = Good.find(From);
    ASSERT_NE(At, std::string::npos) << From;
    std::string Bad = Good;
    Bad.replace(At, From.size(), To);
    Err.clear();
    EXPECT_FALSE(Replay(Bad, Err)) << Keys[I];
    EXPECT_NE(Err.find("'mitigate#"), std::string::npos) << Err;
    EXPECT_NE(Err.find(std::string("'") + Keys[I] + "'"), std::string::npos)
        << Err;
  }
}

TEST(Leakage, ArraySecretsSupported) {
  Program P = wellTyped("var a : H[4];\nvar h : H;\nvar l : L;\n"
                        "mitigate (8, H) { h := a[0] + a[1] @[H,H] };\n"
                        "l := 1");
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), MachineEnvConfig());
  LeakageSpec Spec;
  Spec.SourceLevels = LabelSet(lh(), {high()});
  Spec.Adversary = low();
  Spec.Variations.push_back(
      SecretAssignment{{}, {{"a", {1, 2, 3, 4}}}});
  Spec.Variations.push_back(
      SecretAssignment{{}, {{"a", {4, 3, 2, 1}}}});
  LeakageResult R = measureLeakage(P, *Env, Spec);
  EXPECT_TRUE(R.TheoremTwoHolds);
}

TEST(Leakage, MisdeliveredAdversarySeesEverythingAtTop) {
  // An adversary at ⊤ observes all assignments, but then no level counts
  // as secret (LeA = ∅): Q measures flows from nothing, hence 0.
  // (The low assignment precedes the high one: T-ASGN raises τ to Γ(x).)
  Program P = wellTyped("var h : H;\nvar l : L;\nl := 2; h := 1");
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), MachineEnvConfig());
  LeakageSpec Spec;
  Spec.SourceLevels = LabelSet(lh(), {high()});
  Spec.Adversary = high();
  Spec.Variations.push_back(SecretAssignment{});
  LeakageResult R = measureLeakage(P, *Env, Spec);
  EXPECT_EQ(R.DistinctObservations, 1u);
}

//===----------------------------------------------------------------------===//
// Entropy-based measures (Definition 1 bounds them)
//===----------------------------------------------------------------------===//

TEST(Leakage, ShannonIsBoundedByQAndMinEntropyEqualsQ) {
  // Deterministic channel, uniform prior: I(S;O) = H(O) ≤ log2 |O| = Q,
  // and min-entropy leakage equals Q exactly — the Sec. 6.2 remark that the
  // counting measure "bounds those of Shannon entropy and min-entropy".
  Program P = parseOrDie("var h : H;\nvar l : L;\nsleep(h & 3); l := 1");
  inferTimingLabels(P);
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), MachineEnvConfig());
  // Eight secrets folding onto four timing classes (h & 3), non-uniformly
  // keyed so H(O) < log2 |O| would only happen with unequal classes; here
  // classes are equal-sized, so H(O) = Q.
  LeakageResult R = measureLeakage(P, *Env,
                                   highSecretSweep({0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(R.DistinctObservations, 4u);
  EXPECT_DOUBLE_EQ(R.QBits, 2.0);
  EXPECT_DOUBLE_EQ(R.MinEntropyBits, R.QBits);
  EXPECT_LE(R.ShannonBits, R.QBits + 1e-12);
  EXPECT_DOUBLE_EQ(R.ShannonBits, 2.0); // Equal-sized classes.
}

TEST(Leakage, ShannonStrictlyBelowQForSkewedClasses) {
  Program P = parseOrDie("var h : H;\nvar l : L;\nsleep(h / 7); l := 1");
  inferTimingLabels(P);
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), MachineEnvConfig());
  // Secrets 0..6 collapse to one class; 7 forms its own: skewed 7:1 split.
  LeakageResult R = measureLeakage(P, *Env,
                                   highSecretSweep({0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(R.DistinctObservations, 2u);
  EXPECT_DOUBLE_EQ(R.QBits, 1.0);
  EXPECT_LT(R.ShannonBits, R.QBits); // H(7/8, 1/8) ≈ 0.54 bits.
  EXPECT_NEAR(R.ShannonBits, 0.5436, 1e-3);
}

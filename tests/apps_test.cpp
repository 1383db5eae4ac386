//===- apps_test.cpp - The Sec. 8 case-study applications -------------------===//

#include "apps/LoginApp.h"
#include "apps/RsaApp.h"

#include "analysis/PropertyCheckers.h"
#include "crypto/ToyRsa.h"
#include "hw/HardwareModels.h"
#include "types/TypeChecker.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

#include <set>

using namespace zam;
using namespace zam::test;

namespace {
TypeCheckOptions commodity() {
  TypeCheckOptions Opts;
  Opts.RequireEqualTimingLabels = true;
  return Opts;
}
} // namespace

//===----------------------------------------------------------------------===//
// Login (Sec. 8.3)
//===----------------------------------------------------------------------===//

TEST(LoginApp, TableConstruction) {
  Rng R(1);
  LoginTable T = makeLoginTable(100, 10, R);
  EXPECT_EQ(T.UserDigests.size(), 100u);
  EXPECT_EQ(T.PassDigests.size(), 100u);
  EXPECT_EQ(T.ValidUsernames.size(), 10u);
  // Exactly ten occupied slots, with distinct digests.
  std::set<int64_t> Occupied;
  unsigned Empty = 0;
  for (int64_t D : T.UserDigests) {
    if (D == 0)
      ++Empty;
    else
      Occupied.insert(D);
  }
  EXPECT_EQ(Empty, 90u);
  EXPECT_EQ(Occupied.size(), 10u);
}

TEST(LoginApp, FullTableStillConstructs) {
  Rng R(1);
  LoginTable T = makeLoginTable(20, 20, R);
  for (int64_t D : T.UserDigests)
    EXPECT_NE(D, 0);
}

TEST(LoginApp, MitigatedProgramTypeChecks) {
  Rng R(2);
  LoginTable T = makeLoginTable(20, 5, R);
  LoginProgramConfig Config;
  Config.Mitigated = true;
  Config.Estimate1 = 100;
  Config.Estimate2 = 100;
  Program P = buildLoginProgram(lh(), T, Config);
  DiagnosticEngine Diags;
  EXPECT_TRUE(typeCheck(P, Diags, commodity())) << Diags.str();
  EXPECT_EQ(P.numMitigates(), 2u);
}

TEST(LoginApp, UnmitigatedProgramIsRejectedByTheTypeSystem) {
  // "Without a mitigate command, type checking fails at line 11" — the
  // public response assignment after high-timing code.
  Rng R(3);
  LoginTable T = makeLoginTable(20, 5, R);
  LoginProgramConfig Config;
  Config.Mitigated = false;
  Program P = buildLoginProgram(lh(), T, Config);
  DiagnosticEngine Diags;
  EXPECT_FALSE(typeCheck(P, Diags, commodity()));
  EXPECT_NE(Diags.str().find("response"), std::string::npos);
}

TEST(LoginApp, AcceptsValidRejectsInvalidCredentials) {
  Rng R(4);
  LoginTable T = makeLoginTable(20, 5, R);
  LoginProgramConfig Config;
  Config.Mitigated = true;
  Config.Estimate1 = 1;
  Config.Estimate2 = 1;
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), MachineEnvConfig());
  LoginSession S(lh(), T, Config, *Env);
  EXPECT_TRUE(S.attempt("user0", "pass0").Accepted);
  EXPECT_TRUE(S.attempt("user4", "pass4").Accepted);
  EXPECT_FALSE(S.attempt("user0", "wrong").Accepted);  // Bad password.
  EXPECT_FALSE(S.attempt("user7", "pass7").Accepted);  // Not in table.
  EXPECT_FALSE(S.attempt("nobody", "x").Accepted);
}

TEST(LoginApp, UnmitigatedTimingSeparatesValidFromInvalid) {
  // The Bortz-Boneh probe: on unmitigated hardware+software, valid
  // usernames answer in measurably different time than invalid ones.
  Rng R(5);
  LoginTable T = makeLoginTable(50, 10, R);
  LoginProgramConfig Config;
  Config.Mitigated = false;
  auto Env = createMachineEnv(HwKind::NoPartition, lh(), MachineEnvConfig());
  LoginSession S(lh(), T, Config, *Env);
  // Warm up, then measure. A valid username walks its probe chain and
  // verifies the 4-word password digest; an invalid one stops at the first
  // empty slot — so valid attempts are slower (Table 2's shape).
  S.attempt("user1", "p");
  S.attempt("user49x", "p");
  uint64_t Valid = S.attempt("user1", "p").Cycles;
  uint64_t Invalid = S.attempt("user49x", "p").Cycles;
  EXPECT_GT(Valid, Invalid);
}

TEST(LoginApp, MitigatedTimingIsSecretIndependent) {
  // With mitigation on secure hardware, attempt latency does not depend on
  // whether the username is valid (Fig. 7 bottom: curves coincide).
  Rng R(6);
  LoginTable T = makeLoginTable(50, 10, R);
  auto EnvTemplate =
      createMachineEnv(HwKind::Partitioned, lh(), MachineEnvConfig());
  auto [E1, E2] = calibrateLoginEstimates(lh(), T, *EnvTemplate, 20, R);
  LoginProgramConfig Config;
  Config.Mitigated = true;
  Config.Estimate1 = E1;
  Config.Estimate2 = E2;

  // One server session, as in Fig. 7: after the prediction schedule
  // stabilizes (a warm-up covering both a valid and an invalid attempt),
  // every attempt takes identical time regardless of the secret table.
  auto Env = EnvTemplate->clone();
  LoginSession S(lh(), T, Config, *Env);
  S.attempt("user2", "pass2");      // Warm-up: valid path.
  S.attempt("no_such_user", "p");   // Warm-up: invalid path.
  uint64_t Valid = S.attempt("user3", "pass3").Cycles;
  uint64_t Invalid = S.attempt("another_ghost", "p").Cycles;
  uint64_t Valid2 = S.attempt("user7", "x").Cycles; // Valid user, bad pass.
  EXPECT_EQ(Valid, Invalid);
  EXPECT_EQ(Valid, Valid2);
}

TEST(LoginApp, CalibrationProducesUsefulEstimates) {
  Rng R(7);
  LoginTable T = makeLoginTable(50, 10, R);
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), MachineEnvConfig());
  auto [E1, E2] = calibrateLoginEstimates(lh(), T, *Env, 10, R);
  EXPECT_GT(E1, 10); // Covers the probe-chain walk.
  EXPECT_GT(E2, 10); // Covers the 4-word password verification.
  EXPECT_LT(E1, 10'000'000);
  EXPECT_LT(E2, 10'000'000);
}

//===----------------------------------------------------------------------===//
// RSA (Sec. 8.4)
//===----------------------------------------------------------------------===//

namespace {
RsaKey testKey(uint64_t Seed = 11) {
  Rng R(Seed);
  return generateRsaKey(R, 53); // Smaller modulus keeps tests fast.
}
} // namespace

TEST(RsaApp, PerBlockProgramTypeChecks) {
  RsaProgramConfig Config;
  Config.Mode = RsaMitigationMode::PerBlock;
  Config.Estimate = 1000;
  Program P = buildRsaProgram(lh(), testKey(), Config);
  DiagnosticEngine Diags;
  EXPECT_TRUE(typeCheck(P, Diags, commodity())) << Diags.str();
  EXPECT_EQ(P.numMitigates(), 1u);
}

TEST(RsaApp, UnmitigatedProgramIsRejected) {
  RsaProgramConfig Config;
  Config.Mode = RsaMitigationMode::Unmitigated;
  Program P = buildRsaProgram(lh(), testKey(), Config);
  DiagnosticEngine Diags;
  EXPECT_FALSE(typeCheck(P, Diags, commodity()));
}

TEST(RsaApp, WholeRunSystemMitigationIsRejected) {
  // External/system-level mitigation wraps everything in one mitigate; the
  // low per-block progress assignments inside then violate T-ASGN, which is
  // exactly why the language-level mechanism is needed.
  RsaProgramConfig Config;
  Config.Mode = RsaMitigationMode::WholeRun;
  Program P = buildRsaProgram(lh(), testKey(), Config);
  DiagnosticEngine Diags;
  EXPECT_FALSE(typeCheck(P, Diags, commodity()));
}

TEST(RsaApp, InLanguageDecryptionMatchesReference) {
  RsaKey Key = testKey();
  RsaProgramConfig Config;
  Config.Mode = RsaMitigationMode::PerBlock;
  Config.Estimate = 1;
  Config.MaxBlocks = 8;
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), MachineEnvConfig());
  RsaSession S(lh(), Key, Config, *Env);

  Rng R(12);
  std::vector<uint64_t> Cipher;
  std::vector<uint64_t> Plain;
  for (int I = 0; I != 3; ++I) {
    uint64_t Block = R.nextBelow(Key.N);
    Plain.push_back(Block);
    Cipher.push_back(rsaEncryptBlock(Key, Block));
  }
  RsaDecryptResult Res = S.decrypt(Cipher);
  EXPECT_EQ(Res.Plain, Plain);
  EXPECT_EQ(Res.Plain, rsaDecryptBlocks(Key, Cipher));
  EXPECT_EQ(Res.T.Mitigations.size(), 3u); // One mitigate per block.
}

TEST(RsaApp, UnmitigatedTimingDependsOnKey) {
  // Two keys with different Hamming weight / bit length take different
  // time to decrypt the same ciphertext (Fig. 8 top).
  RsaKey K1 = testKey(21);
  RsaKey K2 = testKey(22);
  ASSERT_NE(K1.D, K2.D);
  auto TimeWith = [&](const RsaKey &Key) {
    RsaProgramConfig Config;
    Config.Mode = RsaMitigationMode::Unmitigated;
    Config.MaxBlocks = 4;
    auto Env = createMachineEnv(HwKind::Partitioned, lh(), MachineEnvConfig());
    RsaSession S(lh(), Key, Config, *Env);
    S.decrypt({12345}); // Warm-up run.
    return S.decrypt({12345}).Cycles;
  };
  EXPECT_NE(TimeWith(K1), TimeWith(K2));
}

TEST(RsaApp, MitigatedTimingIsKeyIndependent) {
  // Fig. 8 bottom: mitigated decryption time is a constant independent of
  // the private key. Calibrate once with the larger estimate so both keys
  // land on the same schedule value.
  RsaKey K1 = testKey(21);
  RsaKey K2 = testKey(22);
  auto EnvT = createMachineEnv(HwKind::Partitioned, lh(), MachineEnvConfig());
  Rng R(13);
  int64_t Est = std::max(calibrateRsaEstimate(lh(), K1, *EnvT, 4, R),
                         calibrateRsaEstimate(lh(), K2, *EnvT, 4, R));
  auto TimeWith = [&](const RsaKey &Key) {
    RsaProgramConfig Config;
    Config.Mode = RsaMitigationMode::PerBlock;
    Config.Estimate = Est;
    Config.MaxBlocks = 4;
    auto Env = EnvT->clone();
    RsaSession S(lh(), Key, Config, *Env);
    S.decrypt({999, 1000});
    return S.decrypt({999, 1000}).Cycles;
  };
  EXPECT_EQ(TimeWith(K1), TimeWith(K2));
}

TEST(RsaApp, WholeRunRunsAndDecrypts) {
  // The system-level baseline still computes correctly (it is only
  // rejected by the type system, not broken).
  RsaKey Key = testKey();
  RsaProgramConfig Config;
  Config.Mode = RsaMitigationMode::WholeRun;
  Config.Estimate = 1;
  Config.MaxBlocks = 4;
  auto Env = createMachineEnv(HwKind::Partitioned, lh(), MachineEnvConfig());
  RsaSession S(lh(), Key, Config, *Env);
  uint64_t Block = 424242 % Key.N;
  RsaDecryptResult Res = S.decrypt({rsaEncryptBlock(Key, Block)});
  EXPECT_EQ(Res.Plain[0], Block);
  EXPECT_EQ(Res.T.Mitigations.size(), 1u);
}

//===----------------------------------------------------------------------===//
// Faithfulness of the case-study programs themselves
//===----------------------------------------------------------------------===//

TEST(AppsFaithfulness, LoginProgramSatisfiesAdequacyAndDeterminism) {
  Rng R(99);
  LoginTable T = makeLoginTable(30, 10, R);
  LoginProgramConfig Config;
  Config.Mitigated = true;
  Config.Estimate1 = 2000;
  Config.Estimate2 = 2000;
  Program P = buildLoginProgram(lh(), T, Config);
  // Bake a concrete request into the initial memory via declarations: use
  // the checker API directly on a fresh interpreter pair instead.
  auto Env = createMachineEnv(HwKind::Partitioned, lh());
  PropertyReport Adequacy = checkAdequacy(P, *Env);
  EXPECT_TRUE(Adequacy.Holds) << Adequacy.Detail;
  PropertyReport Det = checkDeterminism(P, *Env);
  EXPECT_TRUE(Det.Holds) << Det.Detail;
}

TEST(AppsFaithfulness, RsaProgramSatisfiesAdequacyAndDeterminism) {
  RsaKey Key = testKey();
  RsaProgramConfig Config;
  Config.Mode = RsaMitigationMode::PerBlock;
  Config.Estimate = 1000;
  Config.MaxBlocks = 2;
  Program P = buildRsaProgram(lh(), Key, Config);
  auto Env = createMachineEnv(HwKind::Partitioned, lh());
  PropertyReport Adequacy = checkAdequacy(P, *Env);
  EXPECT_TRUE(Adequacy.Holds) << Adequacy.Detail;
  PropertyReport Det = checkDeterminism(P, *Env);
  EXPECT_TRUE(Det.Holds) << Det.Detail;
}

TEST(RsaApp, EmptyMessageDecryptsToNothing) {
  RsaKey Key = testKey();
  RsaProgramConfig Config;
  Config.Mode = RsaMitigationMode::PerBlock;
  Config.MaxBlocks = 4;
  auto Env = createMachineEnv(HwKind::Partitioned, lh());
  RsaSession S(lh(), Key, Config, *Env);
  RsaDecryptResult Res = S.decrypt({});
  EXPECT_TRUE(Res.Plain.empty());
  EXPECT_TRUE(Res.T.Mitigations.empty()); // The block loop never entered.
  EXPECT_GT(Res.Cycles, 0u);
}

TEST(LoginApp, SessionAcceptanceIsDeterministic) {
  Rng R(7);
  LoginTable T = makeLoginTable(20, 5, R);
  LoginProgramConfig Config;
  Config.Mitigated = true;
  Config.Estimate1 = 1;
  Config.Estimate2 = 1;
  auto Env = createMachineEnv(HwKind::Partitioned, lh());
  LoginSession S(lh(), T, Config, *Env);
  for (int I = 0; I != 3; ++I) {
    EXPECT_TRUE(S.attempt("user3", "pass3").Accepted);
    EXPECT_FALSE(S.attempt("user3", "pass4").Accepted);
  }
}

// The session restarts one interpreter for every attempt; each attempt
// must equal a fresh interpreter's run over a copy of the same env and
// Miss table, including across mispredictions and a schedule reset.
TEST(LoginApp, SessionAttemptsMatchFreshInterpreters) {
  Rng R(12);
  LoginTable T = makeLoginTable(30, 12, R);
  LoginProgramConfig Config;
  Config.Mitigated = true;
  Config.Estimate1 = 200;
  Config.Estimate2 = 50;
  for (HwKind Kind : allHwKinds()) {
    SCOPED_TRACE(hwKindName(Kind));
    auto Env = createMachineEnv(Kind, lh());
    auto FreshEnv = Env->clone();
    LoginSession S(lh(), T, Config, *Env);
    const CompiledProgram C(S.program());
    MitigationState Miss(lh(), fastDoublingPolicy(), PenaltyPolicy::PerLevel);
    InterpreterOptions Opts;
    Opts.SharedMitState = &Miss;
    Opts.RetainEvents = false;
    for (unsigned I = 0; I != 24; ++I) {
      SCOPED_TRACE("attempt " + std::to_string(I));
      if (I == 13) {
        S.resetMitigation();
        Miss.reset();
      }
      const std::string User = I % 3 ? "user" + std::to_string(I % 14)
                                     : "ghost" + std::to_string(I);
      const std::string Pass = "pass" + std::to_string(I % 5 ? I % 14 : 99);
      const LoginAttemptResult Got = S.attempt(User, Pass);
      FullInterpreter Fresh(C, *FreshEnv, Opts);
      setLoginRequest(Fresh.memory(), User, Pass);
      const RunResult Want = Fresh.run();
      EXPECT_EQ(Got.Cycles, Want.T.FinalTime);
      EXPECT_EQ(Got.Accepted, Want.FinalMemory.load("ok") == 1);
      for (Label L : {lh().bottom(), lh().top()})
        EXPECT_EQ(S.mitigationState().misses(L), Miss.misses(L));
      EXPECT_TRUE(Env->stateEquals(*FreshEnv));
    }
    EXPECT_GT(S.mitigationState().misses(lh().top()), 0u);
  }
}

TEST(LoginApp, HashReplicasMatchTheObjectLanguage) {
  // loginUserHash must track the in-language mix exactly, otherwise lookups
  // would silently miss (this guards the C++/object-language contract).
  Rng R(11);
  LoginTable T = makeLoginTable(16, 16, R);
  LoginProgramConfig Config;
  Config.Mitigated = false;
  auto Env = createMachineEnv(HwKind::Partitioned, lh());
  LoginSession S(lh(), T, Config, *Env);
  for (unsigned I = 0; I != 16; ++I)
    EXPECT_TRUE(S.attempt("user" + std::to_string(I),
                          "pass" + std::to_string(I))
                    .Accepted)
        << "user" << I;
}

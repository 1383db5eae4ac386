//===- LoginApp.cpp -------------------------------------------------------===//

#include "apps/LoginApp.h"

#include "crypto/Md5.h"
#include "lang/ProgramBuilder.h"
#include "support/Diagnostics.h"
#include "types/LabelInference.h"

using namespace zam;

/// Probe window of the linear-probing lookup.
static constexpr int64_t ProbeLimit = 8;
/// Rounds of the in-language request-hashing loops ("md5" stand-in).
static constexpr int64_t HashRounds = 64;
/// Multiplier of the mixing rounds (FNV-1a prime; fits in int64).
static constexpr int64_t HashMul = 1099511628211;

/// One round of the object-language mix, replicated with the language's
/// exact total semantics (wrapping multiply, logical shift).
static int64_t mixRound(int64_t Hv) {
  uint64_t U = static_cast<uint64_t>(Hv);
  uint64_t Mixed = (U * static_cast<uint64_t>(HashMul)) ^ (U >> 29);
  return static_cast<int64_t>(Mixed);
}

int64_t zam::loginUserHash(int64_t WireDigest) {
  int64_t Hv = WireDigest;
  for (int64_t T = 0; T != HashRounds; ++T)
    Hv = static_cast<int64_t>(static_cast<uint64_t>(mixRound(Hv)) +
                              static_cast<uint64_t>(T));
  return Hv;
}

int64_t zam::loginPassHash(const int64_t Words[4]) {
  int64_t Pv = Words[0];
  for (int64_t T = 0; T != HashRounds; ++T)
    Pv = static_cast<int64_t>(static_cast<uint64_t>(mixRound(Pv)) +
                              static_cast<uint64_t>(Words[T & 3]) +
                              static_cast<uint64_t>(T));
  return Pv;
}

static void passwordWords(const std::string &Password, int64_t Words[4]) {
  Md5Digest D1 = md5(Password);
  Md5Digest D2 = md5(Password + "#zam");
  Words[0] = D1.word(0);
  Words[1] = D1.word(1);
  Words[2] = D2.word(0);
  Words[3] = D2.word(1);
}

LoginTable zam::makeLoginTable(unsigned TableSize, unsigned NumValid, Rng &R) {
  if (NumValid > TableSize)
    reportFatalError("more valid accounts than table slots");
  LoginTable Table;
  Table.Size = TableSize;
  Table.UserDigests.assign(TableSize, 0); // 0 = empty slot.
  Table.PassDigests.assign(TableSize, 0);
  for (unsigned I = 0; I != NumValid; ++I) {
    std::string User = "user" + std::to_string(I);
    std::string Pass = "pass" + std::to_string(I);
    int64_t Digest = loginUserHash(md5(User).low64());
    if (Digest == 0)
      Digest = 1; // Keep 0 reserved for "empty".
    // Linear probing from the home slot, using the object language's signed
    // modulo (wrapped), so the lookup program probes the same chain.
    int64_t Home = Digest % static_cast<int64_t>(TableSize);
    if (Home < 0)
      Home += TableSize;
    uint64_t Slot = static_cast<uint64_t>(Home);
    while (Table.UserDigests[Slot] != 0)
      Slot = (Slot + 1) % TableSize;
    Table.UserDigests[Slot] = Digest;
    int64_t Words[4];
    passwordWords(Pass, Words);
    Table.PassDigests[Slot] = loginPassHash(Words);
    Table.ValidUsernames.push_back(std::move(User));
  }
  return Table;
}

Program zam::buildLoginProgram(const SecurityLattice &Lat,
                               const LoginTable &Table,
                               const LoginProgramConfig &Config) {
  const Label L = Lat.bottom();
  const Label H = Lat.top();
  const int64_t N = Table.Size;

  ProgramBuilder B(Lat);
  B.array("muser", H, Table.Size, Table.UserDigests);
  B.array("mpass", H, Table.Size, Table.PassDigests);
  B.var("state", H, 0);
  B.var("u", L, 0);
  B.array("pq", L, 4);
  // Request-parsing workspace: the hash loop streams through it, modeling
  // the low-context buffer traffic of a real request handler. It stays
  // all-zero, so the C++ digest replicas are unaffected.
  B.array("buf", L, 64);
  B.var("response", L, 0);
  B.var("hv", L, 0);  // Username hash (public input, public hash).
  B.var("t", L, 0);   // Hash-loop counter (low context).
  B.var("found", H, 0);
  B.var("idx", H, 0);
  B.var("probe", H, 0);
  B.var("jj", H, 0);
  B.var("pv", H, 0);  // Password hash (computed under a high pc).
  B.var("tk", H, 0);  // Check-phase loop counter (high context).
  B.var("ok", H, 0);

  // One round of the request "digest": hv := ((hv * M) ^ (hv >> 29)) + t.
  auto MixInto = [&](const char *Var, ExprPtr Salt) {
    return B.assign(
        Var, B.add(B.bin(BinOpKind::BitXor,
                         B.mul(B.v(Var), B.lit(HashMul)),
                         B.shr(B.v(Var), B.lit(29))),
                   std::move(Salt)));
  };

  // --- Lookup: hash the username, then probe the chain from its home slot.
  // Invalid usernames usually stop at an empty slot; valid ones walk to
  // their slot — the residual timing difference Fig. 7 measures. The
  // 64-round hash dominates and is secret-independent.
  CmdPtr Lookup = B.seq(
      B.assign("hv", B.v("u")),
      B.assign("t", B.lit(0)),
      B.whilec(B.lt(B.v("t"), B.lit(HashRounds)),
               B.seq(MixInto("hv", B.add(B.v("t"), B.idx("buf", B.v("t")))),
                     B.assign("t", B.add(B.v("t"), B.lit(1))))),
      B.assign("found", B.lit(0)),
      B.assign("idx", B.lit(0)),
      B.assign("probe", B.lit(0)),
      B.assign("jj", B.mod(B.v("hv"), B.lit(N))),
      B.whilec(
          B.land(B.land(B.lt(B.v("probe"), B.lit(ProbeLimit)),
                        B.eq(B.v("found"), B.lit(0))),
                 B.ne(B.idx("muser", B.v("jj")), B.lit(0))),
          B.seq(
              B.ifc(B.eq(B.idx("muser", B.v("jj")), B.v("hv")),
                    B.seq(B.assign("found", B.lit(1)),
                          B.assign("idx", B.v("jj"))),
                    B.skip()),
              B.assign("jj", B.mod(B.add(B.v("jj"), B.lit(1)), B.lit(N))),
              B.assign("probe", B.add(B.v("probe"), B.lit(1))))));

  // --- Check: hash the password and compare to the stored digest. All of
  // this runs under the high `found` branch, so every variable written here
  // is high.
  CmdPtr Check = B.seq(
      B.assign("ok", B.lit(0)),
      B.ifc(
          B.eq(B.v("found"), B.lit(1)),
          B.seq(
              B.assign("pv", B.idx("pq", B.lit(0))),
              B.assign("tk", B.lit(0)),
              B.whilec(B.lt(B.v("tk"), B.lit(HashRounds)),
                       B.seq(MixInto("pv",
                                     B.add(B.idx("pq",
                                                 B.band(B.v("tk"), B.lit(3))),
                                           B.v("tk"))),
                             B.assign("tk", B.add(B.v("tk"), B.lit(1))))),
              B.ifc(B.eq(B.v("pv"), B.idx("mpass", B.v("idx"))),
                    B.assign("ok", B.lit(1)), B.skip()),
              B.assign("state", B.add(B.v("state"), B.v("ok")))),
          B.skip()));

  if (Config.Mitigated) {
    Lookup = B.mitigate(B.lit(Config.Estimate1), H, std::move(Lookup));
    Check = B.mitigate(B.lit(Config.Estimate2), H, std::move(Check));
  }

  B.body(B.seq(
      B.assign("response", B.lit(0)),
      std::move(Lookup),
      std::move(Check),
      // Always 1, so the response value carries nothing; only its timing
      // could (and mitigation bounds that).
      B.assign("response", B.lit(1))));

  Program P = B.take();
  inferTimingLabels(P);
  return P;
}

void zam::setLoginRequest(Memory &M, const std::string &Username,
                          const std::string &Password) {
  int64_t Digest = md5(Username).low64();
  // The program hashes this wire value itself; keep the hashed digest
  // nonzero so it can never match the empty-slot sentinel.
  if (loginUserHash(Digest) == 0)
    Digest ^= 1;
  M.store("u", Digest);
  int64_t Words[4];
  passwordWords(Password, Words);
  for (unsigned W = 0; W != 4; ++W)
    M.storeElem("pq", W, Words[W]);
}

LoginSession::LoginSession(const SecurityLattice &Lat, const LoginTable &Table,
                           const LoginProgramConfig &Config, MachineEnv &Env,
                           InterpreterOptions Opts)
    : P(buildLoginProgram(Lat, Table, Config)), Compiled(P, Opts), Env(Env),
      Opts(Opts), MitState(Lat, Opts.Mitigation.base(), Opts.Penalty) {
  this->Opts.SharedMitState = &MitState;
  // A session's results read the clock, memory and the mitigate windows,
  // never the assignment events.
  this->Opts.RetainEvents = false;
}

LoginAttemptResult LoginSession::attempt(const std::string &Username,
                                         const std::string &Password) {
  if (Interp)
    Interp->restart();
  else
    Interp.emplace(Compiled, Env, Opts);
  setLoginRequest(Interp->memory(), Username, Password);
  LoginAttemptResult Out;
  Out.Cycles = Interp->complete().FinalTime;
  Out.Accepted = Interp->memory().load("ok") == 1;
  return Out;
}

std::pair<int64_t, int64_t>
zam::calibrateLoginEstimates(const SecurityLattice &Lat,
                             const LoginTable &Table,
                             const MachineEnv &EnvTemplate, unsigned Samples,
                             Rng &R) {
  LoginProgramConfig Config;
  Config.Mitigated = true;
  Config.Estimate1 = 1;
  Config.Estimate2 = 1;

  std::unique_ptr<MachineEnv> Env = EnvTemplate.clone();
  Program P = buildLoginProgram(Lat, Table, Config);
  const CompiledProgram Compiled(P);

  // Sample both code paths: valid usernames (when the table has any) and
  // invalid ones. Track the per-mitigate maximum over the *warm* samples
  // (skip the first, cold-cache one).
  uint64_t Max1 = 0, Max2 = 0;
  for (unsigned I = 0; I != Samples; ++I) {
    std::string User;
    if (I % 2 == 0 && !Table.ValidUsernames.empty())
      User = Table.ValidUsernames[R.nextBelow(Table.ValidUsernames.size())];
    else
      User = "ghost" + std::to_string(R.nextBelow(1000));
    InterpreterOptions Opts;
    MitigationState St(Lat, fastDoublingPolicy(), Opts.Penalty);
    Opts.SharedMitState = &St;
    FullInterpreter Interp(Compiled, *Env, Opts);
    setLoginRequest(Interp.memory(), User, "pass" + std::to_string(I));
    RunResult Res = Interp.run();
    if (I == 0)
      continue; // Cold-cache outlier.
    for (const MitigateRecord &Rec : Res.T.Mitigations) {
      if (Rec.Eta == 0)
        Max1 = std::max(Max1, Rec.BodyTime);
      else
        Max2 = std::max(Max2, Rec.BodyTime);
    }
  }
  return {static_cast<int64_t>(std::max<uint64_t>(Max1 * 11 / 10, 1)),
          static_cast<int64_t>(std::max<uint64_t>(Max2 * 11 / 10, 1))};
}

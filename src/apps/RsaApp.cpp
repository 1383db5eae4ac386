//===- RsaApp.cpp ---------------------------------------------------------===//

#include "apps/RsaApp.h"

#include "lang/ProgramBuilder.h"
#include "support/Diagnostics.h"
#include "types/LabelInference.h"

using namespace zam;

namespace {
/// Emits `Dst := (A * B) mod nmod` as in-language shift-and-add using the
/// shared temporaries r/xx/yy. The modulus is public and below 2^61, so
/// the intermediate sums fit in the language's 64-bit integers.
CmdPtr emitMulMod(ProgramBuilder &B, const std::string &Dst,
                  const std::string &A, const std::string &BVar) {
  return B.seq(
      B.assign("r", B.lit(0)),
      B.assign("xx", B.v(A)),
      B.assign("yy", B.v(BVar)),
      B.whilec(B.bin(BinOpKind::Gt, B.v("yy"), B.lit(0)),
               B.seq(
                   B.ifc(B.band(B.v("yy"), B.lit(1)),
                         B.assign("r", B.mod(B.add(B.v("r"), B.v("xx")),
                                             B.v("nmod"))),
                         B.skip()),
                   B.assign("xx",
                            B.mod(B.add(B.v("xx"), B.v("xx")), B.v("nmod"))),
                   B.assign("yy", B.shr(B.v("yy"), B.lit(1))))),
      B.assign(Dst, B.v("r")));
}
} // namespace

Program zam::buildRsaProgram(const SecurityLattice &Lat, const RsaKey &Key,
                             const RsaProgramConfig &Config) {
  const Label L = Lat.bottom();
  const Label H = Lat.top();

  ProgramBuilder B(Lat);
  B.array("cblocks", L, Config.MaxBlocks);
  B.array("plain", H, Config.MaxBlocks);
  B.var("nblocks", L, 0);
  B.var("nmod", L, static_cast<int64_t>(Key.N));
  B.var("d", H, static_cast<int64_t>(Key.D)); // The secret.
  B.var("b", L, 0);
  B.var("prog", L, 0);
  B.var("done", L, 0);
  B.var("c", H, 0);
  B.var("result", H, 0);
  B.var("basev", H, 0);
  B.var("ev", H, 0);
  B.var("r", H, 0);
  B.var("xx", H, 0);
  B.var("yy", H, 0);

  // The confidential section: load the block, square-and-multiply
  // (result := c^d mod nmod), store the plaintext. Every assignment here
  // targets a high variable, so T-ASGN leaves the timing end-label high —
  // which is why the whole section sits inside the per-block mitigate.
  CmdPtr HighSection = B.seq(
      B.assign("c", B.idx("cblocks", B.v("b"))),
      B.assign("result", B.lit(1)),
      B.assign("basev", B.mod(B.v("c"), B.v("nmod"))),
      B.assign("ev", B.v("d")),
      B.whilec(B.bin(BinOpKind::Gt, B.v("ev"), B.lit(0)),
               B.seq(
                   B.ifc(B.band(B.v("ev"), B.lit(1)),
                         emitMulMod(B, "result", "result", "basev"), B.skip()),
                   emitMulMod(B, "basev", "basev", "basev"),
                   B.assign("ev", B.shr(B.v("ev"), B.lit(1))))),
      B.arrAssign("plain", B.v("b"), B.v("result")));

  if (Config.Mode == RsaMitigationMode::PerBlock)
    HighSection = B.mitigate(B.lit(Config.Estimate), H, std::move(HighSection));

  CmdPtr Body = B.seq(
      B.assign("b", B.lit(0)),
      B.whilec(B.lt(B.v("b"), B.v("nblocks")),
               B.seq(
                   B.assign("prog", B.v("b")), // Preprocess (low event).
                   std::move(HighSection),
                   B.assign("done", B.add(B.v("b"), B.lit(1))), // Postprocess.
                   B.assign("b", B.add(B.v("b"), B.lit(1))))));

  if (Config.Mode == RsaMitigationMode::WholeRun)
    Body = B.mitigate(B.lit(Config.Estimate), H, std::move(Body));

  B.body(std::move(Body));
  Program P = B.take();
  inferTimingLabels(P);
  return P;
}

void zam::setRsaMessage(Memory &M, const std::vector<uint64_t> &CipherBlocks) {
  MemorySlot &Blocks = M.slot("cblocks");
  if (CipherBlocks.size() > Blocks.Data.size())
    reportFatalError("message longer than the program's block buffer");
  for (size_t I = 0; I != CipherBlocks.size(); ++I)
    Blocks.Data[I] = static_cast<int64_t>(CipherBlocks[I]);
  M.store("nblocks", static_cast<int64_t>(CipherBlocks.size()));
}

RsaSession::RsaSession(const SecurityLattice &Lat, const RsaKey &Key,
                       const RsaProgramConfig &Config, MachineEnv &Env,
                       InterpreterOptions Opts)
    : P(buildRsaProgram(Lat, Key, Config)), Compiled(P, Opts), Env(Env),
      Opts(Opts), MitState(Lat, Opts.Mitigation.base(), Opts.Penalty) {
  this->Opts.SharedMitState = &MitState;
  // A session's results read the clock, memory and the mitigate windows,
  // never the assignment events.
  this->Opts.RetainEvents = false;
}

RsaDecryptResult RsaSession::decrypt(const std::vector<uint64_t> &CipherBlocks) {
  FullInterpreter Interp(Compiled, Env, Opts);
  setRsaMessage(Interp.memory(), CipherBlocks);
  RunResult R = Interp.run();

  RsaDecryptResult Out;
  Out.Cycles = R.T.FinalTime;
  const MemorySlot &Plain = R.FinalMemory.slot("plain");
  for (size_t I = 0; I != CipherBlocks.size(); ++I)
    Out.Plain.push_back(static_cast<uint64_t>(Plain.Data[I]));
  Out.T = std::move(R.T);
  return Out;
}

int64_t zam::calibrateRsaEstimate(const SecurityLattice &Lat,
                                  const RsaKey &Key,
                                  const MachineEnv &EnvTemplate,
                                  unsigned Samples, Rng &R,
                                  unsigned MaxBlocks) {
  RsaProgramConfig Config;
  Config.Mode = RsaMitigationMode::PerBlock;
  Config.Estimate = 1;
  Config.MaxBlocks = MaxBlocks;

  std::unique_ptr<MachineEnv> Env = EnvTemplate.clone();
  RsaSession Session(Lat, Key, Config, *Env);

  uint64_t Sum = 0, Count = 0;
  for (unsigned I = 0; I != Samples; ++I) {
    uint64_t Block = R.nextBelow(Key.N);
    RsaDecryptResult Res = Session.decrypt({rsaEncryptBlock(Key, Block)});
    for (const MitigateRecord &Rec : Res.T.Mitigations) {
      Sum += Rec.BodyTime;
      ++Count;
    }
  }
  if (Count == 0)
    return 1;
  return static_cast<int64_t>(Sum * 11 / (Count * 10));
}

//===- CacheAttackApp.cpp -------------------------------------------------===//

#include "apps/CacheAttackApp.h"

#include "lang/ProgramBuilder.h"
#include "support/Diagnostics.h"
#include "types/LabelInference.h"

#include <algorithm>

using namespace zam;

Program zam::buildCacheAttackProgram(const SecurityLattice &Lat,
                                     const CacheAttackConfig &Config,
                                     int64_t MitigateEstimate) {
  const Label L = Lat.bottom();
  const Label H = Lat.top();
  const int64_t Sets = Config.Sets;
  const int64_t Ways = Config.Ways;
  const int64_t Wpl = Config.wordsPerLine();
  const int64_t ProbeLines = Config.probeLines();

  ProgramBuilder B(Lat);
  // The S-box contents are public (as in AES); only the index is secret.
  std::vector<int64_t> SboxInit;
  for (unsigned I = 0; I != Config.SboxEntries; ++I)
    SboxInit.push_back(static_cast<int64_t>((I * 167 + 13) & 255));
  B.array("sbox", L, Config.SboxEntries, SboxInit);
  B.array("probe", L, Config.probeEntries());
  B.var("key", H, 0);
  B.var("x", L, 0);
  B.var("yv", H, 0);
  B.var("offs", L, 0); // Probe-array alignment, set by the driver.
  B.var("i", L, 0);
  B.var("s", L, 0);
  B.var("w", L, 0);
  B.var("m", L, 0);
  B.var("tmp", L, 0);
  B.var("mark", L, 0);

  // 1. PRIME: touch every probe line, filling all Ways of every set.
  CmdPtr Prime = B.seq(
      B.assign("i", B.lit(0)),
      B.whilec(B.lt(B.v("i"), B.lit(ProbeLines)),
               B.seq(B.assign("tmp",
                              B.add(B.v("tmp"),
                                    B.idx("probe", B.mul(B.v("i"), B.lit(Wpl))))),
                     B.assign("i", B.add(B.v("i"), B.lit(1))))));

  // 2. VICTIM: one secret-indexed lookup, mitigated so the program is
  // well-typed; the cache *state* it leaves behind is the channel.
  CmdPtr Victim = B.mitigate(
      B.lit(MitigateEstimate), H,
      B.assign("yv",
               B.idx("sbox", B.band(B.bin(BinOpKind::BitXor, B.v("x"),
                                          B.v("key")),
                                    B.lit(Config.SboxEntries - 1)))));

  // 3. PROBE: re-walk each set's Ways lines; the public `mark` event after
  // each set timestamps it for the adversary.
  CmdPtr Probe = B.seq(
      B.assign("s", B.lit(0)),
      B.whilec(
          B.lt(B.v("s"), B.lit(Sets)),
          B.seq(
              B.assign("w", B.lit(0)),
              B.whilec(
                  B.lt(B.v("w"), B.lit(Ways)),
                  B.seq(
                      B.assign("m",
                               B.add(B.mod(B.add(B.v("s"), B.v("offs")),
                                           B.lit(Sets)),
                                     B.mul(B.v("w"), B.lit(Sets)))),
                      B.assign("tmp",
                               B.add(B.v("tmp"),
                                     B.idx("probe",
                                           B.mul(B.v("m"), B.lit(Wpl))))),
                      B.assign("w", B.add(B.v("w"), B.lit(1))))),
              B.assign("mark", B.v("s")),
              B.assign("s", B.add(B.v("s"), B.lit(1))))));

  B.body(B.seq(std::move(Prime), std::move(Victim), std::move(Probe)));
  Program P = B.take();
  inferTimingLabels(P);
  return P;
}

ProbeResult zam::runPrimeProbe(const Program &P, MachineEnv &Env, int64_t Key,
                               int64_t X, const CacheAttackConfig &Config) {
  FullInterpreter Interp(P, Env);
  Memory &M = Interp.memory();
  M.store("key", Key);
  M.store("x", X);

  // Alignment: probe line m sits at L1 set (ProbeBase/Line + m) % Sets (in
  // the unpartitioned geometry); offs makes the program's "set s" walk the
  // physical set s.
  const Addr ProbeBase = M.addrOf("probe");
  const int64_t Align =
      static_cast<int64_t>((ProbeBase / Config.LineBytes) % Config.Sets);
  M.store("offs", (static_cast<int64_t>(Config.Sets) - Align) % Config.Sets);

  // Ground truth for the adversary's verdict.
  const Addr SboxBase = M.addrOf("sbox");
  const unsigned Index =
      static_cast<unsigned>((static_cast<uint64_t>(X) ^
                             static_cast<uint64_t>(Key)) &
                            (Config.SboxEntries - 1));
  const Addr VictimAddr = SboxBase + Index * 8;

  const size_t SetSlot = M.slotIndexOf("s");
  const size_t MarkSlot = M.slotIndexOf("mark");
  RunResult R = Interp.run();

  ProbeResult Out;
  Out.TrueLine = Index / Config.wordsPerLine();
  Out.TrueSet = static_cast<unsigned>((VictimAddr / Config.LineBytes) %
                                      Config.Sets);

  // Reconstruct per-set probe durations from the public `mark` events —
  // exactly what the coresident adversary of Sec. 3.4 observes.
  std::vector<uint64_t> MarkTimes;
  uint64_t ProbeStart = 0;
  for (const AssignEvent &E : R.T.Events) {
    if (E.Slot == SetSlot && E.Value == 0 && MarkTimes.empty())
      ProbeStart = E.Time; // The probe loop's initialization.
    if (E.Slot == MarkSlot)
      MarkTimes.push_back(E.Time);
  }
  if (MarkTimes.size() != Config.Sets)
    reportFatalError("prime+probe trace missing mark events");

  uint64_t Prev = ProbeStart;
  for (uint64_t T : MarkTimes) {
    Out.SetCycles.push_back(T - Prev);
    Prev = T;
  }
  Out.RecoveredSet = static_cast<unsigned>(
      std::max_element(Out.SetCycles.begin(), Out.SetCycles.end()) -
      Out.SetCycles.begin());
  return Out;
}

double zam::primeProbeHitRate(const SecurityLattice &Lat, HwKind Hw,
                              int64_t Key, unsigned Rounds, Rng &R,
                              const CacheAttackConfig &Config) {
  Program P = buildCacheAttackProgram(Lat, Config);
  auto Env = createMachineEnv(Hw, Lat);
  // Warm-up round (cold I-cache/TLB would otherwise pollute round one),
  // then a baseline round: the probe loop's own scalars pollute a few sets
  // deterministically, so the adversary measures *differentially* against
  // the baseline, as real prime+probe attacks do.
  runPrimeProbe(P, *Env, Key, 0, Config);
  ProbeResult Baseline = runPrimeProbe(P, *Env, Key, 0, Config);

  unsigned Hits = 0;
  for (unsigned I = 0; I != Rounds; ++I) {
    int64_t X = static_cast<int64_t>(R.nextBelow(Config.SboxEntries));
    ProbeResult Res = runPrimeProbe(P, *Env, Key, X, Config);
    // Differential decode: the set whose probe time grew the most relative
    // to the baseline round.
    int64_t Best = INT64_MIN;
    unsigned BestSet = 0;
    for (unsigned S = 0; S != Res.SetCycles.size(); ++S) {
      int64_t Diff = static_cast<int64_t>(Res.SetCycles[S]) -
                     static_cast<int64_t>(Baseline.SetCycles[S]);
      if (Diff > Best) {
        Best = Diff;
        BestSet = S;
      }
    }
    if (BestSet == Res.TrueSet)
      ++Hits;
  }
  return static_cast<double>(Hits) / Rounds;
}

//===- fig9_lang_vs_system.cpp - Reproduces Fig. 9 ---------------------------===//
//
// Fig. 9: "Language-level vs system-level mitigation". Decrypting messages
// of 1..10 blocks (the size is public):
//
//   - language-level mitigation (one mitigate per block) pays the padding
//     once per block, so total time grows linearly with the public size;
//   - system-level mitigation (the whole computation in one predictive
//     mitigator, as in black-box external mitigation [5]) must absorb the
//     *public* size variation into its prediction schedule, repeatedly
//     mispredicting and doubling — far slower on most sizes.
//
// The paper's finding: fine-grained language-based mitigation is faster
// because it does not mitigate timing variation due to the public number
// of blocks.
//
// Runs on the zam_exp harness: the two sessions are independent series and
// fan out over the worker pool.
//
//===----------------------------------------------------------------------===//

#include "apps/RsaApp.h"
#include "crypto/ToyRsa.h"
#include "exp/Harness.h"
#include "exp/Report.h"
#include "hw/HardwareModels.h"
#include "obs/LeakAudit.h"
#include "obs/Telemetry.h"

#include <cinttypes>
#include <cstdio>
#include <vector>

using namespace zam;

namespace {
constexpr unsigned MaxBlocks = 10;
constexpr unsigned ModulusBits = 53;

/// One session decrypting the size sweep 1..10 blocks; mitigation state
/// persists across sizes, as in the paper's evaluation.
std::vector<uint64_t>
runSweep(const SecurityLattice &Lat, const RsaKey &Key,
         RsaMitigationMode Mode, int64_t Estimate,
         const std::vector<std::vector<uint64_t>> &Messages) {
  RsaProgramConfig Config;
  Config.Mode = Mode;
  Config.Estimate = Estimate;
  Config.MaxBlocks = MaxBlocks;
  auto Env = createMachineEnv(HwKind::Partitioned, Lat);
  RsaSession Session(Lat, Key, Config, *Env);
  Session.decrypt(Messages[0]); // Warm-up.
  std::vector<uint64_t> Times;
  for (const std::vector<uint64_t> &Msg : Messages)
    Times.push_back(Session.decrypt(Msg).Cycles);
  return Times;
}

} // namespace

int main(int Argc, char **Argv) {
  HarnessOptions Harness =
      parseHarnessArgs(Argc, Argv, TakesThreads | TakesJson);
  if (!Harness.Ok)
    return 2;
  ParallelRunner Runner(Harness.Threads);

  TwoPointLattice Lat;
  Rng KeyRng(55), MsgRng(66), CalRng(77);
  RsaKey Key = generateRsaKey(KeyRng, ModulusBits);

  // Messages of 1..10 blocks.
  std::vector<std::vector<uint64_t>> Messages;
  for (unsigned Size = 1; Size <= MaxBlocks; ++Size) {
    std::vector<uint64_t> Msg;
    for (unsigned B = 0; B != Size; ++B)
      Msg.push_back(rsaEncryptBlock(Key, MsgRng.nextBelow(Key.N)));
    Messages.push_back(std::move(Msg));
  }

  auto CalEnv = createMachineEnv(HwKind::Partitioned, Lat);
  int64_t PerBlockEst =
      calibrateRsaEstimate(Lat, Key, *CalEnv, 6, CalRng, MaxBlocks);

  // Language-level: per-block mitigate. System-level: a single mitigate
  // around the entire run with the same per-block initial estimate (the
  // external mitigator knows no more than "about one block's worth of
  // work").
  Report R("fig9_lang_vs_system");
  runSeriesInto(R,
                {{"language-level",
                  [&] {
                    return runSweep(Lat, Key, RsaMitigationMode::PerBlock,
                                    PerBlockEst, Messages);
                  }},
                 {"system-level",
                  [&] {
                    return runSweep(Lat, Key, RsaMitigationMode::WholeRun,
                                    PerBlockEst, Messages);
                  }}},
                Runner);
  std::vector<double> Sizes;
  for (unsigned Size = 1; Size <= MaxBlocks; ++Size)
    Sizes.push_back(Size);
  R.setIndex("blocks", Sizes);

  const Series &LangS = *R.find("language-level");
  const Series &SysS = *R.find("system-level");
  std::printf("=== Fig. 9: decryption time vs message size (cycles) ===\n");
  std::printf("%-8s %14s %14s %8s\n", "blocks", "language-level",
              "system-level", "ratio");
  uint64_t LangTotal = 0, SysTotal = 0;
  bool NeverMeaningfullySlower = true;
  for (unsigned I = 0; I != MaxBlocks; ++I) {
    uint64_t TL = static_cast<uint64_t>(LangS.Values[I]);
    uint64_t TS = static_cast<uint64_t>(SysS.Values[I]);
    LangTotal += TL;
    SysTotal += TS;
    // On exact schedule boundaries (1, 2, 4, 8 blocks with a doubling
    // schedule) the two coincide up to per-block bookkeeping; the
    // system-level mitigator wins only within that noise.
    if (TL > TS + TS / 100)
      NeverMeaningfullySlower = false;
    std::printf("%-8u %14" PRIu64 " %14" PRIu64 " %7.2fx\n", I + 1, TL, TS,
                static_cast<double>(TS) / static_cast<double>(TL));
  }

  std::printf("\n=== shape checks (paper's findings) ===\n");
  std::printf("language-level grows ~linearly in the public size: "
              "t(10)/t(1) = %.1f (expect ~10)\n",
              LangS.Values.back() / LangS.Values.front());
  std::printf("system-level pays a doubling staircase for the *public* size"
              " variation;\nlanguage-level does not mitigate it at all"
              " (Sec. 8.4's point).\n");
  bool Faster = SysTotal > LangTotal;
  std::printf("language-level faster over the size sweep: %s "
              "(total %.2fx; never meaningfully slower: %s)\n",
              Faster ? "YES" : "no",
              static_cast<double>(SysTotal) / static_cast<double>(LangTotal),
              NeverMeaningfullySlower ? "yes" : "no");

  R.setScalar("language_total_cycles", static_cast<double>(LangTotal));
  R.setScalar("system_total_cycles", static_cast<double>(SysTotal));

  // Telemetry of record: the 10-block message decrypted once under each
  // mode on fresh environments, counters side by side under lang./sys.
  // prefixes (mispredictions and padding show the doubling staircase).
  for (auto [Prefix, Mode] :
       {std::pair<const char *, RsaMitigationMode>{
            "lang.", RsaMitigationMode::PerBlock},
        {"sys.", RsaMitigationMode::WholeRun}}) {
    RsaProgramConfig Config;
    Config.Mode = Mode;
    Config.Estimate = PerBlockEst;
    Config.MaxBlocks = MaxBlocks;
    auto Env = createMachineEnv(HwKind::Partitioned, Lat);
    Program P = buildRsaProgram(Lat, Key, Config);
    RunResult Rep = runFull(
        P, *Env, [&](Memory &M) { setRsaMessage(M, Messages.back()); });
    collectRunMetrics(R.metrics(), Rep.T, Rep.Hw, Lat, Prefix);
    LeakAudit Audit(Lat);
    Audit.ingest(Rep.T);
    Audit.exportMetrics(R.metrics(), Prefix);
  }
  R.setVerdict("language_level_faster", Faster);
  R.setVerdict("never_meaningfully_slower", NeverMeaningfullySlower);
  if (!emitReportJson(R, Harness))
    return 2;
  return Faster && NeverMeaningfullySlower ? 0 : 1;
}

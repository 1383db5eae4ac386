//===- Workloads.cpp - The four zam_perf workloads ------------------------===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Layers.h"
#include "Stats.h"

#include "adv/Adversary.h"
#include "adv/LeakDetector.h"
#include "apps/LoginApp.h"
#include "apps/RsaApp.h"
#include "crypto/ToyRsa.h"
#include "exp/ParallelRunner.h"
#include "lang/Parser.h"
#include "obs/CostLedger.h"
#include "obs/ExecProfile.h"
#include "obs/LeakAudit.h"
#include "types/LabelInference.h"
#include "types/TypeChecker.h"

#include <bit>
#include <cstdio>

using namespace zam;
using namespace zam::perf;

void Workload::digestWords(std::initializer_list<uint64_t> Words) {
  if (DigestRuns == kDigestRuns)
    return;
  for (uint64_t W : Words)
    for (unsigned B = 0; B != 8; ++B) {
      Digest ^= (W >> (8 * B)) & 0xff;
      Digest *= 0x100000001b3ULL;
    }
}

void Workload::digestHw(const HwStats &S) {
  for (const CacheLevelStats *L : {&S.L1D, &S.L2D, &S.L1I, &S.L2I, &S.DTlb,
                                   &S.ITlb})
    digestWords({L->Hits, L->Misses, L->Evictions, L->Writebacks,
                 L->LineFills});
}

namespace {

/// Type-checks \p P; a workload program that fails is a benchmark bug.
void checkOrDie(const Program &P, const char *What) {
  DiagnosticEngine Diags;
  if (!typeCheck(P, Diags)) {
    std::fprintf(stderr, "%s: %s\n", What, Diags.str().c_str());
    reportFatalError("zam_perf: workload program is ill-typed");
  }
}

/// Parses, infers labels and type-checks \p Source, timing the phases.
Program parseAndCheck(const std::string &Source, const SecurityLattice &Lat,
                      SetupSplit &Split) {
  auto T0 = Clock::now();
  DiagnosticEngine Diags;
  std::optional<Program> P = parseProgram(Source, Lat, Diags);
  auto T1 = Clock::now();
  if (!P) {
    std::fprintf(stderr, "%s\n", Diags.str().c_str());
    reportFatalError("zam_perf: workload program does not parse");
  }
  inferTimingLabels(*P);
  checkOrDie(*P, "zam_perf");
  Split.ParseUs = elapsedUs(T0, T1);
  Split.CheckUs = elapsedUs(T1, Clock::now());
  return std::move(*P);
}

//===----------------------------------------------------------------------===//
// rsa_decrypt — Fig. 8
//===----------------------------------------------------------------------===//

/// One RsaSession decrypts 2-block messages from a pool on partitioned
/// hardware with a warm env. Runs are long (≈2.5 ms, ≈124k env accesses)
/// and FullInterpreter construction is under 1% of them, so this workload
/// exercises engine dispatch and the env hit path and bypasses per-run
/// setup.
class RsaDecrypt final : public Workload {
public:
  const char *name() const override { return "rsa_decrypt"; }
  size_t opsPerRep() const override { return 50; }

  SetupSplit setup(uint64_t Seed) override {
    resetDigest();
    SetupSplit Split;
    if (!KeyRng || KeyFor != Seed) {
      KeyRng = findKey(Seed);
      KeyFor = Seed;
    }
    auto Start = Clock::now();
    Rng R = *KeyRng;
    Key = generateRsaKey(R, kModulusBits);
    Cipher.clear();
    Plain.clear();
    for (unsigned I = 0; I != kPool; ++I) {
      std::vector<uint64_t> Msg, Expect;
      for (unsigned B = 0; B != kBlocks; ++B) {
        uint64_t P = R.nextBelow(Key.N);
        Msg.push_back(rsaEncryptBlock(Key, P));
        Expect.push_back(P);
      }
      // The reference decryption must agree with the plaintext drawn.
      if (rsaDecryptBlocks(Key, Msg) != Expect)
        reportFatalError("zam_perf: reference RSA decryption disagrees");
      Cipher.push_back(std::move(Msg));
      Plain.push_back(std::move(Expect));
    }

    auto T0 = Clock::now();
    auto CalEnv = createMachineEnv(HwKind::Partitioned, Lat);
    RsaProgramConfig Config;
    Config.Mode = RsaMitigationMode::PerBlock;
    Config.MaxBlocks = kBlocks;
    Config.Estimate =
        calibrateRsaEstimate(Lat, Key, *CalEnv, kCalibSamples, R, kBlocks);
    auto T1 = Clock::now();
    Session.reset(); // It borrows the env it replaces.
    Env = createMachineEnv(HwKind::Partitioned, Lat);
    Session = std::make_unique<RsaSession>(Lat, Key, Config, *Env);
    auto T2 = Clock::now();
    checkOrDie(Session->program(), "rsa_decrypt");
    auto T3 = Clock::now();
    Session->decrypt(Cipher[0]);
    Split.CalibrateUs = elapsedUs(T0, T1);
    Split.BuildUs = elapsedUs(T1, T2);
    Split.CheckUs = elapsedUs(T2, T3);
    Next = 0;
    Cycles = 0;
    TraceEnv.reset();
    Split.TotalS = elapsedUs(Start, Clock::now()) / 1e6;
    return Split;
  }

  void runOps(size_t Ops, std::vector<double> &LatUs, Tally &T) override {
    for (size_t I = 0; I != Ops; ++I, ++Next) {
      const size_t Msg = Next % kPool;
      auto T0 = Clock::now();
      RsaDecryptResult Res = Session->decrypt(Cipher[Msg]);
      LatUs.push_back(elapsedUs(T0, Clock::now()));
      ++T.Attempted;
      if (!check(Res.Plain, Res.Cycles, Msg, Cycles))
        ++T.Failed;
      digestWords({Res.Cycles, Res.T.Steps});
      digestHw(Env->stats());
      digestRunDone();
    }
  }

  void runOpsTraced(size_t Ops, SpanRecorder &Spans, uint32_t Parent,
                    Tally &T) override {
    // A second session over a copy of the warm env, driven through the
    // calls RsaSession::decrypt makes.
    if (!TraceEnv) {
      TraceEnv = Env->clone();
      TraceMit.emplace(Lat, fastDoublingPolicy(), PenaltyPolicy::PerLevel);
      TraceCycles = 0;
      TraceNext = 0;
    }
    InterpreterOptions Opts;
    Opts.SharedMitState = &*TraceMit;
    for (size_t I = 0; I != Ops; ++I, ++TraceNext) {
      const size_t Msg = TraceNext % kPool;
      SpanScope Run(&Spans, "run", Parent);
      std::optional<FullInterpreter> Interp;
      {
        SpanScope S(&Spans, "sem.construct", Run.id());
        Interp.emplace(Session->program(), *TraceEnv, Opts);
        setRsaMessage(Interp->memory(), Cipher[Msg]);
      }
      RunResult R = [&] {
        SpanScope S(&Spans, "sem.run", Run.id());
        return Interp->run();
      }();
      const MemorySlot &Out = R.FinalMemory.slot("plain");
      std::vector<uint64_t> Got(Out.Data.begin(), Out.Data.begin() + kBlocks);
      ++T.Attempted;
      if (!check(Got, R.T.FinalTime, Msg, TraceCycles))
        ++T.Failed;
    }
  }

  LayerRun layerRun() override {
    LayerEnv = Env->clone();
    LayerRun L;
    L.P = &Session->program();
    L.EnvBefore = LayerEnv.get();
    L.MitBefore.emplace(Lat, fastDoublingPolicy(), PenaltyPolicy::PerLevel);
    L.Inputs.push_back(
        [this](Memory &M) { setRsaMessage(M, Cipher[0]); });
    return L;
  }

private:
  static constexpr unsigned kModulusBits = 53;
  static constexpr unsigned kBlocks = 2;
  static constexpr unsigned kPool = 64;
  static constexpr unsigned kCalibSamples = 6;
  /// Decrypt work is a function of d's bit length (squarings) and
  /// popcount (multiplies). Keys are drawn from the seed until d has
  /// exactly these, so every seed times the same amount of work.
  static constexpr unsigned kDBits = 52;
  static constexpr unsigned kDOnes = 26;

  /// \returns the generator state, advanced from \p Seed, whose next key
  /// is the first with kDBits and kDOnes. The number of keys drawn to get
  /// there depends on the seed, so the search stays out of setup_s, and
  /// every setup generates just the one key from this state.
  static Rng findKey(uint64_t Seed) {
    Rng R(Seed);
    for (;;) {
      Rng At = R;
      RsaKey K = generateRsaKey(R, kModulusBits);
      if (K.privateExponentBits() == kDBits &&
          static_cast<unsigned>(std::popcount(K.D)) == kDOnes)
        return At;
    }
  }

  /// Fig. 8: the plaintext equals the C++ reference, and every mitigated
  /// decrypt of one session takes the same number of cycles (the first
  /// one checked sets \p Expect).
  bool check(const std::vector<uint64_t> &Got, uint64_t GotCycles,
             size_t Msg, uint64_t &Expect) const {
    if (Expect == 0)
      Expect = GotCycles;
    return Got == Plain[Msg] && GotCycles == Expect;
  }

  TwoPointLattice Lat;
  std::optional<Rng> KeyRng;
  uint64_t KeyFor = 0;
  RsaKey Key;
  std::vector<std::vector<uint64_t>> Cipher, Plain;
  std::unique_ptr<MachineEnv> Env;
  std::unique_ptr<RsaSession> Session;
  size_t Next = 0;
  uint64_t Cycles = 0;
  std::unique_ptr<MachineEnv> TraceEnv;
  std::optional<MitigationState> TraceMit;
  uint64_t TraceCycles = 0;
  size_t TraceNext = 0;
  std::unique_ptr<MachineEnv> LayerEnv;
};

//===----------------------------------------------------------------------===//
// login_session — Fig. 7
//===----------------------------------------------------------------------===//

/// One LoginSession serves attempts on no-fill hardware; half the users
/// are valid. Attempts are short (≈43 µs, ≈1.2k env accesses) and about
/// 40% of each is FullInterpreter construction (lowering plus Memory
/// init), so a lower-once or cached-compile change shows here and not on
/// rsa_decrypt.
class LoginAttempts final : public Workload {
public:
  const char *name() const override { return "login_session"; }
  size_t opsPerRep() const override { return 2500; }

  SetupSplit setup(uint64_t Seed) override {
    resetDigest();
    SetupSplit Split;
    auto Start = Clock::now();
    Rng R(Seed);
    Table = makeLoginTable(kTableSize, kValid, R);
    Attempts.clear();
    for (unsigned I = 0; I != kAttempts; ++I) {
      // Even attempts: a valid user with the right password. Odd: a
      // username outside the table.
      const bool Valid = I % 2 == 0;
      uint64_t K = Valid ? R.nextBelow(kValid) : kValid + R.nextBelow(1000);
      Attempts.push_back({"user" + std::to_string(K),
                          "pass" + std::to_string(K), Valid});
    }

    auto T0 = Clock::now();
    auto CalEnv = createMachineEnv(HwKind::NoFill, Lat);
    auto [E1, E2] =
        calibrateLoginEstimates(Lat, Table, *CalEnv, kCalibSamples, R);
    auto T1 = Clock::now();
    LoginProgramConfig Config;
    Config.Mitigated = true;
    Config.Estimate1 = E1;
    Config.Estimate2 = E2;
    Session.reset(); // It borrows the env it replaces.
    Env = createMachineEnv(HwKind::NoFill, Lat);
    Session = std::make_unique<LoginSession>(Lat, Table, Config, *Env);
    auto T2 = Clock::now();
    checkOrDie(Session->program(), "login_session");
    auto T3 = Clock::now();
    // Warm up with one pass over the pool: a server that has been up for
    // a while. Any misprediction the pool can cause happens here, so the
    // measured attempts all run on the settled schedule.
    for (const Attempt &A : Attempts)
      Session->attempt(A.User, A.Pass);
    Split.CalibrateUs = elapsedUs(T0, T1);
    Split.BuildUs = elapsedUs(T1, T2);
    Split.CheckUs = elapsedUs(T2, T3);
    Next = 0;
    Cycles = 0;
    TraceEnv.reset();
    Split.TotalS = elapsedUs(Start, Clock::now()) / 1e6;
    return Split;
  }

  void runOps(size_t Ops, std::vector<double> &LatUs, Tally &T) override {
    for (size_t I = 0; I != Ops; ++I, ++Next) {
      const Attempt &A = Attempts[Next % kAttempts];
      auto T0 = Clock::now();
      LoginAttemptResult Res = Session->attempt(A.User, A.Pass);
      LatUs.push_back(elapsedUs(T0, Clock::now()));
      ++T.Attempted;
      if (!check(A, Res.Accepted, Res.Cycles, Cycles))
        ++T.Failed;
      digestWords({Res.Cycles, Res.Accepted});
      digestHw(Env->stats());
      digestRunDone();
    }
  }

  void runOpsTraced(size_t Ops, SpanRecorder &Spans, uint32_t Parent,
                    Tally &T) override {
    // A second session continuing from the first one's env and Miss
    // table, driven through the calls LoginSession::attempt makes.
    if (!TraceEnv) {
      TraceEnv = Env->clone();
      TraceMit.emplace(Session->mitigationState());
      TraceCycles = 0;
      TraceNext = 0;
    }
    InterpreterOptions Opts;
    Opts.SharedMitState = &*TraceMit;
    for (size_t I = 0; I != Ops; ++I, ++TraceNext) {
      const Attempt &A = Attempts[TraceNext % kAttempts];
      SpanScope Run(&Spans, "run", Parent);
      std::optional<FullInterpreter> Interp;
      {
        SpanScope S(&Spans, "sem.construct", Run.id());
        Interp.emplace(Session->program(), *TraceEnv, Opts);
        setLoginRequest(Interp->memory(), A.User, A.Pass);
      }
      RunResult R = [&] {
        SpanScope S(&Spans, "sem.run", Run.id());
        return Interp->run();
      }();
      ++T.Attempted;
      if (!check(A, R.FinalMemory.load("ok") == 1, R.T.FinalTime,
                 TraceCycles))
        ++T.Failed;
    }
  }

  LayerRun layerRun() override {
    LayerEnv = Env->clone();
    LayerRun L;
    L.P = &Session->program();
    L.EnvBefore = LayerEnv.get();
    L.MitBefore.emplace(Session->mitigationState());
    for (unsigned I = 0; I != 2; ++I) // One valid, one invalid attempt.
      L.Inputs.push_back([this, I](Memory &M) {
        setLoginRequest(M, Attempts[I].User, Attempts[I].Pass);
      });
    return L;
  }

private:
  static constexpr unsigned kTableSize = 100;
  static constexpr unsigned kValid = 50;
  static constexpr unsigned kCalibSamples = 30;
  static constexpr unsigned kAttempts = 64;

  struct Attempt {
    std::string User, Pass;
    bool Valid = false;
  };

  /// Fig. 7: Accepted equals table membership, and the mitigated attempt
  /// time is constant within the session (the first one sets \p Expect).
  static bool check(const Attempt &A, bool Accepted, uint64_t GotCycles,
                    uint64_t &Expect) {
    if (Expect == 0)
      Expect = GotCycles;
    return Accepted == A.Valid && GotCycles == Expect;
  }

  TwoPointLattice Lat;
  LoginTable Table;
  std::vector<Attempt> Attempts;
  std::unique_ptr<MachineEnv> Env;
  std::unique_ptr<LoginSession> Session;
  size_t Next = 0;
  uint64_t Cycles = 0;
  std::unique_ptr<MachineEnv> TraceEnv;
  std::optional<MitigationState> TraceMit;
  uint64_t TraceCycles = 0;
  size_t TraceNext = 0;
  std::unique_ptr<MachineEnv> LayerEnv;
};

//===----------------------------------------------------------------------===//
// attack_sweep — zamc attack
//===----------------------------------------------------------------------===//

/// The one-window probe of examples/programs/sweep.zam, kept here so the
/// workload stays fixed when the example changes.
constexpr const char *kSweepSource = R"(var h : H;
var l : L;
mitigate (64, H) {
  sleep(h) @[H, H]
};
l := 1
)";

/// streamObservations over two secret classes on commodity hardware,
/// detectLeak once per chunk. A sample takes ≈8 µs, about 70% of it
/// MachineEnv::clone of a cold template, so env state layout and clone
/// cost show here and almost nowhere else.
class AttackSweep final : public Workload {
public:
  const char *name() const override { return "attack_sweep"; }
  size_t opsPerRep() const override { return 6 * kObservationChunk; }

  SetupSplit setup(uint64_t Seed) override {
    resetDigest();
    SetupSplit Split;
    auto Start = Clock::now();
    P.emplace(parseAndCheck(kSweepSource, Lat, Split));
    Classes.clear();
    Classes.push_back({"low", {}, {{"h", 1, 60}}, nullptr});
    Classes.push_back({"high", {}, {{"h", 600, 700}}, nullptr});
    AOpts.Seed = Seed;
    Template = createMachineEnv(HwKind::NoPartition, Lat);
    AOpts.Samples = 2;
    streamObservations(*P, *Template, Classes, AOpts, IOpts, Runner,
                       [](const Observation &, size_t) {});
    Split.TotalS = elapsedUs(Start, Clock::now()) / 1e6;
    return Split;
  }

  /// Every rep draws the same samples (sample i always runs with
  /// sampleSeed(Seed, i)), so reps time identical work.
  void runOps(size_t Ops, std::vector<double> &LatUs, Tally &T) override {
    AOpts.Samples = static_cast<unsigned>(Ops);
    std::vector<CompactObservation> Rows;
    auto ChunkStart = Clock::now();
    streamObservations(
        *P, *Template, Classes, AOpts, IOpts, Runner,
        [&](const Observation &O, size_t I) {
          Rows.push_back({O.ClassIndex, O.EndToEnd, O.BoundBits});
          digestWords({O.ClassIndex, O.EndToEnd,
                       std::bit_cast<uint64_t>(O.BoundBits)});
          for (uint64_t W : O.Windows)
            digestWords({W});
          digestRunDone();
          if ((I + 1) % kObservationChunk != 0 && I + 1 != Ops)
            return;
          closeChunk(Rows, T);
          auto Now = Clock::now();
          LatUs.push_back(elapsedUs(ChunkStart, Now) /
                          static_cast<double>(Rows.size()));
          ChunkStart = Now;
          Rows.clear();
        });
  }

  void runOpsTraced(size_t Ops, SpanRecorder &Spans, uint32_t Parent,
                    Tally &T) override {
    // streamObservations' per-sample body, one layer call at a time.
    const size_t K = Classes.size();
    std::vector<CompactObservation> Rows;
    for (size_t I = 0; I != Ops; ++I) {
      Observation O;
      {
        SpanScope Run(&Spans, "run", Parent);
        const SecretClassSpec &Spec = Classes[I % K];
        Rng R(sampleSeed(AOpts.Seed, I));
        std::unique_ptr<MachineEnv> Env = [&] {
          SpanScope S(&Spans, "hw.clone", Run.id());
          return Template->clone();
        }();
        std::optional<FullInterpreter> Interp;
        {
          SpanScope S(&Spans, "sem.construct", Run.id());
          Interp.emplace(*P, *Env, IOpts);
          for (const SecretClassSpec::Range &Rg : Spec.Ranges)
            Interp->memory().store(Rg.Var, R.nextInRange(Rg.Lo, Rg.Hi));
        }
        RunResult RR = [&] {
          SpanScope S(&Spans, "sem.run", Run.id());
          return Interp->run();
        }();
        SpanScope S(&Spans, "adv.audit", Run.id());
        LeakAudit Audit(Lat, AOpts.Adversary, IOpts.Mitigation);
        Audit.ingest(RR.T);
        O.ClassIndex = static_cast<uint32_t>(I % K);
        O.EndToEnd = RR.T.FinalTime;
        O.BoundBits = Audit.totalBitsBound();
      }
      Rows.push_back({O.ClassIndex, O.EndToEnd, O.BoundBits});
      if ((I + 1) % kObservationChunk == 0 || I + 1 == Ops) {
        SpanScope S(&Spans, "adv.detect", Parent);
        closeChunk(Rows, T);
        Rows.clear();
      }
    }
  }

  LayerRun layerRun() override {
    LayerRun L;
    L.P = &*P;
    L.EnvBefore = Template.get();
    L.Opts = IOpts;
    for (int64_t H : {30, 650}) // One sample from each class.
      L.Inputs.push_back([H](Memory &M) { M.store("h", H); });
    return L;
  }

  void extraLayers(double Seconds, MetricList &Out, Tally &T) override;

private:
  /// The detector must flag the leak, and the empirical mutual information
  /// must stay within the analytic bound.
  bool flagsLeak(const std::vector<CompactObservation> &Rows) const {
    DetectorResult D = detectLeak(Rows, Names);
    return D.LeakDetected && D.MiBits <= D.AnalyticBoundBits;
  }

  /// Checks one chunk; a failing chunk fails all its samples.
  void closeChunk(const std::vector<CompactObservation> &Rows, Tally &T) {
    T.Attempted += Rows.size();
    if (!flagsLeak(Rows))
      T.Failed += Rows.size();
  }

  TotalOrderLattice Lat{{"L", "H"}};
  std::optional<Program> P;
  std::vector<SecretClassSpec> Classes;
  std::vector<std::string> Names{"low", "high"};
  AttackOptions AOpts;
  InterpreterOptions IOpts;
  ParallelRunner Runner{1};
  std::unique_ptr<MachineEnv> Template;
};

void AttackSweep::extraLayers(double Seconds, MetricList &Out, Tally &T) {
  // adv.detect_us: detectLeak over one full chunk of rows.
  AttackOptions Opts = AOpts;
  Opts.Samples = kObservationChunk;
  std::vector<CompactObservation> Rows;
  streamObservations(*P, *Template, Classes, Opts, IOpts, Runner,
                     [&Rows](const Observation &O, size_t) {
                       Rows.push_back({O.ClassIndex, O.EndToEnd, O.BoundBits});
                     });
  std::vector<double> DetectUs;
  for (unsigned I = 0; I != 50; ++I) {
    auto T0 = Clock::now();
    const bool Ok = flagsLeak(Rows);
    DetectUs.push_back(elapsedUs(T0, Clock::now()));
    ++T.Attempted;
    T.Failed += !Ok;
  }
  Out.push_back({"adv.detect_us", median(DetectUs), "us"});

  // exp.speedup_4t (diagnostic): the same samples on min(4, nproc)
  // threads against one thread.
  const unsigned Threads = std::min(4u, resolveThreadCount(0));
  Opts.Samples = static_cast<unsigned>(
      std::max(1.0, Seconds / 10 * static_cast<double>(kObservationChunk) * 4));
  auto timeWith = [&](unsigned N) {
    ParallelRunner R(N);
    auto T0 = Clock::now();
    streamObservations(*P, *Template, Classes, Opts, IOpts, R,
                       [](const Observation &, size_t) {});
    return elapsedUs(T0, Clock::now());
  };
  double One = timeWith(1), Many = timeWith(Threads);
  Out.push_back({"exp.speedup_4t", One / Many, "x"});
  Out.push_back({"exp.threads", static_cast<double>(Threads), "count"});
}

//===----------------------------------------------------------------------===//
// scan_observed — zamc profile
//===----------------------------------------------------------------------===//

/// Loops over a 4096-word array (32 KiB, twice the simulated L1D) and then
/// runs a secret mitigate, with every observer of `zamc profile` attached:
/// CostLedger, ExecProfile, RecordMisses and a LeakAudit window hook, and
/// the trace exported through exportTrace into a counting sink.
/// Observation roughly doubles the run (≈2.8 ms vs ≈1.3 ms unobserved) and
/// exporting its ≈1.1 MB of JSONL takes ≈8 ms more, so this covers the
/// env's observed walk, the miss/install/evict path and Trace.Events
/// retention: an env or engine change that speeds the unobserved hit path
/// at the cost of the observed one shows here.
class ScanObserved final : public Workload {
public:
  const char *name() const override { return "scan_observed"; }
  size_t opsPerRep() const override { return 10; }

  SetupSplit setup(uint64_t Seed) override {
    resetDigest();
    SetupSplit Split;
    auto Start = Clock::now();
    Rng R(Seed);
    // Every value has three digits and h two, and both arms of each branch
    // assign, so the source text, the trace and every allocation the run
    // makes have the same size for every seed: the allocator's adaptive
    // choices, which move host time by 10-20%, then do not depend on it.
    std::vector<int64_t> A(kWords);
    for (int64_t &V : A)
      V = 100 + static_cast<int64_t>(R.nextBelow(900));
    const int64_t H = 10 + static_cast<int64_t>(R.nextBelow(64));
    // The C++ recomputation of the scan: l = s * 65536 + big.
    int64_t Sum = 0, Big = 0;
    for (int64_t V : A) {
      Sum += V;
      Big += V > kThreshold;
    }
    ExpectL = Sum * 65536 + Big;
    P.emplace(parseAndCheck(source(A, H), Lat, Split));
    Env = createMachineEnv(HwKind::Partitioned, Lat);
    Tally Ignored;
    observedRun(nullptr, 0, Ignored);
    Split.TotalS = elapsedUs(Start, Clock::now()) / 1e6;
    return Split;
  }

  void runOps(size_t Ops, std::vector<double> &LatUs, Tally &T) override {
    for (size_t I = 0; I != Ops; ++I) {
      auto T0 = Clock::now();
      observedRun(nullptr, 0, T, /*Digest=*/true);
      LatUs.push_back(elapsedUs(T0, Clock::now()));
    }
  }

  void runOpsTraced(size_t Ops, SpanRecorder &Spans, uint32_t Parent,
                    Tally &T) override {
    for (size_t I = 0; I != Ops; ++I) {
      SpanScope Run(&Spans, "run", Parent);
      observedRun(&Spans, Run.id(), T);
    }
  }

  LayerRun layerRun() override {
    LayerEnv = Env->clone();
    LayerRun L;
    L.P = &*P;
    L.EnvBefore = LayerEnv.get();
    L.Inputs.push_back([](Memory &) {});
    return L;
  }

private:
  static constexpr unsigned kWords = 4096;
  static constexpr int64_t kThreshold = 549;

  static std::string source(const std::vector<int64_t> &A, int64_t H) {
    std::string S = "var a : L[" + std::to_string(A.size()) + "] = {";
    for (size_t I = 0; I != A.size(); ++I)
      S += (I ? ", " : "") + std::to_string(A[I]);
    S += "};\n";
    S += "var i : L;\nvar s : L;\nvar big : L;\nvar small : L;\n";
    S += "var h : H = " + std::to_string(H) + ";\n";
    S += "var k : H;\nvar acc : H;\nvar l : L;\n";
    S += "while (i < " + std::to_string(A.size()) + ") do {\n"
         "  s := s + a[i];\n"
         "  if (a[i] > " + std::to_string(kThreshold) + ") then {\n"
         "    big := big + 1\n"
         "  } else { small := small + 1 };\n"
         "  i := i + 1\n"
         "};\n"
         "mitigate (256, H) {\n"
         "  k := 0;\n"
         "  while (k < 64) do {\n"
         "    if (k < h) then { acc := acc + a[k] } else { acc := acc - a[k] };\n"
         "    k := k + 1\n"
         "  }\n"
         "};\n"
         "l := s * 65536 + big\n";
    return S;
  }

  /// One `zamc profile`-style run on the persistent env, with the
  /// profiler's checks: ExecProfile::selfCheck, ledger cycles == FinalTime,
  /// ledger leak bits == the audit's bound, and l == the C++ scan.
  void observedRun(SpanRecorder *Spans, uint32_t Parent, Tally &T,
                   bool Digest = false) {
    Env->resetStats();
    CostLedger Ledger;
    LeakAudit Audit(Lat);
    ExecProfile Prof;
    InterpreterOptions Opts;
    Opts.Provenance = &Ledger;
    Opts.Probe = &Prof;
    Opts.RecordMisses = true;
    Opts.OnMitigateWindow = [&Audit](const MitigateRecord &R) {
      Audit.onWindow(R);
    };
    std::optional<FullInterpreter> Interp;
    {
      SpanScope S(Spans, "sem.construct", Parent);
      Interp.emplace(*P, *Env, Opts);
    }
    RunResult R = [&] {
      SpanScope S(Spans, "sem.run", Parent);
      return Interp->run();
    }();
    Ledger.applyLeakage(Audit);
    uint64_t Bytes = 0;
    {
      SpanScope S(Spans, "obs.export", Parent);
      Bytes = exportCounting(R.T, Lat, &Ledger);
    }
    std::string Err;
    ++T.Attempted;
    if (!Prof.selfCheck(Err) || Ledger.totalCycles() != R.T.FinalTime ||
        Ledger.totalLeakBits() != Audit.totalBitsBound() ||
        R.FinalMemory.load("l") != ExpectL || Bytes == 0)
      ++T.Failed;
    if (Digest) {
      digestWords({R.T.FinalTime, R.T.Steps});
      digestHw(R.Hw);
      digestRunDone();
    }
  }

  TotalOrderLattice Lat{{"L", "H"}};
  std::optional<Program> P;
  std::unique_ptr<MachineEnv> Env;
  int64_t ExpectL = 0;
  std::unique_ptr<MachineEnv> LayerEnv;
};

} // namespace

const std::vector<std::string> &zam::perf::workloadNames() {
  static const std::vector<std::string> Names = {
      "rsa_decrypt", "login_session", "attack_sweep", "scan_observed"};
  return Names;
}

std::unique_ptr<Workload> zam::perf::makeWorkload(const std::string &Name) {
  if (Name == "rsa_decrypt")
    return std::make_unique<RsaDecrypt>();
  if (Name == "login_session")
    return std::make_unique<LoginAttempts>();
  if (Name == "attack_sweep")
    return std::make_unique<AttackSweep>();
  if (Name == "scan_observed")
    return std::make_unique<ScanObserved>();
  return nullptr;
}

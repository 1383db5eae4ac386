//===- mode_agreement_test.cpp - Observed vs unobserved runs ---------------===//
//
// The execution core's transition code is instantiated twice: once for
// runs with no observer, where every cursor, probe, tally, sink and
// retention test folds away, and once for runs with a probe, a cost sink,
// miss sampling or retained events. Observers only watch, so a run must
// end in the same clock, steps, counters, windows, Miss table, memory,
// hardware counters and hardware state whichever instantiation ran it.
// These tests run random programs unobserved and under each observer
// alone, and the limit stops and the step-then-run interleaving in both
// modes. A stepped run samples the same misses as a completed one.
//
//===----------------------------------------------------------------------===//

#include "analysis/RandomProgram.h"
#include "hw/HardwareModels.h"
#include "obs/CostLedger.h"
#include "sem/FullInterpreter.h"
#include "sem/Limits.h"
#include "types/LabelInference.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

#include <memory>
#include <string>
#include <vector>

using namespace zam;
using namespace zam::test;

namespace {
/// The one observer a run carries, if any.
enum class Observer { None, Probe, Sink, Misses, Events };

constexpr Observer kObservers[] = {Observer::Probe, Observer::Sink,
                                   Observer::Misses, Observer::Events};

const char *observerName(Observer O) {
  switch (O) {
  case Observer::None:
    return "unobserved";
  case Observer::Probe:
    return "probe";
  case Observer::Sink:
    return "sink";
  case Observer::Misses:
    return "misses";
  case Observer::Events:
    return "events";
  }
  return "?";
}

/// A probe that ignores what it is told.
class NullProbe final : public ExecProbe {
public:
  void onProgram(const IrProgram &) override {}
  void onDispatch(uint32_t) override {}
  void onBranch(uint32_t, bool) override {}
  void onSettle(unsigned, unsigned) override {}
};

/// The observers of one run and the options that attach exactly one.
struct Observers {
  NullProbe Probe;
  CostLedger Ledger;

  InterpreterOptions options(Observer O, uint64_t StepLimit) {
    InterpreterOptions Opts;
    Opts.StepLimit = StepLimit;
    Opts.RetainEvents = O == Observer::Events;
    Opts.RecordMisses = O == Observer::Misses;
    if (O == Observer::Probe)
      Opts.Probe = &Probe;
    if (O == Observer::Sink)
      Opts.Provenance = &Ledger;
    return Opts;
  }
};

/// What a run must end in, whoever watched it.
struct Outcome {
  uint64_t FinalTime = 0, Steps = 0;
  bool HitStepLimit = false;
  OpCounters Ops;
  std::vector<MitigateRecord> Mitigations;
  std::vector<unsigned> FinalMissTable;
  Memory FinalMemory;
  HwStats Hw;
  std::unique_ptr<MachineEnv> Env;
  /// The miss samples; only a run under Observer::Misses takes any, so
  /// expectSameOutcome leaves them out.
  std::vector<AccessSample> Misses;
};

Outcome outcomeOf(const Trace &T, const Memory &M,
                  std::unique_ptr<MachineEnv> Env) {
  Outcome Out;
  Out.FinalTime = T.FinalTime;
  Out.Steps = T.Steps;
  Out.HitStepLimit = T.HitStepLimit;
  Out.Ops = T.Ops;
  Out.Mitigations = T.Mitigations;
  Out.FinalMissTable = T.FinalMissTable;
  Out.FinalMemory = M;
  Out.Hw = Env->stats();
  Out.Env = std::move(Env);
  Out.Misses = T.Misses;
  return Out;
}

void expectSameOutcome(const Outcome &Want, const Outcome &Got) {
  EXPECT_EQ(Got.FinalTime, Want.FinalTime);
  EXPECT_EQ(Got.Steps, Want.Steps);
  EXPECT_EQ(Got.HitStepLimit, Want.HitStepLimit);
  EXPECT_EQ(Got.Ops, Want.Ops);
  EXPECT_EQ(Got.Mitigations, Want.Mitigations);
  EXPECT_EQ(Got.FinalMissTable, Want.FinalMissTable);
  EXPECT_TRUE(Got.FinalMemory == Want.FinalMemory);
  EXPECT_TRUE(Got.Hw == Want.Hw);
  EXPECT_TRUE(Got.Env->stateEquals(*Want.Env));
}

/// How a run is driven.
enum class Drive {
  Full,        ///< FullInterpreter to the end.
  StepThenRun, ///< Steps single step() calls, then complete().
};

/// Runs \p P on a clone of \p Template under observer \p O.
Outcome runUnder(const Program &P, const MachineEnv &Template, Observer O,
                 uint64_t StepLimit = kDefaultStepLimit,
                 Drive D = Drive::Full, unsigned Steps = 0) {
  auto Env = Template.clone();
  Observers Obs;
  InterpreterOptions Opts = Obs.options(O, StepLimit);
  if (D == Drive::Full) {
    RunResult R = runFull(P, *Env, std::move(Opts));
    return outcomeOf(R.T, R.FinalMemory, std::move(Env));
  }
  FullInterpreter S(P, *Env, std::move(Opts));
  for (unsigned I = 0; I != Steps && !S.done(); ++I)
    S.step();
  const Trace &T = S.complete();
  return outcomeOf(T, S.memory(), std::move(Env));
}

/// Well-typed random programs over \p Lat with arrays of \p ArraySize
/// words, half with distinct read and write labels.
std::vector<Program> randomPrograms(const SecurityLattice &Lat, uint64_t Seed,
                                    unsigned Count, unsigned ArraySize) {
  Rng R(Seed);
  std::vector<Program> Out;
  for (unsigned Trial = 0; Trial != 80 && Out.size() < Count; ++Trial) {
    RandomProgramOptions O;
    O.MaxDepth = 3;
    O.ArraySize = ArraySize;
    O.EqualTimingLabels = Trial % 2 == 0;
    if (std::optional<Program> P = randomWellTypedProgram(Lat, R, O))
      Out.push_back(std::move(*P));
  }
  return Out;
}

/// A loop that never ends and stores three events every four steps: it
/// fills the retained-event limit after about 5.6M steps.
Program endlessStores() {
  Program P = parseOrDie("var a : L[4];\n"
                         "var x : L;\n"
                         "var i : L;\n"
                         "while 1 do { a[i] := x; x := x + i; i := i + 1 }");
  inferTimingLabels(P);
  return P;
}
} // namespace

/// Every design on Table 1's caches and on the two-set geometry.
class ModeAgreement
    : public ::testing::TestWithParam<std::tuple<HwKind, CacheGeometry>> {
protected:
  HwKind kind() const { return std::get<0>(GetParam()); }
  CacheGeometry geometry() const { return std::get<1>(GetParam()); }
  /// A warm template on Table 1's caches, a cold one on the two-set
  /// geometry (where the programs evict anyway).
  std::unique_ptr<MachineEnv> templateFor(const SecurityLattice &Lat) const {
    if (geometry() == CacheGeometry::Table1 && &Lat == &lh())
      return warmTemplate(kind(), 0x5EED);
    return createMachineEnv(kind(), Lat, configOf(geometry()));
  }
  /// The random programs of both lattices on this geometry.
  std::vector<std::pair<const SecurityLattice *, Program>> programs() const {
    std::vector<std::pair<const SecurityLattice *, Program>> Out;
    for (const SecurityLattice *Lat :
         std::initializer_list<const SecurityLattice *>{&lh(), &lmh()}) {
      const uint64_t Seed = Lat == &lh() ? 0x0B5E : 0x3B5E;
      for (Program &P :
           randomPrograms(*Lat, Seed, 8, randomArraySize(geometry())))
        Out.emplace_back(Lat, std::move(P));
    }
    return Out;
  }
};

// Each observer alone leaves every outcome of the unobserved run as it
// was.
TEST_P(ModeAgreement, EachObserverAloneChangesNothing) {
  unsigned Programs = 0;
  uint64_t Evictions = 0;
  for (const auto &[Lat, P] : programs()) {
    SCOPED_TRACE("program " + std::to_string(Programs) + " over " +
                 std::to_string(Lat->size()) + " levels");
    ++Programs;
    auto Template = templateFor(*Lat);
    const Outcome Plain = runUnder(P, *Template, Observer::None);
    Evictions += Plain.Hw.L1D.Evictions;
    for (Observer O : kObservers) {
      SCOPED_TRACE(observerName(O));
      expectSameOutcome(Plain, runUnder(P, *Template, O));
    }
  }
  EXPECT_GE(Programs, 12u);
  static EvictionTally Tally;
  Tally.add(kind(), geometry(), Evictions);
}

// A run resumed after k single steps, and a run cut by the step limit,
// agree across the modes too.
TEST_P(ModeAgreement, StepThenRunAndStepLimitAgree) {
  for (const auto &[Lat, P] : programs()) {
    auto Template = templateFor(*Lat);
    const Outcome Whole = runUnder(P, *Template, Observer::None);
    ASSERT_FALSE(Whole.HitStepLimit);
    const uint64_t Limit = Whole.Steps / 2;
    const Outcome Cut = runUnder(P, *Template, Observer::None, Limit);
    EXPECT_TRUE(Cut.HitStepLimit || Whole.Steps < 2);
    for (Observer O : {Observer::None, Observer::Probe, Observer::Sink,
                       Observer::Misses, Observer::Events}) {
      SCOPED_TRACE(observerName(O));
      for (unsigned K : {0u, 1u, 7u}) {
        SCOPED_TRACE("step-then-run after " + std::to_string(K));
        expectSameOutcome(Whole, runUnder(P, *Template, O, kDefaultStepLimit,
                                          Drive::StepThenRun, K));
      }
      expectSameOutcome(Cut, runUnder(P, *Template, O, Limit));
      expectSameOutcome(Cut, runUnder(P, *Template, O, Limit,
                                      Drive::StepThenRun, 3));
    }
  }
}

// Under RecordMisses, a run resumed after k single steps, and a stepped run
// cut by the step limit, sample exactly the misses of the completed run:
// the engine installs the core as the env's observer around step() as it
// does around complete().
TEST_P(ModeAgreement, SteppedRunsSampleTheSameMisses) {
  size_t Samples = 0;
  for (const auto &[Lat, P] : programs()) {
    auto Template = templateFor(*Lat);
    const Outcome Whole = runUnder(P, *Template, Observer::Misses);
    ASSERT_FALSE(Whole.HitStepLimit);
    Samples += Whole.Misses.size();
    for (unsigned K : {0u, 1u, 7u}) {
      SCOPED_TRACE("step-then-run after " + std::to_string(K));
      EXPECT_EQ(runUnder(P, *Template, Observer::Misses, kDefaultStepLimit,
                         Drive::StepThenRun, K)
                    .Misses,
                Whole.Misses);
    }
    const uint64_t Limit = Whole.Steps / 2;
    const Outcome Cut = runUnder(P, *Template, Observer::Misses, Limit);
    Samples += Cut.Misses.size();
    EXPECT_EQ(runUnder(P, *Template, Observer::Misses, Limit,
                       Drive::StepThenRun, 3)
                  .Misses,
              Cut.Misses);
  }
  EXPECT_GT(Samples, 0u) << "no run sampled a miss";
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, ModeAgreement, allDesignsAndGeometries(),
                         designAndGeometryName);

class EventLimitModeAgreement : public ::testing::TestWithParam<HwKind> {};

// A retaining run stops at the event limit by lowering its step limit to
// the step that found the trace full. An unobserved run given that step
// limit stops in the same place, as does a retaining run driven by single
// steps before run().
TEST_P(EventLimitModeAgreement, EventStopMatchesStepStopUnobserved) {
  const Program P = endlessStores();
  auto Template = createMachineEnv(GetParam(), lh(), MachineEnvConfig());
  auto Env = Template->clone();
  InterpreterOptions Opts;
  ASSERT_TRUE(Opts.RetainEvents);
  RunResult Kept = runFull(P, *Env, Opts);
  ASSERT_TRUE(Kept.T.HitEventLimit);
  EXPECT_FALSE(Kept.T.HitStepLimit);
  EXPECT_EQ(Kept.T.Events.size(), kMaxRetainedEvents);
  Kept.T.Events = {}; // 128 MiB that nothing below reads.
  Outcome Retained = outcomeOf(Kept.T, Kept.FinalMemory, std::move(Env));
  // The step that dropped its event counts; the check after it stops.
  const Outcome Plain =
      runUnder(P, *Template, Observer::None, Retained.Steps - 1);
  EXPECT_TRUE(Plain.HitStepLimit);
  Retained.HitStepLimit = true; // The one field the two stops tell apart.
  expectSameOutcome(Plain, Retained);
  Outcome Stepped = runUnder(P, *Template, Observer::Events,
                             kDefaultStepLimit, Drive::StepThenRun, 5);
  Stepped.HitStepLimit = true;
  expectSameOutcome(Plain, Stepped);
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, EventLimitModeAgreement,
                         ::testing::ValuesIn(allHwKinds()),
                         [](const auto &Info) {
                           return std::string(hwKindName(Info.param));
                         });

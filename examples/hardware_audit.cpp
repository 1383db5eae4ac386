//===- hardware_audit.cpp - Auditing hardware against the contract ----------===//
//
// The paper's central abstraction is a software/hardware contract
// (Properties 1-7). This example plays the role of a hardware designer
// validating a new machine-environment implementation: it fuzzes each
// design with random labeled commands, memories, and cache states, and
// reports which properties hold. The commodity design fails the security
// properties — which is precisely why the timing attacks work on it.
//
// Build & run:  cmake --build build && ./build/examples/hardware_audit
//
//===----------------------------------------------------------------------===//

#include "analysis/PropertyCheckers.h"
#include "analysis/RandomProgram.h"
#include "hw/HardwareModels.h"
#include "sem/CostModel.h"

#include <cstdio>

using namespace zam;

namespace {

struct AuditResult {
  unsigned Trials = 0;
  unsigned Violations = 0;
  std::string FirstDetail;
};

void note(AuditResult &R, const PropertyReport &Rep) {
  ++R.Trials;
  if (!Rep.Holds) {
    ++R.Violations;
    if (R.FirstDetail.empty())
      R.FirstDetail = Rep.Detail;
  }
}

AuditResult auditProperty5(const Program &Decls, const MachineEnv &Env,
                           Rng &R, const RandomProgramOptions &O) {
  AuditResult Out;
  for (unsigned I = 0; I != 200; ++I) {
    CmdPtr C = randomCommand(Decls, R, O);
    Memory M = Memory::fromProgram(Decls, CostModel().DataBase);
    randomizeMemoryValues(M, R);
    auto EnvT = Env.clone();
    EnvT->randomize(R);
    note(Out, checkWriteLabel(Decls, *C, M, *EnvT));
  }
  return Out;
}

AuditResult auditProperty6(const Program &Decls, const MachineEnv &Env,
                           Rng &R, const RandomProgramOptions &O) {
  AuditResult Out;
  for (unsigned I = 0; I != 200; ++I) {
    CmdPtr C = randomCommand(Decls, R, O);
    Label Er = *activeCommand(*C).labels().Read;
    Memory M1 = Memory::fromProgram(Decls, CostModel().DataBase);
    randomizeMemoryValues(M1, R);
    Memory M2 = Memory::fromProgram(Decls, CostModel().DataBase);
    randomizeMemoryValues(M2, R);
    for (const std::string &V : vars1(*C))
      M2.slot(V).Data = M1.slot(V).Data;
    auto E1 = Env.clone();
    E1->randomize(R);
    auto E2 = E1->clone();
    E2->perturbAbove(Er, R);
    note(Out, checkReadLabel(Decls, *C, M1, M2, *E1, *E2));
  }
  return Out;
}

AuditResult auditProperty7(const Program &Decls, const MachineEnv &Env,
                           Rng &R, const RandomProgramOptions &O) {
  const SecurityLattice &Lat = Decls.lattice();
  AuditResult Out;
  for (unsigned I = 0; I != 100; ++I) {
    CmdPtr C = randomCommand(Decls, R, O);
    for (Label Level : Lat.allLabels()) {
      Memory M1 = Memory::fromProgram(Decls, CostModel().DataBase);
      randomizeMemoryValues(M1, R);
      Memory M2 = M1;
      perturbMemoryAbove(M2, Level, Lat, R);
      auto E1 = Env.clone();
      E1->randomize(R);
      auto E2 = E1->clone();
      E2->perturbAbove(Level, R);
      note(Out, checkSingleStepNI(Decls, *C, M1, M2, *E1, *E2, Level));
    }
  }
  return Out;
}

void report(const char *Property, const AuditResult &R) {
  if (R.Violations == 0) {
    std::printf("    %-28s PASS   (%u trials)\n", Property, R.Trials);
  } else {
    std::printf("    %-28s FAIL   (%u/%u violations)\n", Property,
                R.Violations, R.Trials);
    std::printf("      e.g. %s\n", R.FirstDetail.c_str());
  }
}

} // namespace

int main() {
  TwoPointLattice Lat;
  Rng R(0xC0FFEE);
  RandomProgramOptions O;
  O.MaxDepth = 2;
  O.EqualTimingLabels = false; // Audit the full [er, ew] interface.

  Program Decls(Lat);
  addRandomDeclarations(Decls, R, O);
  Decls.setBody(std::make_unique<SkipCmd>());
  Decls.number();

  for (HwKind Kind :
       {HwKind::NoPartition, HwKind::NoFill, HwKind::Partitioned}) {
    auto Env = createMachineEnv(Kind, Lat);
    std::printf("auditing %s:\n", Env->describe().c_str());
    report("Property 5 (write label)", auditProperty5(Decls, *Env, R, O));
    report("Property 6 (read label)", auditProperty6(Decls, *Env, R, O));
    report("Property 7 (single-step NI)", auditProperty7(Decls, *Env, R, O));
    std::printf("\n");
  }

  std::printf("Expected outcome: nopar fails the security properties (that\n"
              "is the attack surface); nofill and partitioned satisfy the\n"
              "contract, so the Sec. 5 type system's guarantees apply.\n");
  return 0;
}

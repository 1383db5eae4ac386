//===- TraceDump.cpp ------------------------------------------------------===//

#include "sem/TraceDump.h"

#include "support/StrAppend.h"

#include <cinttypes>
#include <cstdio>

using namespace zam;

std::string zam::dumpEvents(const Trace &T, const SecurityLattice &Lat,
                            std::optional<Label> Adversary) {
  T.requireEvents("dumpEvents");
  std::string Out;
  char Time[24];
  for (const AssignEvent &E : T.Events) {
    if (Adversary && !Lat.flowsTo(E.VarLabel, *Adversary))
      continue;
    std::snprintf(Time, sizeof(Time), "t=%-10" PRIu64 " ", E.Time);
    Out += Time;
    Out += T.varName(E);
    if (E.IsArrayStore) {
      Out += '[';
      appendInt(Out, E.ElemIndex);
      Out += ']';
    }
    Out += " := ";
    appendInt(Out, E.Value);
    Out += "   [";
    Out += Lat.name(E.VarLabel);
    Out += "]\n";
  }
  return Out;
}

std::string zam::dumpMitigations(const Trace &T, const SecurityLattice &Lat) {
  std::string Out;
  char Buf[200];
  for (const MitigateRecord &M : T.Mitigations) {
    std::snprintf(Buf, sizeof(Buf),
                  "mitigate #%u [pc %s, lev %s]: body %" PRIu64
                  " cycles, padded to %" PRIu64 "%s\n",
                  M.Eta, Lat.name(M.PcLabel).c_str(),
                  Lat.name(M.Level).c_str(), M.BodyTime, M.Duration,
                  M.Mispredicted ? " (mispredicted)" : "");
    Out += Buf;
  }
  return Out;
}

std::string zam::dumpTrace(const Trace &T, const SecurityLattice &Lat,
                           std::optional<Label> Adversary) {
  std::string Out = dumpEvents(T, Lat, Adversary);
  Out += dumpMitigations(T, Lat);
  const char *Stop = "";
  if (T.HitEventLimit)
    Stop = " (event limit hit)";
  else if (T.HitStepLimit)
    Stop = " (step limit hit)";
  char Buf[120];
  std::snprintf(Buf, sizeof(Buf),
                "terminated at G = %" PRIu64 " after %" PRIu64 " steps%s\n",
                T.FinalTime, T.Steps, Stop);
  Out += Buf;
  return Out;
}

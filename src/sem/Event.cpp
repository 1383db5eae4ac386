//===- Event.cpp ----------------------------------------------------------===//

#include "sem/Event.h"

#include "support/StrAppend.h"

using namespace zam;

std::string Trace::observationKey(Label AdversaryLevel,
                                  const SecurityLattice &Lat) const {
  std::string Key;
  for (const AssignEvent &E : Events) {
    if (!Lat.flowsTo(E.VarLabel, AdversaryLevel))
      continue;
    Key += varName(E);
    Key += '[';
    appendInt(Key, E.IsArrayStore ? E.ElemIndex : 0);
    Key += "]=";
    appendInt(Key, E.Value);
    Key += '@';
    appendInt(Key, E.Time);
    Key += ';';
  }
  return Key;
}

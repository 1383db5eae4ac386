//===- Memory.cpp ---------------------------------------------------------===//

#include "sem/Memory.h"

#include "support/Diagnostics.h"

#include <algorithm>
#include <cassert>

using namespace zam;

Memory Memory::fromProgram(const Program &P, Addr DataBase,
                           std::shared_ptr<const SlotNames> Names) {
  Memory M;
  Addr Next = DataBase;
  for (const VarDecl &D : P.vars()) {
    MemorySlot S;
    S.SecLabel = D.SecLabel;
    S.IsArray = D.IsArray;
    S.Base = Next;
    S.Data.assign(D.Size, 0);
    for (size_t I = 0; I != D.Init.size() && I != S.Data.size(); ++I)
      S.Data[I] = D.Init[I];
    Next += D.Size * 8;
    M.Slots.push_back(std::move(S));
  }
  M.Names = Names ? std::move(Names) : SlotNames::of(P);
  assert(M.Names->Names.size() == M.Slots.size() &&
         "name table of another program");
  return M;
}

const MemorySlot &Memory::slot(const std::string &Name) const {
  const size_t I = slotIndexOf(Name);
  if (I == npos)
    reportFatalError("access to undeclared variable");
  return Slots[I];
}

MemorySlot &Memory::slot(const std::string &Name) {
  return const_cast<MemorySlot &>(
      static_cast<const Memory *>(this)->slot(Name));
}

int64_t Memory::load(const std::string &Name) const {
  const MemorySlot &S = slot(Name);
  assert(!S.IsArray && "scalar load from an array");
  return S.Data[0];
}

void Memory::store(const std::string &Name, int64_t Value) {
  MemorySlot &S = slot(Name);
  assert(!S.IsArray && "scalar store to an array");
  S.Data[0] = Value;
}

/// The wrapped index of element \p RawIndex of array slot \p S.
static uint64_t wrapElem(const MemorySlot &S, int64_t RawIndex) {
  assert(S.IsArray && "indexing a scalar");
  return Memory::wrapRaw(RawIndex, S.Data.size());
}

uint64_t Memory::wrapIndex(const std::string &Name, int64_t RawIndex) const {
  return wrapElem(slot(Name), RawIndex);
}

int64_t Memory::loadElem(const std::string &Name, int64_t RawIndex) const {
  const MemorySlot &S = slot(Name);
  return S.Data[wrapElem(S, RawIndex)];
}

void Memory::storeElem(const std::string &Name, int64_t RawIndex,
                       int64_t Value) {
  MemorySlot &S = slot(Name);
  S.Data[wrapElem(S, RawIndex)] = Value;
}

Addr Memory::addrOf(const std::string &Name) const { return slot(Name).Base; }

Addr Memory::addrOfElem(const std::string &Name, int64_t RawIndex) const {
  const MemorySlot &S = slot(Name);
  return S.Base + wrapElem(S, RawIndex) * 8;
}

Label Memory::labelOf(const std::string &Name) const {
  return slot(Name).SecLabel;
}

void Memory::restoreValues(const Memory &Image) {
  assert(Slots.size() == Image.Slots.size() && "memories with different Γ");
  for (size_t I = 0; I != Slots.size(); ++I) {
    const std::vector<int64_t> &From = Image.Slots[I].Data;
    assert(Slots[I].Data.size() == From.size() && "memories with different Γ");
    std::copy(From.begin(), From.end(), Slots[I].Data.begin());
  }
}

bool Memory::equivalentUpTo(const Memory &Other, Label L,
                            const SecurityLattice &Lat) const {
  assert(Slots.size() == Other.Slots.size() && "memories with different Γ");
  assert((Names == Other.Names || Names->Names == Other.Names->Names) &&
         "memories with different Γ");
  for (size_t I = 0; I != Slots.size(); ++I) {
    const MemorySlot &A = Slots[I];
    const MemorySlot &B = Other.Slots[I];
    if (Lat.flowsTo(A.SecLabel, L) && A.Data != B.Data)
      return false;
  }
  return true;
}

bool Memory::projectionEquals(const Memory &Other, Label L) const {
  assert(Slots.size() == Other.Slots.size() && "memories with different Γ");
  for (size_t I = 0; I != Slots.size(); ++I)
    if (Slots[I].SecLabel == L && Slots[I].Data != Other.Slots[I].Data)
      return false;
  return true;
}

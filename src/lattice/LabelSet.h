//===- LabelSet.h - Sets of security labels ---------------------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sets of labels and the constructions of Sec. 6:
///
///   - LeA        = { ℓ ∈ L | ℓ ⋢ ℓA }          (levels not observable to
///                                               the adversary, Fig. 5a)
///   - L↑ (upward closure)
///                = { ℓ' | ∃ℓ ∈ L . ℓ ⊑ ℓ' }     (Fig. 5b)
///
/// These drive the quantitative leakage definitions (Defs. 1 and 2) and the
/// Sec. 7 leakage bound, which is proportional to |LeA↑|.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_LATTICE_LABELSET_H
#define ZAM_LATTICE_LABELSET_H

#include "lattice/SecurityLattice.h"

#include <string>
#include <vector>

namespace zam {

/// A subset of the levels of one SecurityLattice, stored as a bit vector
/// indexed by label index.
class LabelSet {
public:
  LabelSet() = default;
  explicit LabelSet(const SecurityLattice &Lat) : Bits(Lat.size(), false) {}
  LabelSet(const SecurityLattice &Lat, std::initializer_list<Label> Labels)
      : Bits(Lat.size(), false) {
    for (Label L : Labels)
      insert(L);
  }

  bool contains(Label L) const {
    return L.index() < Bits.size() && Bits[L.index()];
  }

  void insert(Label L) {
    assert(L.index() < Bits.size() && "label out of range for this lattice");
    Bits[L.index()] = true;
  }

  void erase(Label L) {
    assert(L.index() < Bits.size() && "label out of range for this lattice");
    Bits[L.index()] = false;
  }

  unsigned count() const;
  bool empty() const { return count() == 0; }

  bool operator==(const LabelSet &Other) const = default;

  /// Labels present in the set, in index order.
  std::vector<Label> members() const;

  /// Renders as "{L, H}" using the lattice's level names.
  std::string str(const SecurityLattice &Lat) const;

private:
  std::vector<bool> Bits;
};

/// LeA: the subset of \p L whose levels do NOT flow to the adversary level
/// \p AdversaryLevel (Sec. 6.2). These are the levels that can still give
/// the adversary new information.
LabelSet excludeObservable(const SecurityLattice &Lat, const LabelSet &L,
                           Label AdversaryLevel);

/// The upward closure L↑ = { ℓ' | ∃ℓ ∈ L . ℓ ⊑ ℓ' } (Sec. 6.3).
LabelSet upwardClosure(const SecurityLattice &Lat, const LabelSet &L);

/// Convenience composition: (LeA)↑ for the given L and adversary, which is
/// the set that Definition 2 and the Sec. 7 bound quantify over.
LabelSet unobservableUpwardClosure(const SecurityLattice &Lat,
                                   const LabelSet &L, Label AdversaryLevel);

} // namespace zam

#endif // ZAM_LATTICE_LABELSET_H

//===- SecurityLattice.h - Lattices of security labels ----------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The security lattice interface (Sec. 2.2 of the paper) and three concrete
/// lattices:
///
///   - TwoPointLattice:  L ⊑ H (the lattice used throughout Secs. 4 and 8)
///   - TotalOrderLattice: L ⊑ M ⊑ H ⊑ ... (used in the Sec. 6 examples)
///   - PowersetLattice:  subsets of a set of principals ordered by inclusion
///                       (a genuinely non-total multilevel lattice)
///
/// Every lattice is bounded: ⊥ (least restrictive) and ⊤ (most restrictive)
/// always exist, as the paper assumes.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_LATTICE_SECURITYLATTICE_H
#define ZAM_LATTICE_SECURITYLATTICE_H

#include "lattice/Label.h"

#include <cassert>
#include <optional>
#include <string>
#include <vector>

namespace zam {

/// A finite bounded lattice of security levels.
///
/// Labels are dense indices in [0, size()). Implementations must guarantee
/// the lattice axioms; verify() checks them exhaustively and is used by the
/// property-based tests.
class SecurityLattice {
public:
  virtual ~SecurityLattice();

  /// Number of levels in the lattice.
  virtual unsigned size() const = 0;

  /// The ordering ℓ1 ⊑ ℓ2: information may flow from ℓ1 to ℓ2.
  virtual bool flowsTo(Label L1, Label L2) const = 0;

  /// Least upper bound ℓ1 ⊔ ℓ2.
  virtual Label join(Label L1, Label L2) const = 0;

  /// Greatest lower bound ℓ1 ⊓ ℓ2.
  virtual Label meet(Label L1, Label L2) const = 0;

  /// The least restrictive level ⊥.
  virtual Label bottom() const = 0;

  /// The most restrictive level ⊤.
  virtual Label top() const = 0;

  /// Human-readable name of a level (e.g. "L", "H", "{Alice,Bob}").
  virtual std::string name(Label L) const = 0;

  /// Looks a level up by name; std::nullopt if no such level exists.
  virtual std::optional<Label> byName(const std::string &Name) const;

  /// True iff the two labels are incomparable.
  bool incomparable(Label L1, Label L2) const {
    return !flowsTo(L1, L2) && !flowsTo(L2, L1);
  }

  /// Exhaustively checks the lattice axioms (partial order; join/meet are
  /// least upper / greatest lower bounds; ⊥/⊤ are extremal). O(size³);
  /// intended for tests. \returns true when all axioms hold.
  bool verify() const;

  /// All labels, in index order. Convenient for iteration in analyses.
  std::vector<Label> allLabels() const;

  bool contains(Label L) const { return L.index() < size(); }
};

/// The two-point lattice L ⊑ H used in most of the paper.
class TwoPointLattice final : public SecurityLattice {
public:
  static Label low() { return Label::fromIndex(0); }
  static Label high() { return Label::fromIndex(1); }

  unsigned size() const override { return 2; }
  bool flowsTo(Label L1, Label L2) const override {
    return L1.index() <= L2.index();
  }
  Label join(Label L1, Label L2) const override {
    return Label::fromIndex(std::max(L1.index(), L2.index()));
  }
  Label meet(Label L1, Label L2) const override {
    return Label::fromIndex(std::min(L1.index(), L2.index()));
  }
  Label bottom() const override { return low(); }
  Label top() const override { return high(); }
  std::string name(Label L) const override;
};

/// A total order ⊥ = ℓ0 ⊑ ℓ1 ⊑ ... ⊑ ℓn-1 = ⊤ with caller-supplied names,
/// e.g. {"L","M","H"} for the three-level lattice of Sec. 6.
class TotalOrderLattice final : public SecurityLattice {
public:
  explicit TotalOrderLattice(std::vector<std::string> Names);

  unsigned size() const override { return Names.size(); }
  bool flowsTo(Label L1, Label L2) const override {
    assert(contains(L1) && contains(L2) && "label from another lattice");
    return L1.index() <= L2.index();
  }
  Label join(Label L1, Label L2) const override {
    assert(contains(L1) && contains(L2) && "label from another lattice");
    return Label::fromIndex(std::max(L1.index(), L2.index()));
  }
  Label meet(Label L1, Label L2) const override {
    assert(contains(L1) && contains(L2) && "label from another lattice");
    return Label::fromIndex(std::min(L1.index(), L2.index()));
  }
  Label bottom() const override { return Label::fromIndex(0); }
  Label top() const override { return Label::fromIndex(Names.size() - 1); }
  std::string name(Label L) const override;

private:
  std::vector<std::string> Names;
};

/// The powerset of a set of principals ordered by inclusion: a label is the
/// set of principals whose secrets it may contain. ⊥ = {} (public),
/// ⊤ = all principals. Labels for distinct singleton sets are incomparable,
/// making this the canonical non-total test lattice.
class PowersetLattice final : public SecurityLattice {
public:
  /// \p Principals must contain at most 20 names (2^20 levels).
  explicit PowersetLattice(std::vector<std::string> Principals);

  unsigned size() const override { return 1u << Principals.size(); }
  bool flowsTo(Label L1, Label L2) const override {
    assert(contains(L1) && contains(L2) && "label from another lattice");
    return (L1.index() & ~L2.index()) == 0;
  }
  Label join(Label L1, Label L2) const override {
    assert(contains(L1) && contains(L2) && "label from another lattice");
    return Label::fromIndex(L1.index() | L2.index());
  }
  Label meet(Label L1, Label L2) const override {
    assert(contains(L1) && contains(L2) && "label from another lattice");
    return Label::fromIndex(L1.index() & L2.index());
  }
  Label bottom() const override { return Label::fromIndex(0); }
  Label top() const override { return Label::fromIndex(size() - 1); }
  std::string name(Label L) const override;

  /// The label {P} for a single principal index.
  Label singleton(unsigned PrincipalIndex) const {
    assert(PrincipalIndex < Principals.size() && "no such principal");
    return Label::fromIndex(1u << PrincipalIndex);
  }

private:
  std::vector<std::string> Principals;
};

} // namespace zam

#endif // ZAM_LATTICE_SECURITYLATTICE_H

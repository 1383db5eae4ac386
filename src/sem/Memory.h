//===- Memory.h - Program memory m with simulated addresses -----*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The memory component m of configurations ⟨c, m, E, G⟩. Memory maps
/// variables to 64-bit values (scalars) or value vectors (arrays) and also
/// fixes the simulated address layout, so data accesses exercise the
/// machine environment's D-TLB and data caches the way a compiled program
/// would.
///
/// Memory and machine environment are deliberately separate (Sec. 3.3):
/// only memory affects control flow; both affect timing.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_SEM_MEMORY_H
#define ZAM_SEM_MEMORY_H

#include "hw/CacheConfig.h"
#include "lang/Ast.h"
#include "lattice/SecurityLattice.h"
#include "sem/Event.h"
#include "support/Diagnostics.h"

#include <memory>
#include <string>
#include <vector>

namespace zam {

/// Runtime storage for one declared variable. Its name lives in the
/// layout's shared SlotNames (Memory::slotName), so copying a memory copies
/// no strings.
struct MemorySlot {
  Label SecLabel; ///< Γ(x).
  bool IsArray = false;
  Addr Base = 0; ///< Simulated address of element 0.
  std::vector<int64_t> Data;

  bool operator==(const MemorySlot &Other) const = default;
};

/// The memory m. Array indices wrap modulo the array size (the semantics is
/// total: no trap states), and this is deterministic, so Property 2 holds.
class Memory {
public:
  Memory() = default;

  /// Builds memory from a program's declarations, laying variables out
  /// contiguously (8-byte words) from \p DataBase. \p Names, when given,
  /// is \p P's table (a compiled form shares its IR's); otherwise one is
  /// built.
  static Memory fromProgram(const Program &P, Addr DataBase = 0x10000000,
                            std::shared_ptr<const SlotNames> Names = nullptr);

  const MemorySlot &slot(const std::string &Name) const;
  MemorySlot &slot(const std::string &Name);

  /// Dense slot-index fast path used by the IR execution core. Indices
  /// follow declaration order — the same numbering the lowering pass bakes
  /// into load micro-ops and store operands — so no name resolution happens
  /// on the execution path. Unchecked in production (the lowering pass is
  /// the sole producer of indices); sanitizer builds verify the contract on
  /// every access.
  size_t slotCount() const { return Slots.size(); }
  const MemorySlot &slotAt(size_t I) const {
    checkSlotIndex(I, Slots.size());
    return Slots[I];
  }
  MemorySlot &slotAt(size_t I) {
    checkSlotIndex(I, Slots.size());
    return Slots[I];
  }

  /// The name of slot \p I.
  const std::string &slotName(size_t I) const {
    checkSlotIndex(I, Slots.size());
    return Names->Names[I];
  }

  /// Declaration-order index of \p Name, or npos when undeclared.
  static constexpr size_t npos = static_cast<size_t>(-1);
  size_t slotIndexOf(const std::string &Name) const {
    if (!Names)
      return npos;
    auto It = Names->Index.find(Name);
    return It == Names->Index.end() ? npos : It->second;
  }

  /// The layout's shared name table (null for a default-constructed
  /// memory). Traces alias it to name their events.
  const std::shared_ptr<const SlotNames> &slotNames() const { return Names; }

  /// Index wrapping, exposed statically so callers holding a raw element
  /// count (the IR engines) wrap exactly like wrapIndex does. A zero size
  /// would be a lowering bug (declarations guarantee ≥ 1 element) and is a
  /// division fault here; sanitizer builds turn it into a diagnosed abort.
  static uint64_t wrapRaw(int64_t RawIndex, uint64_t Size) {
    checkWrapSize(Size);
    int64_t N = static_cast<int64_t>(Size);
    int64_t I = RawIndex % N;
    if (I < 0)
      I += N;
    return static_cast<uint64_t>(I);
  }

  /// Scalar load/store.
  int64_t load(const std::string &Name) const;
  void store(const std::string &Name, int64_t Value);

  /// Array element load/store; \p RawIndex wraps modulo the array size.
  int64_t loadElem(const std::string &Name, int64_t RawIndex) const;
  void storeElem(const std::string &Name, int64_t RawIndex, int64_t Value);

  /// Wrapped (in-bounds) index for an array access.
  uint64_t wrapIndex(const std::string &Name, int64_t RawIndex) const;

  /// Simulated address of a scalar / of an array element.
  Addr addrOf(const std::string &Name) const;
  Addr addrOfElem(const std::string &Name, int64_t RawIndex) const;

  Label labelOf(const std::string &Name) const;

  /// m1 ~ℓ m2 (Sec. 3.4): agreement on every variable whose label flows to
  /// ℓ. Arrays compare element-wise. Slot layouts must match (asserted on
  /// the names).
  bool equivalentUpTo(const Memory &Other, Label L,
                      const SecurityLattice &Lat) const;

  /// m1 ≈ℓ m2: agreement on variables labeled exactly ℓ.
  bool projectionEquals(const Memory &Other, Label L) const;

  /// Overwrites every slot's values with \p Image's, which must have this
  /// memory's layout (a copy of the same image). The slot storage is
  /// reused and the shared name table left alone, so this allocates
  /// nothing: a restarted run (ExecCore::restart) rewinds its inputs here.
  void restoreValues(const Memory &Image);

  /// Equality of the slots; the name table is derived from them.
  bool operator==(const Memory &Other) const { return Slots == Other.Slots; }

private:
  /// Contract checks for the dense addressing fast path. Zero-cost in
  /// production; ZAM_SANITIZE builds (which define ZAM_SANITIZE_CHECKS)
  /// turn violations into diagnosed aborts instead of undefined behavior.
  static void checkSlotIndex(size_t I, size_t Count) {
#ifdef ZAM_SANITIZE_CHECKS
    if (I >= Count)
      reportFatalError("memory slot index out of range");
#endif
    (void)I;
    (void)Count;
  }
  static void checkWrapSize(uint64_t Size) {
#ifdef ZAM_SANITIZE_CHECKS
    if (Size == 0)
      reportFatalError("array index wrap modulus is zero");
#endif
    (void)Size;
  }

  std::vector<MemorySlot> Slots;
  /// Slot names and name → slot index. The layout never changes after
  /// fromProgram, so copies of one image (a run's memory is a copy of its
  /// compiled program's image) and the traces of runs over them share one
  /// table instead of rebuilding it.
  std::shared_ptr<const SlotNames> Names;
};

} // namespace zam

#endif // ZAM_SEM_MEMORY_H

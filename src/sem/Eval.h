//===- Eval.h - Shared expression evaluation --------------------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The value semantics of expressions, shared by the core semantics and the
/// timing-IR execution core (sem/ExecCore.h): total and deterministic —
/// division/modulo by zero yield 0, shift counts are masked to 6 bits,
/// arithmetic wraps modulo 2^64, and array indices wrap modulo the array
/// size. Timed evaluation (costs + hardware accesses) lives in the
/// execution core's micro-op loop; it applies these same operators, so the
/// engines agree with the core semantics by construction.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_SEM_EVAL_H
#define ZAM_SEM_EVAL_H

#include "lang/Ast.h"
#include "sem/Memory.h"

#include <cstdint>

namespace zam {

/// Applies a binary operator with the total semantics described above.
/// Always inlined: the execution core's micro-op switch has one case per
/// operator, each applying its operator as a constant, so the switch
/// below folds to that operator's code there.
[[gnu::always_inline]] inline int64_t applyBinOp(BinOpKind Op, int64_t L,
                                                 int64_t R) {
  // Arithmetic is performed on the unsigned representations so that
  // overflow wraps (deterministic, no UB).
  uint64_t UL = static_cast<uint64_t>(L);
  uint64_t UR = static_cast<uint64_t>(R);
  switch (Op) {
  case BinOpKind::Add:
    return static_cast<int64_t>(UL + UR);
  case BinOpKind::Sub:
    return static_cast<int64_t>(UL - UR);
  case BinOpKind::Mul:
    return static_cast<int64_t>(UL * UR);
  case BinOpKind::Div:
    if (R == 0)
      return 0;
    if (L == INT64_MIN && R == -1)
      return INT64_MIN; // Wraps.
    return L / R;
  case BinOpKind::Mod:
    if (R == 0)
      return 0;
    if (L == INT64_MIN && R == -1)
      return 0;
    return L % R;
  case BinOpKind::Eq:
    return L == R;
  case BinOpKind::Ne:
    return L != R;
  case BinOpKind::Lt:
    return L < R;
  case BinOpKind::Le:
    return L <= R;
  case BinOpKind::Gt:
    return L > R;
  case BinOpKind::Ge:
    return L >= R;
  case BinOpKind::LogicalAnd:
    return (L != 0) && (R != 0);
  case BinOpKind::LogicalOr:
    return (L != 0) || (R != 0);
  case BinOpKind::BitAnd:
    return static_cast<int64_t>(UL & UR);
  case BinOpKind::BitOr:
    return static_cast<int64_t>(UL | UR);
  case BinOpKind::BitXor:
    return static_cast<int64_t>(UL ^ UR);
  case BinOpKind::Shl:
    return static_cast<int64_t>(UL << (UR & 63));
  case BinOpKind::Shr:
    return static_cast<int64_t>(UL >> (UR & 63));
  }
  return 0;
}

/// Applies a unary operator. Always inlined, as applyBinOp.
[[gnu::always_inline]] inline int64_t applyUnOp(UnOpKind Op, int64_t V) {
  switch (Op) {
  case UnOpKind::Neg:
    return static_cast<int64_t>(-static_cast<uint64_t>(V));
  case UnOpKind::LogicalNot:
    return V == 0;
  case UnOpKind::BitNot:
    return ~V;
  }
  return 0;
}

/// Evaluates \p E in \p M without timing (core semantics).
int64_t evalExprPure(const Expr &E, const Memory &M);

} // namespace zam

#endif // ZAM_SEM_EVAL_H

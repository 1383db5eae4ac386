//===- Limits.h - Shared execution safety nets ------------------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Safety-net bounds shared by every interpreter. Each one ends a run that
/// reaches it with a flag on the trace (Trace::HitStepLimit,
/// Trace::HitEventLimit), so a caller can tell a finished run from a
/// stopped one and name the limit.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_SEM_LIMITS_H
#define ZAM_SEM_LIMITS_H

#include <cstdint>

namespace zam {

/// Default bound on primitive evaluation steps, shared by the core
/// interpreter and both full-semantics engines (InterpreterOptions).
///
/// The language is Turing-complete (`while` with arbitrary guards), so a
/// diverging program would otherwise hang every property checker, fuzz
/// driver and leakage enumeration that executes untrusted — often randomly
/// generated — programs. The limit is a safety net, not a semantic bound:
/// it is far above any workload in the repository (the Fig. 8 RSA
/// decryption, the heaviest case study, takes ~42k steps per run), so
/// hitting it means "this program does not terminate in any time we are
/// willing to wait". Runs that hit it are flagged (Trace::HitStepLimit)
/// rather than treated as completed. Callers with a tighter latency budget
/// (e.g. divergence tests) pass an explicit lower limit.
///
/// A run that keeps no events (InterpreterOptions::RetainEvents off) holds
/// no per-step state, so it reaches this limit in flat memory.
inline constexpr uint64_t kDefaultStepLimit = 500'000'000;

/// Bound on the assignment events one retaining run keeps in
/// Trace::Events: 2^22 events of 32 bytes, 128 MiB. That is about 200x the
/// heaviest run in the repository (a Fig. 8 decryption records 21,039), so
/// reaching it means the program does not terminate, or runs too long to
/// trace in memory. The run then stops at its next step check with
/// Trace::HitEventLimit set, instead of growing the vector until the
/// allocator fails; a run that retains no events never reaches it and is
/// bounded by the step limit alone.
inline constexpr uint64_t kMaxRetainedEvents = uint64_t(1) << 22;

} // namespace zam

#endif // ZAM_SEM_LIMITS_H

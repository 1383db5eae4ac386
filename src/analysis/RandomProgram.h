//===- RandomProgram.h - Random programs for property testing ---*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generators for property-based testing:
///
///   - randomDeclarations / randomCommand: arbitrary labeled commands over
///     a random Γ. The hardware security properties (5-7) are quantified
///     over ALL labeled commands, not just well-typed ones, so these
///     deliberately include ill-typed programs.
///
///   - randomWellTypedProgram: generate-and-filter through label inference
///     and the type checker, producing well-typed programs for the
///     Theorem 1/2 and adequacy/determinism properties. Loops are bounded
///     by construction so generated programs terminate.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_ANALYSIS_RANDOMPROGRAM_H
#define ZAM_ANALYSIS_RANDOMPROGRAM_H

#include "lang/Ast.h"
#include "support/Rng.h"

#include <optional>

namespace zam {

struct RandomProgramOptions {
  unsigned NumScalars = 6;
  unsigned NumArrays = 2;
  unsigned ArraySize = 8;
  unsigned MaxDepth = 4;
  unsigned MaxSeqLength = 4;
  /// Maximum iterations of generated counting loops.
  unsigned MaxLoopTrips = 4;
  bool AllowMitigate = true;
  bool AllowSleep = true;
  /// When set, generated labels satisfy er == ew (commodity hardware).
  bool EqualTimingLabels = true;
};

/// Populates \p P with randomly labeled scalar and array declarations named
/// v0..vN / a0..aM with random initial values.
void addRandomDeclarations(Program &P, Rng &R, const RandomProgramOptions &O);

/// A random (possibly ill-typed) labeled command over \p P's declarations.
/// Every non-Seq command carries complete, randomly chosen timing labels.
CmdPtr randomCommand(const Program &P, Rng &R, const RandomProgramOptions &O);

/// A random memory for \p P's declarations (uniform small values).
void randomizeMemoryValues(class Memory &M, Rng &R, int64_t MaxAbs = 64);

/// Redraws (uniform in [-64, 64], slot by slot) every variable of \p M
/// whose label does not flow to \p Level, so the result stays ~Level to
/// the input: the premise of the noninterference checks.
void perturbMemoryAbove(class Memory &M, Label Level,
                        const SecurityLattice &Lat, Rng &R);

/// Generates programs until one passes label inference + type checking, up
/// to \p MaxAttempts. Programs come out numbered and fully labeled.
std::optional<Program>
randomWellTypedProgram(const SecurityLattice &Lat, Rng &R,
                       const RandomProgramOptions &O = RandomProgramOptions(),
                       unsigned MaxAttempts = 50);

} // namespace zam

#endif // ZAM_ANALYSIS_RANDOMPROGRAM_H

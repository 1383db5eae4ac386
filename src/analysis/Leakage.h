//===- Leakage.h - Quantitative leakage measurement (Sec. 6) ----*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multilevel quantitative security machinery of Secs. 6 and 7:
///
///   - Q(L, ℓA, c, m, E) (Definition 1): log2 of the number of
///     distinguishable ℓA-observations over variations of the LeA parts of
///     memory. Measured here by enumerating caller-supplied secret
///     variations and counting distinct (x, v, t) observation sequences.
///
///   - V(L, ℓA, c, m, E) (Definition 2): the set of timing vectors of the
///     projected mitigate commands (those in low contexts, pc(M_η) ∉ LeA↑,
///     when some mitigation level lies in LeA↑).
///
///   - Theorem 2:  Q ≤ log2 |V|  — checked empirically.
///   - Lemma 1: the projected mitigate-command *identities* are
///     low-deterministic — checked empirically.
///   - The Sec. 7 closed-form bound |LeA↑| · log2(K+1) · (1 + log2 T).
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_ANALYSIS_LEAKAGE_H
#define ZAM_ANALYSIS_LEAKAGE_H

#include "hw/MachineEnv.h"
#include "lang/Ast.h"
#include "lattice/LabelSet.h"
#include "obs/LeakAudit.h"
#include "sem/FullInterpreter.h"

#include <cstdint>
#include <string>
#include <vector>

namespace zam {

/// One secret variation: scalar overrides applied to the initial memory.
struct SecretAssignment {
  std::vector<std::pair<std::string, int64_t>> Scalars;
  std::vector<std::pair<std::string, std::vector<int64_t>>> Arrays;

  void applyTo(Memory &M) const;
};

/// Inputs to the leakage measurement.
struct LeakageSpec {
  LabelSet SourceLevels; ///< L in Q(L, ℓA, ...).
  Label Adversary;       ///< ℓA.
  /// The memory variations to enumerate. Every variation must differ from
  /// the base memory only in variables whose level lies in LeA↑ (validated;
  /// violations abort the measurement).
  std::vector<SecretAssignment> Variations;
};

/// Results of one measurement.
struct LeakageResult {
  unsigned DistinctObservations = 0; ///< |{(x,v,t) sequences}|.
  double QBits = 0;                  ///< log2(DistinctObservations).
  /// Shannon-entropy leakage I(S;O) under a uniform prior on the supplied
  /// variations. The system is deterministic, so this is H(O) ≤ Q — the
  /// "bounds those of Shannon entropy" remark under Definition 1.
  double ShannonBits = 0;
  /// Min-entropy leakage under the uniform prior. For a deterministic
  /// system this equals log2(#distinct observations) = Q exactly.
  double MinEntropyBits = 0;
  unsigned DistinctTimingVectors = 0; ///< |V|.
  double VBits = 0;                   ///< log2 |V|.
  bool TheoremTwoHolds = false;       ///< Q ≤ log |V|.
  bool MitigatesLowDeterministic = false; ///< Lemma 1.
  uint64_t MaxFinalTime = 0;          ///< T, for the closed-form bound.
  uint64_t RelevantMitigates = 0;     ///< K, for the closed-form bound.
  double ClosedFormBoundBits = 0;     ///< |LeA↑|·log2(K+1)·(1+log2 T).
  /// Some variation's run stopped at a limit (sem/Limits.h) before it
  /// finished. Its observation is incomplete, so the measures above do not
  /// describe the program.
  bool HitStepLimit = false;
  bool HitEventLimit = false;
};

/// Runs \p P once per variation (each run on a fresh clone of \p EnvTemplate
/// with the same initial machine environment) and measures Q, V and the
/// Sec. 7 bound. The program must be well-typed for the theorems to apply;
/// this function measures regardless (benches use it to demonstrate leakage
/// of *insecure* configurations too).
///
/// The variations are independent deterministic runs and fan out over a
/// ParallelRunner with \p Threads workers (0 = auto via ZAM_THREADS /
/// hardware_concurrency); per-run records are reduced in submission order,
/// so the result is bit-identical for any thread count.
LeakageResult measureLeakage(const Program &P, const MachineEnv &EnvTemplate,
                             const LeakageSpec &Spec,
                             InterpreterOptions Opts = InterpreterOptions(),
                             unsigned Threads = 0);

// The Sec. 7 closed-form bound leakageBoundBits() and the per-window
// accounting now live in obs/LeakAudit.h (included above): the online
// accountant and this batch analysis share one bound core, so the numbers
// they report can never drift apart.

/// Canonical encoding of the Definition 2 projection of a trace's mitigate
/// vector: the duration components of mitigates that execute in low
/// contexts with high mitigation levels — pc(M_η) ∉ LeA↑ and
/// lev(M_η) ∈ LeA↑.
std::string timingVectorKey(const Trace &T, const SecurityLattice &Lat,
                            const LabelSet &UnobsUpward);

/// The mitigate-identity projection used by Lemma 1: the η sequence of
/// mitigates with pc(M_η) ∉ LeA↑. For well-typed programs this sequence is
/// identical across all LeA↑-variations.
std::vector<unsigned> mitigateIdentityProjection(const Trace &T,
                                                 const LabelSet &UnobsUpward);

} // namespace zam

#endif // ZAM_ANALYSIS_LEAKAGE_H

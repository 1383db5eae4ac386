//===- Adversary.h - Secret sampler / observation collector -----*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sampling half of the empirical adversary: run N executions of a
/// program with secrets drawn from named classes, and record for each run
/// exactly what a Sec. 6.1 adversary at level ℓA can see — the end-to-end
/// time and the durations of the ℓA-counted mitigate windows — plus the
/// run's own analytic leakage bound for the empirical-vs-analytic
/// cross-check.
///
/// Determinism contract: sample i always executes with Rng(mix(Seed, i))
/// and classes are assigned round-robin (i mod K), so the observation
/// vector is a pure function of (program, hw design, classes, samples,
/// seed). Execution fans out over exp::ParallelRunner, which returns
/// results in submission order — the bag is byte-identical at any thread
/// count, and downstream detector sums consume it in that fixed order.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_ADV_ADVERSARY_H
#define ZAM_ADV_ADVERSARY_H

#include "adv/LeakDetector.h"
#include "exp/ParallelRunner.h"
#include "hw/MachineEnv.h"
#include "lang/Ast.h"
#include "obs/TraceSink.h"
#include "sem/FullInterpreter.h"
#include "support/Rng.h"

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace zam {

/// How to draw one secret class's inputs before a sample runs. All three
/// mechanisms compose: Fixed stores land first, then Ranges (drawn from
/// the sample's Rng in declaration order), then the Prepare hook.
struct SecretClassSpec {
  struct Range {
    std::string Var;
    int64_t Lo = 0;
    int64_t Hi = 0; ///< Inclusive.
  };

  std::string Name;
  /// var := value, the same every sample of this class.
  std::vector<std::pair<std::string, int64_t>> Fixed;
  /// var := uniform draw from [Lo, Hi] per sample.
  std::vector<Range> Ranges;
  /// Arbitrary C++ preparation (bench workloads: login requests, RSA
  /// ciphertexts). Must be thread-safe and draw randomness only from the
  /// supplied Rng.
  std::function<void(Memory &, Rng &)> Prepare;
};

/// Knobs for one attack experiment.
struct AttackOptions {
  unsigned Samples = 256; ///< Total, spread round-robin over the classes.
  uint64_t Seed = 0x5EED; ///< Base seed; sample i runs with mix(Seed, i).
  /// Sec. 6.1 adversary level for window counting and the analytic bound;
  /// nullopt is the conservative any-observer account.
  std::optional<Label> Adversary;
};

/// The per-sample seed: a splitmix-style mix so consecutive indices land
/// in unrelated Rng streams. Exposed so offline tooling can restate which
/// stream a sample used.
inline uint64_t sampleSeed(uint64_t Seed, size_t Index) {
  return Seed ^ (0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(Index) + 1));
}

/// Fixed fan-out chunk of the streaming collector. Chunking is a function
/// of the sample index only — never the thread count — so the drain order
/// (and with it every downstream double sum and trace byte) is identical
/// at any parallelism.
inline constexpr size_t kObservationChunk = 2048;

/// Streams Opts.Samples executions of \p P (sample i: class i mod K), each
/// on a copy of \p EnvTemplate (one env per worker slice, restored in
/// place before every sample), under \p IOpts, fanning out over \p Runner in
/// fixed kObservationChunk batches and invoking \p OnObservation(O, i) in
/// strict sample order as each batch drains. At most one chunk of full
/// observations is alive at a time, so collecting 10^6 samples needs
/// O(chunk) memory; the callback owns all retention (compact rows, online
/// histograms, trace records). Aborts on an unknown Fixed/Ranges variable
/// (callers validate for graceful errors). The runs retain no assignment
/// events, whatever \p IOpts says. \returns the sample count.
size_t streamObservations(
    const Program &P, const MachineEnv &EnvTemplate,
    const std::vector<SecretClassSpec> &Classes, const AttackOptions &Opts,
    const InterpreterOptions &IOpts, const ParallelRunner &Runner,
    const std::function<void(const Observation &, size_t)> &OnObservation);

/// Runs Opts.Samples executions of \p P (sample i: class i mod K) on
/// copies of \p EnvTemplate under \p IOpts, fanning out over \p Runner.
/// Each observation carries the adversary-projected window durations and
/// the run's analytic bound from a per-run LeakAudit replay. Aborts on an
/// unknown Fixed/Ranges variable (callers validate for graceful errors).
/// Retains every observation — prefer streamObservations at scale.
std::vector<Observation>
collectObservations(const Program &P, const MachineEnv &EnvTemplate,
                    const std::vector<SecretClassSpec> &Classes,
                    const AttackOptions &Opts, const InterpreterOptions &IOpts,
                    const ParallelRunner &Runner);

/// Serializes one observation through \p Sink as a cat "adv" instant
/// record, Ts = \p Index (trace time axes must be nondecreasing; the real
/// timing rides in the args). Args: class, class_index, end_to_end,
/// windows ("a,b,c"), bound_bits (shortest round-trip decimal, so offline
/// recomputation is bit-for-bit). Returns the record count (1).
size_t exportObservation(TraceSink &Sink, const Observation &O, size_t Index,
                         const std::vector<std::string> &ClassNames);

/// Serializes \p Obs through \p Sink via exportObservation, one record per
/// sample in bag order. Returns the record count.
size_t exportObservations(TraceSink &Sink, const std::vector<Observation> &Obs,
                          const std::vector<std::string> &ClassNames);

} // namespace zam

#endif // ZAM_ADV_ADVERSARY_H

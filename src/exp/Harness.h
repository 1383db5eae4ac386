//===- Harness.h - Shared bench command-line handling -----------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A harness bench takes the flags that `zamc` shares with it
/// (exp/CommandLine.h) that it honours, parsed by the same code; any other
/// argument, a shared flag the bench would ignore included, exits 2 with
/// a message naming it. The shared flags are `--threads N` (0 = auto
/// via ZAM_THREADS / hardware_concurrency), `--json <file>` (the Report as
/// machine-readable JSON next to the human-readable tables), `--trace-out
/// <file>` / `--trace-format jsonl|chrome|ztb` (the bench's representative
/// run as a telemetry trace; without --trace-format the extension decides,
/// .jsonl, .json or .ztb, and any other is an error before the bench
/// runs), `--seed S` (base Rng seed; absent or 0 keeps the bench default),
/// `--samples N` (per-cell sample budget) and `--progress` (a stderr-only
/// meter, ProgressMeter below, that never touches stdout, JSON reports or
/// trace bytes). Report content is a pure function of (program, seed,
/// samples) and byte-identical at any `--threads` / ZAM_THREADS setting.
/// Emitted reports carry a `meta` provenance block (obs/Telemetry.h
/// provenanceJson).
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_EXP_HARNESS_H
#define ZAM_EXP_HARNESS_H

#include "exp/CommandLine.h"
#include "exp/Report.h"
#include "sem/Event.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>

namespace zam {

class SecurityLattice;

/// Parsed harness options.
struct HarnessOptions : SharedFlags {
  bool Ok = true; ///< False on malformed arguments.

  /// The base seed: --seed, or \p Default when it is absent or 0.
  uint64_t seedOr(uint64_t Default) const {
    return Seed.value_or(0) ? *Seed : Default;
  }
};

/// The shared flags a bench honours: a set of these bits.
enum HarnessFlag : unsigned {
  TakesThreads = 1u << 0,  ///< --threads
  TakesJson = 1u << 1,     ///< --json
  TakesTrace = 1u << 2,    ///< --trace-out and --trace-format
  TakesSeed = 1u << 3,     ///< --seed
  TakesSamples = 1u << 4,  ///< --samples
  TakesProgress = 1u << 5, ///< --progress
};

/// Parses a bench's argv, which holds only shared flags in \p Takes (a set
/// of HarnessFlag bits), and settles the trace format. Anything else, a
/// shared flag outside \p Takes included, sets Ok = false after a message
/// naming the argument and the flags the bench takes (benches exit 2).
HarnessOptions parseHarnessArgs(int Argc, char **Argv, unsigned Takes);

/// Writes \p R to Opts.JsonPath when requested, with the provenance `meta`
/// block appended. \returns false after a write diagnostic.
bool emitReportJson(const Report &R, const HarnessOptions &Opts);

/// Exports \p T (a bench's representative telemetry run) to
/// Opts.TraceOutPath when requested (writeTraceFile). \returns false
/// after a write diagnostic.
bool emitBenchTrace(const Trace &T, const SecurityLattice &Lat,
                    const HarnessOptions &Opts);

/// A stderr-only progress meter: `what: done/total (pct%) eta Ns`,
/// carriage-return refreshed at most ~10×/s and finished with a newline.
/// Disabled instances are free; enabled ones write only to stderr, so
/// stdout tables, --json documents and trace bytes are byte-identical
/// whether or not a meter runs. tick() is thread-safe (workers may call it
/// directly from a ParallelRunner lambda).
/// A `Total` of 0 renders as an indeterminate `what: N/?` counter (no
/// percentage, no per-paint newline). Completion — or destruction of a
/// meter that painted anything — always terminates the stderr line with a
/// newline, so a redirected stderr never ends mid-repaint.
class ProgressMeter {
public:
  ProgressMeter(const char *What, uint64_t Total, bool Enabled);
  ~ProgressMeter();

  /// Advances the counter by one and maybe repaints (thread-safe).
  void tick();

  /// Sets the absolute count and maybe repaints (single-writer use).
  void update(uint64_t Done);

  /// Ends the meter's stderr line: emits the trailing newline if any
  /// repaint was painted and the line is still open. Idempotent; called
  /// by the destructor, so abandoned meters (early error paths,
  /// indeterminate totals) still leave stderr clean.
  void finish();

private:
  void paint(uint64_t Done);

  const char *What;
  uint64_t Total;
  bool Enabled;
  std::atomic<uint64_t> Count{0};
  std::chrono::steady_clock::time_point Start;
  std::chrono::steady_clock::time_point Last;
  std::mutex Mu; ///< Serializes repaints from worker threads.
  bool Painted = false;        ///< Any repaint reached stderr (under Mu).
  bool NewlineEmitted = false; ///< The line was terminated (under Mu).
};

} // namespace zam

#endif // ZAM_EXP_HARNESS_H

//===- CommandLine.h - Shared flags and artifact files ----------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The command-line layer that `zamc`, `zamtrace` and the harness benches
/// (exp/Harness.h) share:
///
///   - the seven flags zamc and every bench take (SharedFlags), parsed and
///     bounded once by parseSharedFlag;
///   - the rule that picks a --trace-out file's format
///     (resolveTraceFormat);
///   - every artifact file: whole files are read with readFile and
///     written with writeFile, traces are streamed with writeTraceFile.
///
/// A write that fails ends in one of two diagnostics on stderr:
/// "error: cannot write '<path>'" when the file does not open, and
/// "error: short write to '<path>'" when a write, a flush or the close
/// fails (a full device shows only at the last flush or at fclose).
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_EXP_COMMANDLINE_H
#define ZAM_EXP_COMMANDLINE_H

#include "obs/TraceSink.h"

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace zam {

struct PolicySelection;

/// The flags zamc and every harness bench share. A numeric or format flag
/// that was not given reads as absent; an empty path means no file.
struct SharedFlags {
  unsigned Threads = 0; ///< --threads N (<= 1024); 0: ZAM_THREADS / hardware.
  std::optional<uint64_t> Seed;    ///< --seed S: base Rng seed.
  std::optional<unsigned> Samples; ///< --samples N (1 to 10^7).
  std::string JsonPath;            ///< --json FILE.
  std::string TraceOutPath;        ///< --trace-out FILE.
  /// --trace-format jsonl|chrome|ztb; after resolveTraceFormat, the format
  /// of every --trace-out file.
  std::optional<TraceFormat> TraceFmt;
  bool Progress = false; ///< --progress: a stderr-only progress meter.
};

/// What parseSharedFlag made of one argument.
enum class FlagParse {
  NotShared, ///< Not one of the seven flags.
  Parsed,    ///< Stored; the index is left on the flag's last argument.
  Malformed, ///< A shared flag with a missing or out-of-range value.
};

/// Offers Argv[I] to the shared flags and stores it in \p Out when it is
/// one. An unknown --trace-format value is also named on stderr.
FlagParse parseSharedFlag(int Argc, char **Argv, int &I, SharedFlags &Out);

/// Settles the format of --trace-out: an explicit --trace-format wins,
/// else the extension decides (.jsonl → jsonl, .json → chrome, .ztb →
/// binary). Any other extension is an error, because a silent default
/// would write bytes that a reader then misclassifies. \returns false
/// after a diagnostic.
bool resolveTraceFormat(SharedFlags &Flags);

/// The bytes of \p Path, or nullopt after "error: cannot read '<path>'".
std::optional<std::string> readFile(const std::string &Path);

/// Writes \p Text to \p Path, replacing it. \returns false after one of
/// the two write diagnostics.
bool writeFile(const std::string &Path, std::string_view Text);

/// Header keys beyond the provenance that every trace carries.
using TraceHeader = std::vector<std::pair<std::string, std::string>>;

/// Streams one trace to Flags.TraceOutPath in its resolved format. The
/// header is the provenance of the run (the resolved thread count and
/// \p Mitigation) followed by \p Extra. \p Produce writes the records
/// into the sink and returns how many. Records leave the process in
/// 64 KiB chunks as they serialize, so no trace is held whole. \returns
/// true after "wrote N trace records to <path>" on stderr, false after
/// one of the two write diagnostics.
bool writeTraceFile(const SharedFlags &Flags,
                    const PolicySelection &Mitigation,
                    const TraceHeader &Extra,
                    const std::function<size_t(TraceSink &)> &Produce);

} // namespace zam

#endif // ZAM_EXP_COMMANDLINE_H

//===- RsaApp.h - The Sec. 8.4 RSA decryption case study --------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Multi-block RSA decryption in the object language. Only the modular
/// exponentiation uses the confidential private exponent d, so only that
/// section is labeled high and wrapped in a mitigate; the per-block
/// preprocess/postprocess steps perform public assignments whose timing the
/// adversary observes. Decryption time depends on d through the
/// square-and-multiply branch (the classic Kocher channel), which the
/// per-block mitigate closes.
///
/// Program shape (per-block mitigation mode):
///
///   b := 0;
///   while (b < nblocks) {             // nblocks is public
///     prog := b;                      // preprocess: observable low event
///     c := cblocks[b];
///     mitigate (E, H) {               // modexp: result := c^d mod nmod
///       result := 1; basev := c % nmod; ev := d;
///       while (ev > 0) {              // H guard: key-dependent trip/branch
///         if (ev & 1) { result := result*basev mod nmod };  // peasant mul
///         basev := basev*basev mod nmod;
///         ev := ev >> 1
///       }
///     };
///     plain[b] := result;
///     done := b + 1;                  // postprocess: observable low event
///     b := b + 1
///   }
///
/// Modular multiplication is expanded in-language as shift-and-add (the
/// modulus is below 2^61, so sums never overflow).
///
/// Three modes reproduce the evaluation:
///   Unmitigated — the timing attack of Fig. 8 (fails type checking);
///   PerBlock    — the paper's language-level mitigation (type-checks);
///   WholeRun    — system-level predictive mitigation [5] simulated by one
///                 mitigate around the entire body (Fig. 9 baseline; also
///                 fails type checking, as external mitigation provides no
///                 language-level guarantee).
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_APPS_RSAAPP_H
#define ZAM_APPS_RSAAPP_H

#include "crypto/ToyRsa.h"
#include "hw/MachineEnv.h"
#include "lang/Ast.h"
#include "sem/CompiledProgram.h"
#include "sem/FullInterpreter.h"

#include <optional>
#include <vector>

namespace zam {

enum class RsaMitigationMode { Unmitigated, PerBlock, WholeRun };

struct RsaProgramConfig {
  RsaMitigationMode Mode = RsaMitigationMode::PerBlock;
  int64_t Estimate = 1;    ///< Initial prediction for each mitigate.
  unsigned MaxBlocks = 16; ///< Capacity of the block buffers.
};

/// Builds the decryption program with \p Key's modulus (public) and private
/// exponent (secret) baked into the declarations.
Program buildRsaProgram(const SecurityLattice &Lat, const RsaKey &Key,
                        const RsaProgramConfig &Config);

/// Writes a ciphertext (≤ MaxBlocks blocks) into \p M.
void setRsaMessage(Memory &M, const std::vector<uint64_t> &CipherBlocks);

struct RsaDecryptResult {
  uint64_t Cycles = 0;
  std::vector<uint64_t> Plain; ///< Decrypted blocks (from secret memory).
  /// The run's trace: clock, steps and mitigate windows. It carries no
  /// assignment events (the session runs with RetainEvents off).
  Trace T;
};

/// A decryption session over one machine environment and persistent
/// mitigation state. Its runs retain no assignment events. One interpreter
/// serves every decryption, restarted in place for each, so a decryption
/// builds no interpreter and the access sites' repeat tickets (all hit
/// tickets on a warm env) stay warm from one decryption to the next. The session points into itself
/// (the interpreter shares its Miss table) and cannot be moved.
class RsaSession {
public:
  RsaSession(const SecurityLattice &Lat, const RsaKey &Key,
             const RsaProgramConfig &Config, MachineEnv &Env,
             InterpreterOptions Opts = InterpreterOptions());
  RsaSession(const RsaSession &) = delete;
  RsaSession &operator=(const RsaSession &) = delete;

  RsaDecryptResult decrypt(const std::vector<uint64_t> &CipherBlocks);

  const Program &program() const { return P; }

private:
  Program P;
  CompiledProgram Compiled; ///< P, compiled once for every decryption.
  MachineEnv &Env;
  InterpreterOptions Opts;
  MitigationState MitState;
  /// The interpreter every decryption restarts; the first one builds it.
  std::optional<FullInterpreter> Interp;
};

/// Samples per-block modexp body times over \p Samples random one-block
/// messages and returns 110% of the average (the Sec. 8.2 calibration).
int64_t calibrateRsaEstimate(const SecurityLattice &Lat, const RsaKey &Key,
                             const MachineEnv &EnvTemplate, unsigned Samples,
                             Rng &R, unsigned MaxBlocks = 16);

} // namespace zam

#endif // ZAM_APPS_RSAAPP_H

//===- LoginApp.h - The Sec. 8.3 web-login case study -----------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The web-application login of Sec. 8.3, written in the object language.
/// The secret is the hashmap m of MD5 digests of valid usernames with their
/// password digests, plus the login state; the request inputs (username and
/// password digests) and the constant `response := 1` are public. The
/// timing channel of Bortz & Boneh arises because valid usernames walk a
/// probe chain and verify a 4-word password digest while invalid ones stop
/// at an empty slot — valid attempts are measurably slower. Two mitigate
/// commands around the lookup and the password check close the channel,
/// exactly where the type system forces them.
///
/// As in the paper's pseudo-code, the request digests are computed *inside*
/// the mitigated regions (line 1 hashes the username, lines 5-10 hash the
/// password): a 64-round mixing loop stands in for MD5. That constant-work
/// hashing dominates both mitigated bodies, which is what makes the
/// mitigation overhead modest (Table 2).
///
/// Program shape (labels after inference; table size N, probe window 8):
///
///   response := 0;
///   mitigate (E1, H) {                   // lookup: m.contains(md5(user))
///     hv := u;  t := 0;
///     while (t < 64) { hv := mix(hv) + t; t := t + 1 }   // "md5(user)"
///     found := 0; idx := 0; probe := 0; jj := hv % N;
///     while (probe < 8 && found == 0 && muser[jj] != 0) {   // H guard
///       if (muser[jj] == hv) { found := 1; idx := jj } else { skip };
///       jj := (jj + 1) % N;  probe := probe + 1
///     }
///   };
///   mitigate (E2, H) {                   // check: hash == md5(pass)
///     ok := 0;
///     if (found == 1) {
///       pv := pq[0];  tk := 0;
///       while (tk < 64) { pv := mix(pv) + pq[tk & 3] + tk; tk := tk + 1 }
///       if (pv == mpass[idx]) { ok := 1 } else { skip };
///       state := state + ok
///     } else { skip }
///   };
///   response := 1                        // always 1: no storage channel
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_APPS_LOGINAPP_H
#define ZAM_APPS_LOGINAPP_H

#include "hw/MachineEnv.h"
#include "lang/Ast.h"
#include "sem/CompiledProgram.h"
#include "sem/FullInterpreter.h"
#include "support/Rng.h"

#include <string>
#include <vector>

namespace zam {

/// The secret side of the workload: the credential hashmap. Open addressing
/// with linear probing; slot 0-digest means empty.
struct LoginTable {
  unsigned Size = 100;              ///< Table slots N.
  std::vector<int64_t> UserDigests; ///< muser[i]; 0 when the slot is empty.
  std::vector<int64_t> PassDigests; ///< mpass[i]: folded password digest.
  std::vector<std::string> ValidUsernames; ///< The usernames present.
};

/// C++ replica of the object-language 64-round username mix: the table
/// builder must hash exactly like the program does.
int64_t loginUserHash(int64_t WireDigest);

/// C++ replica of the object-language password fold over the four wire
/// words pq[0..3].
int64_t loginPassHash(const int64_t Words[4]);

/// Builds a table holding \p NumValid valid accounts "user0".."userV-1"
/// (password "pass<i>"), hashed into \p TableSize slots by digest modulo
/// with linear probing.
LoginTable makeLoginTable(unsigned TableSize, unsigned NumValid, Rng &R);

struct LoginProgramConfig {
  bool Mitigated = true;
  int64_t Estimate1 = 1; ///< Initial prediction of the lookup mitigate.
  int64_t Estimate2 = 1; ///< Initial prediction of the check mitigate.
};

/// Builds the (type-checked when mitigated) login program over the
/// two-point lattice \p Lat, with the table baked into the initial memory.
Program buildLoginProgram(const SecurityLattice &Lat, const LoginTable &Table,
                          const LoginProgramConfig &Config);

/// Writes one request's public inputs (username digest u and the four
/// password digest words pq[0..3]) into \p M.
void setLoginRequest(Memory &M, const std::string &Username,
                     const std::string &Password);

/// Result of one simulated login attempt.
struct LoginAttemptResult {
  uint64_t Cycles = 0;   ///< Attempt latency (final clock of the run).
  bool Accepted = false; ///< Whether the credentials matched (secret!).
};

/// A login session: runs attempts against one machine environment and a
/// persistent mitigation Miss table, as a server would. Its runs retain no
/// assignment events; a result carries the latency and the verdict.
class LoginSession {
public:
  LoginSession(const SecurityLattice &Lat, const LoginTable &Table,
               const LoginProgramConfig &Config, MachineEnv &Env,
               InterpreterOptions Opts = InterpreterOptions());

  /// Runs one attempt; the machine environment and Miss table persist.
  LoginAttemptResult attempt(const std::string &Username,
                             const std::string &Password);

  /// Clears the prediction schedule (fresh Miss table), keeping the
  /// machine environment.
  void resetMitigation() { MitState.reset(); }

  /// The session's live prediction schedule.
  const MitigationState &mitigationState() const { return MitState; }

  const Program &program() const { return P; }

private:
  Program P;
  CompiledProgram Compiled; ///< P, compiled once for every attempt.
  MachineEnv &Env;
  InterpreterOptions Opts;
  MitigationState MitState;
};

/// Samples mitigated-body times over \p Samples random usernames (half the
/// candidate names valid) on a clone of \p EnvTemplate and returns initial
/// predictions at 110% of the largest observed body (the Sec. 8.2
/// calibration, using the per-request maximum so that steady-state
/// execution stays on the initial schedule).
std::pair<int64_t, int64_t> calibrateLoginEstimates(const SecurityLattice &Lat,
                                                    const LoginTable &Table,
                                                    const MachineEnv &EnvTemplate,
                                                    unsigned Samples, Rng &R);

} // namespace zam

#endif // ZAM_APPS_LOGINAPP_H

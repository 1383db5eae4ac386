//===- CompiledProgram.h - A program compiled once, run many times -*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The executable form of a program: its lowered IR (the one program form
/// of ir/Ir.h, held by value) and the initial memory image. Compiling
/// depends on the program and on two fields of InterpreterOptions, the
/// *lowering inputs* — Costs and Mitigation — and on nothing a run
/// changes. Workloads that run one program many times (a login session's
/// attempts, RSA decryptions, adversary samples, leakage variations)
/// therefore compile once; each run then copies only the memory image.
///
/// A compiled form is immutable, so any number of engines on any number of
/// threads may share one. An engine handed options whose lowering inputs
/// differ from the compiled form's aborts with a diagnostic: the IR would
/// silently disagree with the options about costs or policies.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_SEM_COMPILEDPROGRAM_H
#define ZAM_SEM_COMPILEDPROGRAM_H

#include "ir/Ir.h"
#include "lang/Ast.h"
#include "sem/InterpreterOptions.h"
#include "sem/Memory.h"

namespace zam {

class CompiledProgram {
public:
  /// Compiles \p P's body under \p Opts' lowering inputs. \p P, and the
  /// policies \p Opts points at, must outlive the compiled form.
  explicit CompiledProgram(const Program &P,
                           const InterpreterOptions &Opts = {});

  /// Compiles the detached command \p C (kept alive here) against \p P's
  /// declarations — the property checkers run single labeled commands.
  CompiledProgram(const Program &P, CmdPtr C, const InterpreterOptions &Opts);

  CompiledProgram(const CompiledProgram &) = delete;
  CompiledProgram &operator=(const CompiledProgram &) = delete;
  ~CompiledProgram();

  const Program &program() const { return P; }
  const IrProgram &ir() const { return IR; }
  /// The memory every run starts from: the declarations laid out from
  /// Costs.DataBase, before any run-specific input is poked in.
  const Memory &initialMemory() const { return Init; }
  /// Moves the image out, leaving this form without one. Only for an
  /// engine that compiled the form itself for a single run (the Program
  /// constructors): it spares that run the copy a shared form needs.
  Memory takeInitialMemory() { return std::move(Init); }

  /// The first lowering input on which \p Opts differs from this form's
  /// ("Costs" or "Mitigation"), or nullptr.
  const char *mismatchedInput(const InterpreterOptions &Opts) const;

  /// Aborts with a diagnostic naming \p Engine and the mismatched input
  /// unless \p Opts has this form's lowering inputs.
  void requireInputsOf(const InterpreterOptions &Opts,
                       const char *Engine) const;

private:
  const Program &P;
  CmdPtr Owned;
  /// The lowering inputs, as compiled.
  CostModel Costs;
  PolicySelection Mitigation;
  IrProgram IR;
  Memory Init;
};

} // namespace zam

#endif // ZAM_SEM_COMPILEDPROGRAM_H

//===- Ast.h - Abstract syntax for the timing-channel language --*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstract syntax of Fig. 1:
///
///   e ::= n | x | e op e
///   c ::= skip[er,ew] | (x := e)[er,ew] | c;c
///       | (while e do c)[er,ew] | (if e then c1 else c2)[er,ew]
///       | (mitigate_η (e,ℓ) c)[er,ew] | (sleep e)[er,ew]
///
/// extended with element-labeled arrays (x[e] reads, (x[e1] := e2) writes),
/// which the paper's case studies need (hashmap scans, message blocks) and
/// which type like scalar accesses joined with the index label.
///
/// Every command except sequential composition carries the pair of timing
/// labels [er, ew]: the read label bounds the machine-environment state that
/// may influence the command's duration; the write label lower-bounds the
/// machine-environment state the command may modify (Sec. 2.2). Labels may
/// be absent in the surface program, in which case the inference pass
/// (types/LabelInference.h) fills in the least restrictive choices.
///
/// Nodes use LLVM-style kind tags with isa/cast-style accessors instead of
/// RTTI. Ownership is by unique_ptr from parent to child; a Program owns the
/// root command and the variable declarations (the security environment Γ).
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_LANG_AST_H
#define ZAM_LANG_AST_H

#include "lattice/Label.h"
#include "lattice/SecurityLattice.h"
#include "support/SourceLoc.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace zam {

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

enum class BinOpKind {
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
  LogicalAnd,
  LogicalOr,
  BitAnd,
  BitOr,
  BitXor,
  Shl,
  Shr,
};

enum class UnOpKind { Neg, LogicalNot, BitNot };

/// Spelled operator, e.g. "+" or "<=".
const char *binOpSpelling(BinOpKind Op);
const char *unOpSpelling(UnOpKind Op);

class Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// Base class of all expressions.
class Expr {
public:
  enum class Kind { IntLit, Var, ArrayRead, BinOp, UnOp };

  virtual ~Expr();

  Kind kind() const { return K; }
  SourceLoc loc() const { return Loc; }

  /// Deep copy (used when programs are specialized per experiment).
  virtual ExprPtr clone() const = 0;

protected:
  Expr(Kind K, SourceLoc Loc) : K(K), Loc(Loc) {}

private:
  const Kind K;
  SourceLoc Loc;
};

/// An integer literal n. Values are 64-bit signed, as in the interpreter.
class IntLitExpr final : public Expr {
public:
  IntLitExpr(int64_t Value, SourceLoc Loc = SourceLoc())
      : Expr(Kind::IntLit, Loc), Value(Value) {}

  int64_t value() const { return Value; }
  ExprPtr clone() const override;

  static bool classof(const Expr *E) { return E->kind() == Kind::IntLit; }

private:
  int64_t Value;
};

/// A scalar variable reference x.
class VarExpr final : public Expr {
public:
  explicit VarExpr(std::string Name, SourceLoc Loc = SourceLoc())
      : Expr(Kind::Var, Loc), Name(std::move(Name)) {}

  const std::string &name() const { return Name; }
  ExprPtr clone() const override;

  static bool classof(const Expr *E) { return E->kind() == Kind::Var; }

private:
  std::string Name;
};

/// An array element read x[e].
class ArrayReadExpr final : public Expr {
public:
  ArrayReadExpr(std::string Array, ExprPtr Index, SourceLoc Loc = SourceLoc())
      : Expr(Kind::ArrayRead, Loc), Array(std::move(Array)),
        Index(std::move(Index)) {}

  const std::string &array() const { return Array; }
  const Expr &index() const { return *Index; }
  ExprPtr clone() const override;

  static bool classof(const Expr *E) { return E->kind() == Kind::ArrayRead; }

private:
  std::string Array;
  ExprPtr Index;
};

/// A binary operation e1 op e2.
class BinOpExpr final : public Expr {
public:
  BinOpExpr(BinOpKind Op, ExprPtr LHS, ExprPtr RHS, SourceLoc Loc = SourceLoc())
      : Expr(Kind::BinOp, Loc), Op(Op), LHS(std::move(LHS)),
        RHS(std::move(RHS)) {}

  BinOpKind op() const { return Op; }
  const Expr &lhs() const { return *LHS; }
  const Expr &rhs() const { return *RHS; }
  ExprPtr clone() const override;

  static bool classof(const Expr *E) { return E->kind() == Kind::BinOp; }

private:
  BinOpKind Op;
  ExprPtr LHS, RHS;
};

/// A unary operation op e.
class UnOpExpr final : public Expr {
public:
  UnOpExpr(UnOpKind Op, ExprPtr Sub, SourceLoc Loc = SourceLoc())
      : Expr(Kind::UnOp, Loc), Op(Op), Sub(std::move(Sub)) {}

  UnOpKind op() const { return Op; }
  const Expr &sub() const { return *Sub; }
  ExprPtr clone() const override;

  static bool classof(const Expr *E) { return E->kind() == Kind::UnOp; }

private:
  UnOpKind Op;
  ExprPtr Sub;
};

/// Collects the names of all variables/arrays read by \p E into \p Out.
/// This is the expression part of the vars1 function of Property 6.
void collectExprVars(const Expr &E, std::vector<std::string> &Out);

//===----------------------------------------------------------------------===//
// Commands
//===----------------------------------------------------------------------===//

/// The [er, ew] annotation pair. Either may be absent in surface syntax;
/// type checking requires both (inference supplies them).
struct TimingLabels {
  std::optional<Label> Read;
  std::optional<Label> Write;

  bool complete() const { return Read.has_value() && Write.has_value(); }
};

class Cmd;
using CmdPtr = std::unique_ptr<Cmd>;

/// Base class of all commands.
///
/// Every command carries a NodeId, assigned by Program::number(), which the
/// full semantics uses as the command's code address for instruction-cache
/// simulation and which analyses use as a stable identifier.
class Cmd {
public:
  enum class Kind {
    Skip,
    Assign,
    ArrayAssign,
    Seq,
    If,
    While,
    Mitigate,
    Sleep,
  };

  virtual ~Cmd();

  Kind kind() const { return K; }
  SourceLoc loc() const { return Loc; }

  bool isSeq() const { return K == Kind::Seq; }

  /// The [er,ew] pair. Meaningless (and asserted against) for Seq, which the
  /// paper gives no timing labels.
  TimingLabels &labels() {
    assert(!isSeq() && "sequential composition carries no timing labels");
    return Labels;
  }
  const TimingLabels &labels() const {
    assert(!isSeq() && "sequential composition carries no timing labels");
    return Labels;
  }

  unsigned nodeId() const { return NodeId; }
  void setNodeId(unsigned Id) { NodeId = Id; }

  virtual CmdPtr clone() const = 0;

protected:
  Cmd(Kind K, SourceLoc Loc) : K(K), Loc(Loc) {}

private:
  const Kind K;
  SourceLoc Loc;
  TimingLabels Labels;
  unsigned NodeId = 0;
};

/// skip[er,ew] — consumes real time (instruction fetch) but has no effect.
class SkipCmd final : public Cmd {
public:
  explicit SkipCmd(SourceLoc Loc = SourceLoc()) : Cmd(Kind::Skip, Loc) {}

  CmdPtr clone() const override;

  static bool classof(const Cmd *C) { return C->kind() == Kind::Skip; }
};

/// (x := e)[er,ew]
class AssignCmd final : public Cmd {
public:
  AssignCmd(std::string Var, ExprPtr Value, SourceLoc Loc = SourceLoc())
      : Cmd(Kind::Assign, Loc), Var(std::move(Var)), Value(std::move(Value)) {}

  const std::string &var() const { return Var; }
  const Expr &value() const { return *Value; }
  CmdPtr clone() const override;

  static bool classof(const Cmd *C) { return C->kind() == Kind::Assign; }

private:
  std::string Var;
  ExprPtr Value;
};

/// (x[e1] := e2)[er,ew] — array extension.
class ArrayAssignCmd final : public Cmd {
public:
  ArrayAssignCmd(std::string Array, ExprPtr Index, ExprPtr Value,
                 SourceLoc Loc = SourceLoc())
      : Cmd(Kind::ArrayAssign, Loc), Array(std::move(Array)),
        Index(std::move(Index)), Value(std::move(Value)) {}

  const std::string &array() const { return Array; }
  const Expr &index() const { return *Index; }
  const Expr &value() const { return *Value; }
  CmdPtr clone() const override;

  static bool classof(const Cmd *C) { return C->kind() == Kind::ArrayAssign; }

private:
  std::string Array;
  ExprPtr Index, Value;
};

/// c1; c2 — no timing labels of its own (Sec. 3).
class SeqCmd final : public Cmd {
public:
  SeqCmd(CmdPtr First, CmdPtr Second, SourceLoc Loc = SourceLoc())
      : Cmd(Kind::Seq, Loc), First(std::move(First)),
        Second(std::move(Second)) {}

  const Cmd &first() const { return *First; }
  const Cmd &second() const { return *Second; }
  Cmd &first() { return *First; }
  Cmd &second() { return *Second; }

  CmdPtr clone() const override;

  static bool classof(const Cmd *C) { return C->kind() == Kind::Seq; }

private:
  CmdPtr First, Second;
};

/// (if e then c1 else c2)[er,ew]
class IfCmd final : public Cmd {
public:
  IfCmd(ExprPtr Cond, CmdPtr Then, CmdPtr Else, SourceLoc Loc = SourceLoc())
      : Cmd(Kind::If, Loc), Cond(std::move(Cond)), Then(std::move(Then)),
        Else(std::move(Else)) {}

  const Expr &cond() const { return *Cond; }
  const Cmd &thenCmd() const { return *Then; }
  const Cmd &elseCmd() const { return *Else; }
  Cmd &thenCmd() { return *Then; }
  Cmd &elseCmd() { return *Else; }

  CmdPtr clone() const override;

  static bool classof(const Cmd *C) { return C->kind() == Kind::If; }

private:
  ExprPtr Cond;
  CmdPtr Then, Else;
};

/// (while e do c)[er,ew] — the guard may be high: the language permits loops
/// on confidential data, unlike transformation-based approaches (Sec. 1).
class WhileCmd final : public Cmd {
public:
  WhileCmd(ExprPtr Cond, CmdPtr Body, SourceLoc Loc = SourceLoc())
      : Cmd(Kind::While, Loc), Cond(std::move(Cond)), Body(std::move(Body)) {}

  const Expr &cond() const { return *Cond; }
  const Cmd &body() const { return *Body; }
  Cmd &body() { return *Body; }

  CmdPtr clone() const override;

  static bool classof(const Cmd *C) { return C->kind() == Kind::While; }

private:
  ExprPtr Cond;
  CmdPtr Body;
};

/// (mitigate_η (e, ℓ) c)[er,ew] — executes c, padding its duration to the
/// predictive-mitigation schedule so at most a bounded amount of information
/// at levels up to the mitigation level ℓ leaks through timing (Secs. 2.3, 7).
class MitigateCmd final : public Cmd {
public:
  MitigateCmd(unsigned MitigateId, ExprPtr InitialEstimate, Label MitLevel,
              CmdPtr Body, SourceLoc Loc = SourceLoc())
      : Cmd(Kind::Mitigate, Loc), MitigateId(MitigateId),
        InitialEstimate(std::move(InitialEstimate)), MitLevel(MitLevel),
        Body(std::move(Body)) {}

  /// The unique identifier η of this mitigate in the program source.
  unsigned mitigateId() const { return MitigateId; }
  void setMitigateId(unsigned Id) { MitigateId = Id; }

  const Expr &initialEstimate() const { return *InitialEstimate; }

  /// The mitigation level ℓ: lev(M_η) in Sec. 6.3.
  Label mitLevel() const { return MitLevel; }

  const Cmd &body() const { return *Body; }
  Cmd &body() { return *Body; }

  CmdPtr clone() const override;

  static bool classof(const Cmd *C) { return C->kind() == Kind::Mitigate; }

private:
  unsigned MitigateId;
  ExprPtr InitialEstimate;
  Label MitLevel;
  CmdPtr Body;
};

/// (sleep e)[er,ew] — suspends for max(e, 0) cycles (Property 4).
class SleepCmd final : public Cmd {
public:
  explicit SleepCmd(ExprPtr Duration, SourceLoc Loc = SourceLoc())
      : Cmd(Kind::Sleep, Loc), Duration(std::move(Duration)) {}

  const Expr &duration() const { return *Duration; }
  CmdPtr clone() const override;

  static bool classof(const Cmd *C) { return C->kind() == Kind::Sleep; }

private:
  ExprPtr Duration;
};

/// vars1(c[er,ew]): the variables whose values may affect the timing of the
/// *single next* evaluation step of c (Property 6, Sec. 3.6). For compound
/// commands only the guard expression counts; subcommands are excluded.
std::vector<std::string> vars1(const Cmd &C);

//===----------------------------------------------------------------------===//
// Programs
//===----------------------------------------------------------------------===//

/// A declared variable: the security environment Γ plus storage metadata.
struct VarDecl {
  std::string Name;
  Label SecLabel;      ///< Γ(x); for arrays, the label of every element.
  bool IsArray = false;
  uint64_t Size = 1;   ///< Element count (1 for scalars).
  std::vector<int64_t> Init; ///< Initial contents; zero-filled when shorter.
};

/// A complete program: declarations (Γ) plus the root command.
class Program {
public:
  explicit Program(const SecurityLattice &Lat) : Lat(&Lat) {}

  const SecurityLattice &lattice() const { return *Lat; }

  void addVar(VarDecl Decl) { Vars.push_back(std::move(Decl)); }
  const std::vector<VarDecl> &vars() const { return Vars; }
  std::vector<VarDecl> &vars() { return Vars; }

  /// Looks a declaration up by name; nullptr when absent.
  const VarDecl *findVar(const std::string &Name) const;
  VarDecl *findVar(const std::string &Name);

  void setBody(CmdPtr C) { Body = std::move(C); }
  const Cmd &body() const {
    assert(Body && "program has no body");
    return *Body;
  }
  Cmd &body() {
    assert(Body && "program has no body");
    return *Body;
  }
  bool hasBody() const { return Body != nullptr; }

  /// Assigns dense NodeIds (preorder) to every command and fresh η ids (in
  /// source order) to every mitigate. Returns the number of commands.
  unsigned number();

  unsigned numMitigates() const { return NumMitigates; }

  /// Deep copy sharing the same lattice.
  Program clone() const;

private:
  const SecurityLattice *Lat;
  std::vector<VarDecl> Vars;
  CmdPtr Body;
  unsigned NumMitigates = 0;
};

} // namespace zam

#endif // ZAM_LANG_AST_H

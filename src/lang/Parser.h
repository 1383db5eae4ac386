//===- Parser.h - Recursive-descent parser ----------------------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parses the concrete syntax of the Fig. 1 language:
///
///   program := decl* cmd
///   decl    := "var" ident ":" label ("[" int "]")? ("=" init)? ";"
///   init    := intlit | "{" intlit ("," intlit)* "}"
///   cmd     := simple (";" cmd)?
///   simple  := "skip" ann?
///            | ident ":=" expr ann?
///            | ident "[" expr "]" ":=" expr ann?
///            | "if" expr "then" block "else" block ann?
///            | "while" expr "do" block ann?
///            | "mitigate" "(" expr "," label ")" block ann?
///            | "sleep" "(" expr ")" ann?
///            | block
///   block   := "{" cmd "}"
///   ann     := "@[" label "," label "]"        -- the [er, ew] pair
///   label   := ident                            -- resolved via the lattice
///
/// Expressions use C-like precedence. Label names are resolved against the
/// SecurityLattice supplied at construction; unknown names are diagnosed.
///
/// Nesting is bounded (Parser::kMaxNesting): every later pass — label
/// inference, type checking, lowering, printing, even destroying the tree —
/// recurses over the AST, so a deeper input is rejected here with a located
/// diagnostic instead of overflowing the stack somewhere downstream.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_LANG_PARSER_H
#define ZAM_LANG_PARSER_H

#include "lang/Ast.h"
#include "lang/Lexer.h"
#include "support/Diagnostics.h"

#include <optional>

namespace zam {

/// Recursive-descent parser. On error the parser reports into the
/// DiagnosticEngine and returns std::nullopt; there is no exception use.
class Parser {
public:
  Parser(std::string Source, const SecurityLattice &Lat,
         DiagnosticEngine &Diags);

  /// Parses a full program (declarations + body) and numbers its nodes.
  std::optional<Program> parseProgram();

  /// Parses a single expression; used by tests.
  ExprPtr parseExprOnly();

  /// The deepest nesting accepted. Parentheses and array indices, unary
  /// and binary operators, blocks and ';'-sequenced commands (a sequence
  /// nests to the right) each add a level.
  static constexpr unsigned kMaxNesting = 1000;

private:
  class Nesting;

  const Token &peek(unsigned Ahead = 0) const;
  const Token &advance();
  bool check(TokKind Kind) const { return peek().Kind == Kind; }
  bool accept(TokKind Kind);
  bool expect(TokKind Kind, const char *Context);

  std::optional<Label> parseLabelName();
  void parseAnnotation(Cmd &C);
  bool parseDecl(Program &P);
  CmdPtr parseCmd();
  CmdPtr parseSimpleCmd();
  CmdPtr parseBlock();
  ExprPtr parseExpr() { return parseBinary(0); }
  ExprPtr parseBinary(int MinPrec);
  ExprPtr parseUnary();
  ExprPtr parsePrimary();

  const SecurityLattice &Lat;
  DiagnosticEngine &Diags;
  std::vector<Token> Toks;
  size_t Pos = 0;
  unsigned Depth = 0;            ///< Levels the open parse functions hold.
  bool NestingReported = false; ///< The limit is diagnosed once.
};

/// Convenience wrapper: lex+parse \p Source, returning the program or
/// std::nullopt with diagnostics in \p Diags.
std::optional<Program> parseProgram(const std::string &Source,
                                    const SecurityLattice &Lat,
                                    DiagnosticEngine &Diags);

} // namespace zam

#endif // ZAM_LANG_PARSER_H

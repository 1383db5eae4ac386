//===- Parser.cpp ---------------------------------------------------------===//

#include "lang/Parser.h"

#include <string>

using namespace zam;

/// The nesting levels one parse function holds; released on return.
class Parser::Nesting {
public:
  explicit Nesting(Parser &P) : P(P) {}
  ~Nesting() { P.Depth -= Held; }

  /// Enters one more level at \p Loc. \returns false, reporting the limit
  /// once per parse, when that is deeper than kMaxNesting.
  bool enter(SourceLoc Loc) {
    ++P.Depth;
    ++Held;
    if (P.Depth <= kMaxNesting)
      return true;
    if (!P.NestingReported) {
      P.NestingReported = true;
      P.Diags.error(Loc, "nesting exceeds the limit of " +
                             std::to_string(kMaxNesting) +
                             " levels (parentheses, operators, blocks and "
                             "';'-sequenced commands each add one)");
    }
    return false;
  }

private:
  Parser &P;
  unsigned Held = 0;
};

Parser::Parser(std::string Source, const SecurityLattice &Lat,
               DiagnosticEngine &Diags)
    : Lat(Lat), Diags(Diags) {
  Lexer Lex(std::move(Source), Diags);
  Toks = Lex.lexAll();
}

const Token &Parser::peek(unsigned Ahead) const {
  size_t Index = Pos + Ahead;
  if (Index >= Toks.size())
    Index = Toks.size() - 1; // Eof token.
  return Toks[Index];
}

const Token &Parser::advance() {
  const Token &Tok = Toks[Pos];
  if (Pos + 1 < Toks.size())
    ++Pos;
  return Tok;
}

bool Parser::accept(TokKind Kind) {
  if (!check(Kind))
    return false;
  advance();
  return true;
}

bool Parser::expect(TokKind Kind, const char *Context) {
  if (accept(Kind))
    return true;
  Diags.error(peek().Loc, std::string("expected ") + tokKindName(Kind) +
                              " " + Context + ", found " +
                              tokKindName(peek().Kind));
  return false;
}

std::optional<Label> Parser::parseLabelName() {
  // Powerset-lattice labels are written as principal sets: {A,B} or {}.
  if (accept(TokKind::LBrace)) {
    std::string Name = "{";
    SourceLoc Loc = peek().Loc;
    bool First = true;
    while (!check(TokKind::RBrace)) {
      if (!First && !expect(TokKind::Comma, "between principals"))
        return std::nullopt;
      if (!check(TokKind::Ident)) {
        Diags.error(peek().Loc, "expected principal name in label set");
        return std::nullopt;
      }
      if (!First)
        Name += ",";
      Name += advance().Text;
      First = false;
    }
    expect(TokKind::RBrace, "to close the label set");
    Name += "}";
    std::optional<Label> L = Lat.byName(Name);
    if (!L)
      Diags.error(Loc, "unknown security label '" + Name + "'");
    return L;
  }

  if (!check(TokKind::Ident)) {
    Diags.error(peek().Loc, std::string("expected security label name, found ") +
                                tokKindName(peek().Kind));
    return std::nullopt;
  }
  Token Tok = advance();
  std::optional<Label> L = Lat.byName(Tok.Text);
  if (!L)
    Diags.error(Tok.Loc, "unknown security label '" + Tok.Text + "'");
  return L;
}

void Parser::parseAnnotation(Cmd &C) {
  if (!accept(TokKind::AtBracket))
    return; // Annotation is optional; inference will fill the labels.
  std::optional<Label> Read = parseLabelName();
  expect(TokKind::Comma, "between read and write labels");
  std::optional<Label> Write = parseLabelName();
  expect(TokKind::RBracket, "to close the timing-label annotation");
  C.labels().Read = Read;
  C.labels().Write = Write;
}

bool Parser::parseDecl(Program &P) {
  SourceLoc Loc = peek().Loc;
  if (!expect(TokKind::KwVar, "to begin a declaration"))
    return false;
  if (!check(TokKind::Ident)) {
    Diags.error(peek().Loc, "expected variable name in declaration");
    return false;
  }
  VarDecl D;
  D.Name = advance().Text;
  if (!expect(TokKind::Colon, "after variable name"))
    return false;
  std::optional<Label> L = parseLabelName();
  if (!L)
    return false;
  D.SecLabel = *L;

  if (accept(TokKind::LBracket)) {
    if (!check(TokKind::IntLit)) {
      Diags.error(peek().Loc, "expected array size");
      return false;
    }
    int64_t Size = advance().IntValue;
    if (Size <= 0) {
      Diags.error(Loc, "array size must be positive");
      return false;
    }
    D.IsArray = true;
    D.Size = static_cast<uint64_t>(Size);
    if (!expect(TokKind::RBracket, "to close the array size"))
      return false;
  }

  auto ParseSignedLit = [&]() -> std::optional<int64_t> {
    bool Negative = accept(TokKind::Minus);
    if (!check(TokKind::IntLit)) {
      Diags.error(peek().Loc, "expected integer initializer");
      return std::nullopt;
    }
    int64_t V = advance().IntValue;
    return Negative ? -V : V;
  };

  if (accept(TokKind::EqAssign)) {
    if (accept(TokKind::LBrace)) {
      if (!D.IsArray) {
        Diags.error(Loc, "brace initializer on a scalar variable");
        return false;
      }
      if (!check(TokKind::RBrace)) {
        do {
          std::optional<int64_t> V = ParseSignedLit();
          if (!V)
            return false;
          D.Init.push_back(*V);
        } while (accept(TokKind::Comma));
      }
      if (!expect(TokKind::RBrace, "to close the initializer list"))
        return false;
      if (D.Init.size() > D.Size) {
        Diags.error(Loc, "initializer has more elements than the array");
        return false;
      }
    } else {
      std::optional<int64_t> V = ParseSignedLit();
      if (!V)
        return false;
      D.Init.push_back(*V);
    }
  }

  if (!expect(TokKind::Semi, "after declaration"))
    return false;
  if (P.findVar(D.Name)) {
    Diags.error(Loc, "redeclaration of variable '" + D.Name + "'");
    return false;
  }
  P.addVar(std::move(D));
  return true;
}

CmdPtr Parser::parseBlock() {
  if (!expect(TokKind::LBrace, "to open a block"))
    return nullptr;
  CmdPtr C = parseCmd();
  if (!C)
    return nullptr;
  if (!expect(TokKind::RBrace, "to close a block"))
    return nullptr;
  return C;
}

CmdPtr Parser::parseSimpleCmd() {
  SourceLoc Loc = peek().Loc;

  if (accept(TokKind::KwSkip)) {
    auto C = std::make_unique<SkipCmd>(Loc);
    parseAnnotation(*C);
    return C;
  }

  if (accept(TokKind::KwSleep)) {
    if (!expect(TokKind::LParen, "after 'sleep'"))
      return nullptr;
    ExprPtr Duration = parseExpr();
    if (!Duration)
      return nullptr;
    if (!expect(TokKind::RParen, "to close 'sleep'"))
      return nullptr;
    auto C = std::make_unique<SleepCmd>(std::move(Duration), Loc);
    parseAnnotation(*C);
    return C;
  }

  if (accept(TokKind::KwMitigate)) {
    if (!expect(TokKind::LParen, "after 'mitigate'"))
      return nullptr;
    ExprPtr Estimate = parseExpr();
    if (!Estimate)
      return nullptr;
    if (!expect(TokKind::Comma, "between mitigate estimate and level"))
      return nullptr;
    std::optional<Label> Level = parseLabelName();
    if (!Level)
      return nullptr;
    if (!expect(TokKind::RParen, "to close the mitigate header"))
      return nullptr;
    CmdPtr Body = parseBlock();
    if (!Body)
      return nullptr;
    auto C = std::make_unique<MitigateCmd>(/*MitigateId=*/0,
                                           std::move(Estimate), *Level,
                                           std::move(Body), Loc);
    parseAnnotation(*C);
    return C;
  }

  if (accept(TokKind::KwIf)) {
    ExprPtr Cond = parseExpr();
    if (!Cond)
      return nullptr;
    if (!expect(TokKind::KwThen, "after the if condition"))
      return nullptr;
    CmdPtr Then = parseBlock();
    if (!Then)
      return nullptr;
    if (!expect(TokKind::KwElse, "after the then-branch"))
      return nullptr;
    CmdPtr Else = parseBlock();
    if (!Else)
      return nullptr;
    auto C = std::make_unique<IfCmd>(std::move(Cond), std::move(Then),
                                     std::move(Else), Loc);
    parseAnnotation(*C);
    return C;
  }

  if (accept(TokKind::KwWhile)) {
    ExprPtr Cond = parseExpr();
    if (!Cond)
      return nullptr;
    if (!expect(TokKind::KwDo, "after the while condition"))
      return nullptr;
    CmdPtr Body = parseBlock();
    if (!Body)
      return nullptr;
    auto C = std::make_unique<WhileCmd>(std::move(Cond), std::move(Body), Loc);
    parseAnnotation(*C);
    return C;
  }

  if (check(TokKind::LBrace))
    return parseBlock();

  if (check(TokKind::Ident)) {
    std::string Name = advance().Text;
    if (accept(TokKind::LBracket)) {
      ExprPtr Index = parseExpr();
      if (!Index)
        return nullptr;
      if (!expect(TokKind::RBracket, "to close the array index"))
        return nullptr;
      if (!expect(TokKind::Assign, "in array assignment"))
        return nullptr;
      ExprPtr Value = parseExpr();
      if (!Value)
        return nullptr;
      auto C = std::make_unique<ArrayAssignCmd>(std::move(Name),
                                                std::move(Index),
                                                std::move(Value), Loc);
      parseAnnotation(*C);
      return C;
    }
    if (!expect(TokKind::Assign, "in assignment"))
      return nullptr;
    ExprPtr Value = parseExpr();
    if (!Value)
      return nullptr;
    auto C =
        std::make_unique<AssignCmd>(std::move(Name), std::move(Value), Loc);
    parseAnnotation(*C);
    return C;
  }

  Diags.error(Loc, std::string("expected a command, found ") +
                       tokKindName(peek().Kind));
  return nullptr;
}

CmdPtr Parser::parseCmd() {
  Nesting Scope(*this);
  if (!Scope.enter(peek().Loc))
    return nullptr;
  CmdPtr First = parseSimpleCmd();
  if (!First)
    return nullptr;
  if (!accept(TokKind::Semi))
    return First;
  // Allow a trailing semicolon before '}' or end of input.
  if (check(TokKind::RBrace) || check(TokKind::Eof))
    return First;
  SourceLoc Loc = First->loc();
  CmdPtr Rest = parseCmd();
  if (!Rest)
    return nullptr;
  return std::make_unique<SeqCmd>(std::move(First), std::move(Rest), Loc);
}

//===----------------------------------------------------------------------===//
// Expressions (precedence climbing)
//===----------------------------------------------------------------------===//

namespace {
struct BinOpInfo {
  TokKind Tok;
  BinOpKind Op;
  int Prec;
};
} // namespace

static const BinOpInfo BinOps[] = {
    {TokKind::PipePipe, BinOpKind::LogicalOr, 1},
    {TokKind::AmpAmp, BinOpKind::LogicalAnd, 2},
    {TokKind::Pipe, BinOpKind::BitOr, 3},
    {TokKind::Caret, BinOpKind::BitXor, 4},
    {TokKind::Amp, BinOpKind::BitAnd, 5},
    {TokKind::EqEq, BinOpKind::Eq, 6},
    {TokKind::NotEq, BinOpKind::Ne, 6},
    {TokKind::Less, BinOpKind::Lt, 7},
    {TokKind::LessEq, BinOpKind::Le, 7},
    {TokKind::Greater, BinOpKind::Gt, 7},
    {TokKind::GreaterEq, BinOpKind::Ge, 7},
    {TokKind::Shl, BinOpKind::Shl, 8},
    {TokKind::Shr, BinOpKind::Shr, 8},
    {TokKind::Plus, BinOpKind::Add, 9},
    {TokKind::Minus, BinOpKind::Sub, 9},
    {TokKind::Star, BinOpKind::Mul, 10},
    {TokKind::Slash, BinOpKind::Div, 10},
    {TokKind::Percent, BinOpKind::Mod, 10},
};

static const BinOpInfo *findBinOp(TokKind Kind) {
  for (const BinOpInfo &Info : BinOps)
    if (Info.Tok == Kind)
      return &Info;
  return nullptr;
}

ExprPtr Parser::parseBinary(int MinPrec) {
  Nesting Scope(*this);
  if (!Scope.enter(peek().Loc))
    return nullptr;
  ExprPtr LHS = parseUnary();
  if (!LHS)
    return nullptr;
  for (;;) {
    const BinOpInfo *Info = findBinOp(peek().Kind);
    if (!Info || Info->Prec < MinPrec)
      return LHS;
    SourceLoc Loc = advance().Loc;
    // A left-associative chain deepens the tree by one per operator.
    if (!Scope.enter(Loc))
      return nullptr;
    ExprPtr RHS = parseBinary(Info->Prec + 1); // Left-associative.
    if (!RHS)
      return nullptr;
    LHS = std::make_unique<BinOpExpr>(Info->Op, std::move(LHS), std::move(RHS),
                                      Loc);
  }
}

ExprPtr Parser::parseUnary() {
  SourceLoc Loc = peek().Loc;
  Nesting Scope(*this);
  if ((check(TokKind::Minus) || check(TokKind::Bang) ||
       check(TokKind::Tilde)) &&
      !Scope.enter(Loc))
    return nullptr;
  if (accept(TokKind::Minus)) {
    ExprPtr Sub = parseUnary();
    if (!Sub)
      return nullptr;
    return std::make_unique<UnOpExpr>(UnOpKind::Neg, std::move(Sub), Loc);
  }
  if (accept(TokKind::Bang)) {
    ExprPtr Sub = parseUnary();
    if (!Sub)
      return nullptr;
    return std::make_unique<UnOpExpr>(UnOpKind::LogicalNot, std::move(Sub),
                                      Loc);
  }
  if (accept(TokKind::Tilde)) {
    ExprPtr Sub = parseUnary();
    if (!Sub)
      return nullptr;
    return std::make_unique<UnOpExpr>(UnOpKind::BitNot, std::move(Sub), Loc);
  }
  return parsePrimary();
}

ExprPtr Parser::parsePrimary() {
  SourceLoc Loc = peek().Loc;
  if (check(TokKind::IntLit)) {
    int64_t V = advance().IntValue;
    return std::make_unique<IntLitExpr>(V, Loc);
  }
  if (check(TokKind::Ident)) {
    std::string Name = advance().Text;
    if (accept(TokKind::LBracket)) {
      ExprPtr Index = parseExpr();
      if (!Index)
        return nullptr;
      if (!expect(TokKind::RBracket, "to close the array index"))
        return nullptr;
      return std::make_unique<ArrayReadExpr>(std::move(Name), std::move(Index),
                                             Loc);
    }
    return std::make_unique<VarExpr>(std::move(Name), Loc);
  }
  if (accept(TokKind::LParen)) {
    ExprPtr E = parseExpr();
    if (!E)
      return nullptr;
    if (!expect(TokKind::RParen, "to close the parenthesized expression"))
      return nullptr;
    return E;
  }
  Diags.error(Loc, std::string("expected an expression, found ") +
                       tokKindName(peek().Kind));
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Entry points
//===----------------------------------------------------------------------===//

std::optional<Program> Parser::parseProgram() {
  Program P(Lat);
  while (check(TokKind::KwVar))
    if (!parseDecl(P))
      return std::nullopt;
  CmdPtr Body = parseCmd();
  if (!Body)
    return std::nullopt;
  if (!check(TokKind::Eof)) {
    Diags.error(peek().Loc, std::string("unexpected ") +
                                tokKindName(peek().Kind) +
                                " after the program body");
    return std::nullopt;
  }
  P.setBody(std::move(Body));
  P.number();
  return P;
}

ExprPtr Parser::parseExprOnly() {
  ExprPtr E = parseExpr();
  if (E && !check(TokKind::Eof)) {
    Diags.error(peek().Loc, "unexpected trailing input after expression");
    return nullptr;
  }
  return E;
}

std::optional<Program> zam::parseProgram(const std::string &Source,
                                         const SecurityLattice &Lat,
                                         DiagnosticEngine &Diags) {
  Parser P(Source, Lat, Diags);
  return P.parseProgram();
}

//===- support_test.cpp - Support utilities ---------------------------------===//

#include "support/Casting.h"
#include "support/Diagnostics.h"
#include "support/ParseInt.h"
#include "support/Rng.h"
#include "support/SourceLoc.h"

#include "lang/Ast.h"
#include "gtest/gtest.h"

#include <limits>
#include <set>
#include <utility>

using namespace zam;

//===----------------------------------------------------------------------===//
// SourceLoc
//===----------------------------------------------------------------------===//

TEST(SourceLoc, DefaultIsUnknown) {
  SourceLoc Loc;
  EXPECT_FALSE(Loc.isValid());
  EXPECT_EQ(Loc.str(), "<unknown>");
}

TEST(SourceLoc, Formatting) {
  SourceLoc Loc(12, 34);
  EXPECT_TRUE(Loc.isValid());
  EXPECT_EQ(Loc.str(), "12:34");
}

TEST(SourceLoc, Equality) {
  EXPECT_EQ(SourceLoc(1, 2), SourceLoc(1, 2));
  EXPECT_FALSE(SourceLoc(1, 2) == SourceLoc(1, 3));
}

//===----------------------------------------------------------------------===//
// Diagnostics
//===----------------------------------------------------------------------===//

TEST(Diagnostics, CountsOnlyErrors) {
  DiagnosticEngine Diags;
  EXPECT_FALSE(Diags.hasErrors());
  Diags.warning(SourceLoc(1, 1), "just so you know");
  Diags.note(SourceLoc(), "context");
  EXPECT_FALSE(Diags.hasErrors());
  Diags.error(SourceLoc(2, 5), "this is bad");
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Diags.errorCount(), 1u);
  EXPECT_EQ(Diags.diagnostics().size(), 3u);
}

TEST(Diagnostics, Rendering) {
  DiagnosticEngine Diags;
  Diags.error(SourceLoc(3, 7), "flow violation");
  Diags.warning(SourceLoc(), "no location here");
  std::string S = Diags.str();
  EXPECT_NE(S.find("error: 3:7: flow violation"), std::string::npos);
  EXPECT_NE(S.find("warning: no location here"), std::string::npos);
}

TEST(Diagnostics, Clear) {
  DiagnosticEngine Diags;
  Diags.error(SourceLoc(), "x");
  Diags.clear();
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_TRUE(Diags.empty());
}

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(Rng, DeterministicPerSeed) {
  Rng A(42), B(42), C(43);
  for (int I = 0; I != 100; ++I) {
    uint64_t VA = A.next();
    EXPECT_EQ(VA, B.next());
    (void)C.next();
  }
  Rng A2(42), C2(43);
  EXPECT_NE(A2.next(), C2.next());
}

TEST(Rng, NextBelowStaysInRange) {
  Rng R(7);
  for (uint64_t Bound : {1ull, 2ull, 10ull, 1000ull, 1ull << 40})
    for (int I = 0; I != 200; ++I)
      EXPECT_LT(R.nextBelow(Bound), Bound);
}

TEST(Rng, NextInRangeInclusive) {
  Rng R(9);
  std::set<int64_t> Seen;
  for (int I = 0; I != 500; ++I) {
    int64_t V = R.nextInRange(-2, 2);
    EXPECT_GE(V, -2);
    EXPECT_LE(V, 2);
    Seen.insert(V);
  }
  EXPECT_EQ(Seen.size(), 5u); // All five values appear.
}

TEST(Rng, NextInRangeAtFullAndNearFullWidth) {
  constexpr int64_t Min = std::numeric_limits<int64_t>::min();
  constexpr int64_t Max = std::numeric_limits<int64_t>::max();
  // Ranges as wide as 2^64 - 1 and 2^64 - 2 values: offsets from Lo above
  // INT64_MAX must wrap onto the right value, not overflow.
  const std::pair<int64_t, int64_t> Ranges[] = {
      {Min, Max}, {Min + 1, Max}, {Min, Max - 1}, {Min + 1, Max - 1},
      {-Max, Max}, {Min, 0}, {-1, Max}};
  for (const auto &[Lo, Hi] : Ranges) {
    Rng R(17);
    bool Negative = false, Positive = false;
    for (int I = 0; I != 400; ++I) {
      const int64_t V = R.nextInRange(Lo, Hi);
      EXPECT_GE(V, Lo);
      EXPECT_LE(V, Hi);
      Negative |= V < 0;
      Positive |= V > 0;
    }
    // A range with 2^62 or more values on each side of zero is drawn on
    // both sides.
    if (Lo <= -(int64_t(1) << 62) && Hi >= int64_t(1) << 62) {
      EXPECT_TRUE(Negative && Positive) << Lo << ".." << Hi;
    }
  }
  // A narrower range draws what it always did: Lo plus nextBelow(Span).
  Rng A(23), B(23);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.nextInRange(-1000, 1000),
              -1000 + static_cast<int64_t>(B.nextBelow(2001)));
}

TEST(Rng, ChanceExtremes) {
  Rng R(11);
  for (int I = 0; I != 100; ++I) {
    EXPECT_FALSE(R.chance(0));
    EXPECT_TRUE(R.chance(100));
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng R(13);
  double Sum = 0;
  for (int I = 0; I != 1000; ++I) {
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
    Sum += D;
  }
  EXPECT_NEAR(Sum / 1000, 0.5, 0.05); // Rough uniformity.
}

TEST(Rng, ReseedRestartsTheStream) {
  Rng R(5);
  uint64_t First = R.next();
  R.next();
  R.reseed(5);
  EXPECT_EQ(R.next(), First);
}

//===----------------------------------------------------------------------===//
// Casting
//===----------------------------------------------------------------------===//

TEST(Casting, IsaAndCast) {
  ExprPtr E = std::make_unique<IntLitExpr>(5);
  Expr *Raw = E.get();
  EXPECT_TRUE(isa<IntLitExpr>(Raw));
  EXPECT_FALSE(isa<VarExpr>(Raw));
  EXPECT_EQ(cast<IntLitExpr>(Raw)->value(), 5);
  EXPECT_EQ(cast<IntLitExpr>(*Raw).value(), 5);
}

TEST(Casting, DynCast) {
  ExprPtr E = std::make_unique<VarExpr>("x");
  Expr *Raw = E.get();
  EXPECT_EQ(dyn_cast<IntLitExpr>(Raw), nullptr);
  const VarExpr *V = dyn_cast<VarExpr>(Raw);
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->name(), "x");
}

//===----------------------------------------------------------------------===//
// Values and ranges
//===----------------------------------------------------------------------===//

TEST(ParseValueOrRange, AcceptsAValueOrAnOrderedRange) {
  auto Parsed = [](std::string_view S) {
    int64_t Lo = -1, Hi = -1;
    const char *Why = parseValueOrRange(S, Lo, Hi);
    EXPECT_EQ(Why, nullptr) << S << ": " << Why;
    return std::make_pair(Lo, Hi);
  };
  EXPECT_EQ(Parsed("7"), std::make_pair(int64_t(7), int64_t(7)));
  EXPECT_EQ(Parsed("-3..4"), std::make_pair(int64_t(-3), int64_t(4)));
  EXPECT_EQ(Parsed("5..5"), std::make_pair(int64_t(5), int64_t(5)));
  constexpr int64_t Min = std::numeric_limits<int64_t>::min();
  constexpr int64_t Max = std::numeric_limits<int64_t>::max();
  EXPECT_EQ(Parsed("-9223372036854775808..9223372036854775807"),
            std::make_pair(Min, Max));
}

TEST(ParseValueOrRange, NamesWhatIsWrong) {
  auto Why = [](std::string_view S) {
    int64_t Lo = 1, Hi = 2;
    const char *W = parseValueOrRange(S, Lo, Hi);
    EXPECT_EQ(Lo, 1) << S;
    EXPECT_EQ(Hi, 2) << S;
    return std::string(W ? W : "");
  };
  EXPECT_EQ(Why(".."), "empty range: it names no bounds");
  EXPECT_EQ(Why("9..3"), "range is reversed: lo..hi needs lo <= hi");
  for (std::string_view Bad : {"0..x", "5..", "..5", "0...3", "1..2..3",
                               "+1..2", " 1..2"})
    EXPECT_EQ(Why(Bad), "range is not lo..hi with integer bounds") << Bad;
  EXPECT_EQ(Why("0..9223372036854775808"),
            "a bound overflows a 64-bit integer");
  EXPECT_EQ(Why("-9223372036854775809..0"),
            "a bound overflows a 64-bit integer");
  EXPECT_EQ(Why(""), "value is not an integer");
  EXPECT_EQ(Why("x"), "value is not an integer");
}

//===- memory_test.cpp - Memory layout and equivalences --------------------===//

#include "sem/Memory.h"

#include "lang/ProgramBuilder.h"
#include "TestUtil.h"
#include "gtest/gtest.h"

using namespace zam;
using namespace zam::test;

namespace {
Program declProgram() {
  ProgramBuilder B(lh());
  B.var("l", low(), 3);
  B.var("h", high(), 7);
  B.array("al", low(), 4, {1, 2});
  B.array("ah", high(), 2, {5, 6});
  B.body(B.skip());
  return B.take();
}
} // namespace

TEST(Memory, InitializationFromDeclarations) {
  Memory M = Memory::fromProgram(declProgram());
  EXPECT_EQ(M.load("l"), 3);
  EXPECT_EQ(M.load("h"), 7);
  EXPECT_EQ(M.loadElem("al", 0), 1);
  EXPECT_EQ(M.loadElem("al", 1), 2);
  EXPECT_EQ(M.loadElem("al", 2), 0); // Zero-extended.
  EXPECT_EQ(M.labelOf("h"), high());
  EXPECT_EQ(M.labelOf("al"), low());
}

TEST(Memory, ContiguousWordLayout) {
  Memory M = Memory::fromProgram(declProgram(), 0x1000);
  EXPECT_EQ(M.addrOf("l"), 0x1000u);
  EXPECT_EQ(M.addrOf("h"), 0x1008u);
  EXPECT_EQ(M.addrOfElem("al", 0), 0x1010u);
  EXPECT_EQ(M.addrOfElem("al", 3), 0x1028u);
  EXPECT_EQ(M.addrOfElem("ah", 1), 0x1038u);
}

TEST(Memory, StoreAndLoad) {
  Memory M = Memory::fromProgram(declProgram());
  M.store("l", 42);
  EXPECT_EQ(M.load("l"), 42);
  M.storeElem("al", 2, -9);
  EXPECT_EQ(M.loadElem("al", 2), -9);
}

TEST(Memory, IndexWrapping) {
  Memory M = Memory::fromProgram(declProgram());
  // Indices wrap modulo the size (total semantics, no traps).
  EXPECT_EQ(M.wrapIndex("al", 5), 1u);
  EXPECT_EQ(M.wrapIndex("al", -1), 3u);
  EXPECT_EQ(M.wrapIndex("al", -5), 3u);
  M.storeElem("al", 4, 77); // Wraps to index 0.
  EXPECT_EQ(M.loadElem("al", 0), 77);
}

TEST(Memory, WrapRawMatchesWrapIndex) {
  // The IR engines wrap raw indices through the static helper; it must
  // agree with the name-based path for every sign and magnitude.
  Memory M = Memory::fromProgram(declProgram());
  const int64_t Raws[] = {0,  1,  3,   4,         5,            63,
                          -1, -4, -5, -63, INT64_MAX, INT64_MIN + 1};
  for (int64_t Raw : Raws)
    EXPECT_EQ(Memory::wrapRaw(Raw, 4), M.wrapIndex("al", Raw)) << Raw;
  EXPECT_EQ(Memory::wrapRaw(7, 1), 0u); // Size-1 arrays always hit slot 0.
  EXPECT_EQ(Memory::wrapRaw(-7, 1), 0u);
}

TEST(Memory, SlotIndicesFollowDeclarationOrder) {
  Memory M = Memory::fromProgram(declProgram());
  ASSERT_EQ(M.slotCount(), 4u);
  EXPECT_EQ(M.slotIndexOf("l"), 0u);
  EXPECT_EQ(M.slotIndexOf("h"), 1u);
  EXPECT_EQ(M.slotIndexOf("al"), 2u);
  EXPECT_EQ(M.slotIndexOf("ah"), 3u);
  EXPECT_EQ(M.slotIndexOf("nope"), Memory::npos);
  // slotAt and the name-based accessor reach the same storage.
  M.slotAt(0).Data[0] = 42;
  EXPECT_EQ(M.load("l"), 42);
  EXPECT_EQ(&M.slotAt(2), &M.slot("al"));
  EXPECT_TRUE(M.slotAt(2).IsArray);
  EXPECT_EQ(M.slotAt(2).Data.size(), 4u);
}

TEST(Memory, SlotNumberingStableAcrossBuilderAndParser) {
  // The lowering pass bakes declaration-order slot indices into the IR, so
  // a builder-made program and its parsed pretty-printed twin must assign
  // identical indices and addresses.
  Memory FromBuilder = Memory::fromProgram(declProgram());
  Memory FromParser = Memory::fromProgram(
      parseOrDie("var l : L = 3;\nvar h : H = 7;\n"
                 "var al : L[4] = {1, 2};\nvar ah : H[2] = {5, 6};\n"
                 "skip"));
  ASSERT_EQ(FromBuilder.slotCount(), FromParser.slotCount());
  for (size_t I = 0; I != FromBuilder.slotCount(); ++I) {
    EXPECT_EQ(FromBuilder.slotName(I), FromParser.slotName(I)) << I;
    EXPECT_EQ(FromBuilder.slotAt(I).Base, FromParser.slotAt(I).Base) << I;
  }
  EXPECT_TRUE(FromBuilder == FromParser);
}

TEST(Memory, EqualityComparesSlotsAndValues) {
  Memory M1 = Memory::fromProgram(declProgram());
  Memory M2 = Memory::fromProgram(declProgram());
  EXPECT_TRUE(M1 == M2);
  M2.store("l", 4);
  EXPECT_FALSE(M1 == M2);
  M2.store("l", 3);
  EXPECT_TRUE(M1 == M2);
  // Different layout (address base) is a different memory even when every
  // value agrees.
  Memory M3 = Memory::fromProgram(declProgram(), 0x2000);
  EXPECT_FALSE(M1 == M3);
}

TEST(Memory, LowEquivalenceIgnoresHighVariables) {
  Memory M1 = Memory::fromProgram(declProgram());
  Memory M2 = Memory::fromProgram(declProgram());
  M2.store("h", 999);
  M2.storeElem("ah", 0, 999);
  EXPECT_TRUE(M1.equivalentUpTo(M2, low(), lh()));
  EXPECT_FALSE(M1.equivalentUpTo(M2, high(), lh()));
  M2.store("l", 999);
  EXPECT_FALSE(M1.equivalentUpTo(M2, low(), lh()));
}

TEST(Memory, ProjectionEquality) {
  Memory M1 = Memory::fromProgram(declProgram());
  Memory M2 = Memory::fromProgram(declProgram());
  M2.store("h", 999);
  EXPECT_TRUE(M1.projectionEquals(M2, low()));
  EXPECT_FALSE(M1.projectionEquals(M2, high()));
  M1.store("h", 999);
  M1.store("l", 1);
  EXPECT_TRUE(M1.projectionEquals(M2, high()));
  EXPECT_FALSE(M1.projectionEquals(M2, low()));
}

TEST(Memory, ArraysCompareElementwise) {
  Memory M1 = Memory::fromProgram(declProgram());
  Memory M2 = Memory::fromProgram(declProgram());
  M2.storeElem("al", 3, 1);
  EXPECT_FALSE(M1.equivalentUpTo(M2, low(), lh()));
}

TEST(Memory, ThreeLevelEquivalence) {
  ProgramBuilder B(lmh());
  Label L = *lmh().byName("L"), M = *lmh().byName("M"), H = *lmh().byName("H");
  B.var("x", L).var("y", M).var("z", H);
  B.body(B.skip());
  Program P = B.take();
  Memory A = Memory::fromProgram(P);
  Memory C = Memory::fromProgram(P);
  C.store("z", 1);
  EXPECT_TRUE(A.equivalentUpTo(C, M, lmh()));
  C.store("y", 1);
  EXPECT_FALSE(A.equivalentUpTo(C, M, lmh()));
  EXPECT_TRUE(A.equivalentUpTo(C, L, lmh()));
}

// Bounds regression: the raw indexed paths the execution core leans on
// (slotAt by precomputed index, wrapRaw by precomputed modulus) carry
// assertions only in ZAM_SANITIZE builds; there they must die loudly
// instead of reading out of range. Plain builds skip — the checks compile away.
TEST(MemoryDeathTest, SanitizeChecksCatchRawMisuse) {
#ifdef ZAM_SANITIZE_CHECKS
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Memory M = Memory::fromProgram(declProgram());
  EXPECT_DEATH(M.slotAt(M.slotCount()), "slot index out of range");
  EXPECT_DEATH(Memory::wrapRaw(3, 0), "wrap modulus is zero");
#else
  GTEST_SKIP() << "bounds assertions compile away outside ZAM_SANITIZE";
#endif
}

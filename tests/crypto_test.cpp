//===- crypto_test.cpp - MD5, modular math, toy RSA ------------------------===//

#include "crypto/Md5.h"
#include "crypto/ModMath.h"
#include "crypto/ToyRsa.h"
#include "support/Rng.h"

#include "gtest/gtest.h"

#include <string>
#include <utility>

using namespace zam;

//===----------------------------------------------------------------------===//
// MD5 (RFC 1321 appendix A.5 test suite)
//===----------------------------------------------------------------------===//

TEST(Md5, Rfc1321Vectors) {
  EXPECT_EQ(md5("").hex(), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(md5("a").hex(), "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(md5("abc").hex(), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(md5("message digest").hex(), "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(md5("abcdefghijklmnopqrstuvwxyz").hex(),
            "c3fcd3d76192e4007dfb496cca67e13b");
  EXPECT_EQ(
      md5("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789")
          .hex(),
      "d174ab98d277d9f5a5611c2c9f419d9f");
  EXPECT_EQ(md5("1234567890123456789012345678901234567890123456789012345678"
                "9012345678901234567890")
                .hex(),
            "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5, BlockBoundaryLengths) {
  // Lengths around the 55/56/64-byte padding boundaries, against the
  // reference digests of 'x' * n (Python's hashlib.md5).
  const std::pair<size_t, const char *> Cases[] = {
      {54, "61ea0974c662328da964d977a8253873"},
      {55, "04364420e25c512fd958a70738aa8f72"},
      {56, "668a72d5ba17f08e62dabcafad6db14b"},
      {57, "693037871c4a9d3d8685018905cb530a"},
      {63, "7dc2ca208106a2f703567bdff99d8981"},
      {64, "c1bb4f81d892b2d57947682aeb252456"},
      {65, "1bc932052302d074bdec39795fe00cf6"},
      {119, "ab347a5f68c8a443cfcddc633f12c24f"},
      {120, "fb98667f98096de92620b64f46e1c5b5"},
      {128, "d69cb61a6ee87200676eb0d4b90edbcb"},
  };
  for (const auto &[Len, Hex] : Cases)
    EXPECT_EQ(md5(std::string(Len, 'x')).hex(), Hex) << "length " << Len;
}

TEST(Md5, Low64IsLittleEndianPrefix) {
  Md5Digest D = md5("abc");
  // hex 900150983cd24fb0... → low64 little-endian of first 8 bytes.
  EXPECT_EQ(static_cast<uint64_t>(D.low64()), 0xb04fd23c98500190ull);
}

//===----------------------------------------------------------------------===//
// Modular arithmetic
//===----------------------------------------------------------------------===//

TEST(ModMath, MulmodMatchesSmallCases) {
  EXPECT_EQ(mulmod(7, 9, 10), 3u);
  EXPECT_EQ(mulmod(0, 9, 10), 0u);
  EXPECT_EQ(mulmod(123456789, 987654321, 1000000007), 259106859u);
}

TEST(ModMath, MulmodNoOverflowAt64Bits) {
  uint64_t Big = 0xFFFFFFFFFFFFFFC5ull; // Largest 64-bit prime.
  EXPECT_EQ(mulmod(Big - 1, Big - 1, Big), 1u); // (-1)² ≡ 1.
}

TEST(ModMath, Powmod) {
  EXPECT_EQ(powmod(2, 10, 1000000007), 1024u);
  EXPECT_EQ(powmod(2, 0, 97), 1u);
  EXPECT_EQ(powmod(5, 96, 97), 1u); // Fermat.
  EXPECT_EQ(powmod(123, 456, 1), 0u);
}

TEST(ModMath, Invmod) {
  EXPECT_EQ(invmod(3, 11), 4u); // 3·4 = 12 ≡ 1 (mod 11).
  EXPECT_EQ(invmod(65537, 1000003 - 1), mulmod(1, invmod(65537, 1000002), 1000002));
  EXPECT_EQ(invmod(4, 8), 0u); // Not invertible.
  // Round trip on random values.
  Rng R(31337);
  for (int I = 0; I != 100; ++I) {
    uint64_t M = R.nextBelow(1ull << 40) | 1;
    uint64_t A = 1 + R.nextBelow(M - 1);
    uint64_t Inv = invmod(A, M);
    if (Inv != 0) {
      EXPECT_EQ(mulmod(A, Inv, M), 1u);
    }
  }
}

TEST(ModMath, IsPrime) {
  EXPECT_FALSE(isPrime(0));
  EXPECT_FALSE(isPrime(1));
  EXPECT_TRUE(isPrime(2));
  EXPECT_TRUE(isPrime(3));
  EXPECT_FALSE(isPrime(4));
  EXPECT_TRUE(isPrime(97));
  EXPECT_FALSE(isPrime(561));        // Carmichael.
  EXPECT_FALSE(isPrime(3215031751)); // Strong pseudoprime to 2,3,5,7.
  EXPECT_TRUE(isPrime(2305843009213693951ull)); // 2^61 - 1 (Mersenne).
  EXPECT_FALSE(isPrime(2305843009213693953ull));
}

//===----------------------------------------------------------------------===//
// Toy RSA
//===----------------------------------------------------------------------===//

TEST(ToyRsa, KeyGeneration) {
  Rng R(2254078);
  RsaKey Key = generateRsaKey(R, 61);
  EXPECT_GT(Key.N, 1ull << 55);
  EXPECT_LT(Key.N, 1ull << 62);
  EXPECT_EQ(Key.E, 65537u);
  EXPECT_GT(Key.privateExponentBits(), 40u);
}

TEST(ToyRsa, EncryptDecryptRoundTrip) {
  Rng R(7);
  RsaKey Key = generateRsaKey(R, 61);
  for (int I = 0; I != 50; ++I) {
    uint64_t Plain = R.nextBelow(Key.N);
    uint64_t Cipher = rsaEncryptBlock(Key, Plain);
    EXPECT_EQ(rsaDecryptBlock(Key, Cipher), Plain);
  }
}

TEST(ToyRsa, MessageBlocking) {
  Rng R(8);
  RsaKey Key = generateRsaKey(R, 61);
  std::vector<uint8_t> Message;
  for (char C : std::string("attack at dawn, bring snacks"))
    Message.push_back(static_cast<uint8_t>(C));
  std::vector<uint64_t> Cipher = rsaEncryptMessage(Key, Message);
  EXPECT_EQ(Cipher.size(), (Message.size() + 5) / 6);
  std::vector<uint64_t> Plain = rsaDecryptBlocks(Key, Cipher);
  // Reassemble and compare.
  std::vector<uint8_t> Out;
  for (uint64_t Block : Plain)
    for (unsigned J = 0; J != 6 && Out.size() < Message.size(); ++J)
      Out.push_back(static_cast<uint8_t>(Block >> (8 * J)));
  EXPECT_EQ(Out, Message);
}

TEST(ToyRsa, DifferentSeedsDifferentKeys) {
  Rng R1(1), R2(2);
  RsaKey K1 = generateRsaKey(R1, 61);
  RsaKey K2 = generateRsaKey(R2, 61);
  EXPECT_NE(K1.N, K2.N);
  EXPECT_NE(K1.D, K2.D);
}

TEST(ToyRsa, SmallModulusStillRoundTrips) {
  Rng R(3);
  RsaKey Key = generateRsaKey(R, 20);
  for (uint64_t Plain : {0ull, 1ull, 255ull}) {
    if (Plain >= Key.N)
      continue;
    EXPECT_EQ(rsaDecryptBlock(Key, rsaEncryptBlock(Key, Plain)), Plain);
  }
}

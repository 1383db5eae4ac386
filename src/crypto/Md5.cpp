//===- Md5.cpp - RFC 1321 implementation -----------------------------------===//

#include "crypto/Md5.h"

#include <cstring>

using namespace zam;

namespace {

constexpr uint32_t K[64] = {
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a,
    0xa8304613, 0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be,
    0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340,
    0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8,
    0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c,
    0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
    0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92,
    0xffeff47d, 0x85845dd1, 0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1,
    0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391};

constexpr unsigned Shift[64] = {
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
    5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20,
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21};

uint32_t rotl32(uint32_t X, unsigned C) { return (X << C) | (X >> (32 - C)); }

void processBlock(const uint8_t *Block, uint32_t State[4]) {
  uint32_t M[16];
  for (unsigned I = 0; I != 16; ++I)
    M[I] = static_cast<uint32_t>(Block[I * 4]) |
           (static_cast<uint32_t>(Block[I * 4 + 1]) << 8) |
           (static_cast<uint32_t>(Block[I * 4 + 2]) << 16) |
           (static_cast<uint32_t>(Block[I * 4 + 3]) << 24);

  uint32_t A = State[0], B = State[1], C = State[2], D = State[3];
  for (unsigned I = 0; I != 64; ++I) {
    uint32_t F;
    unsigned G;
    if (I < 16) {
      F = (B & C) | (~B & D);
      G = I;
    } else if (I < 32) {
      F = (D & B) | (~D & C);
      G = (5 * I + 1) % 16;
    } else if (I < 48) {
      F = B ^ C ^ D;
      G = (3 * I + 5) % 16;
    } else {
      F = C ^ (B | ~D);
      G = (7 * I) % 16;
    }
    uint32_t Tmp = D;
    D = C;
    C = B;
    B = B + rotl32(A + F + K[I] + M[G], Shift[I]);
    A = Tmp;
  }
  State[0] += A;
  State[1] += B;
  State[2] += C;
  State[3] += D;
}

} // namespace

Md5Digest zam::md5(const void *Data, size_t Len) {
  uint32_t State[4] = {0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476};

  const uint8_t *Bytes = static_cast<const uint8_t *>(Data);
  size_t Full = Len / 64;
  for (size_t I = 0; I != Full; ++I)
    processBlock(Bytes + I * 64, State);

  // Padding: 0x80, zeros, then the bit length as a 64-bit little-endian
  // word. The under-64-byte rest plus its padding fills one or two blocks.
  uint8_t Tail[128] = {};
  const size_t Rest = Len - Full * 64;
  if (Rest)
    std::memcpy(Tail, Bytes + Full * 64, Rest);
  Tail[Rest] = 0x80;
  const size_t TailLen = Rest < 56 ? 64 : 128;
  uint64_t BitLen = static_cast<uint64_t>(Len) * 8;
  for (unsigned I = 0; I != 8; ++I)
    Tail[TailLen - 8 + I] = static_cast<uint8_t>(BitLen >> (8 * I));
  for (size_t I = 0; I != TailLen; I += 64)
    processBlock(Tail + I, State);

  Md5Digest Out;
  for (unsigned W = 0; W != 4; ++W)
    for (unsigned B = 0; B != 4; ++B)
      Out.Bytes[W * 4 + B] = static_cast<uint8_t>(State[W] >> (8 * B));
  return Out;
}

Md5Digest zam::md5(const std::string &Text) {
  return md5(Text.data(), Text.size());
}

std::string Md5Digest::hex() const {
  static const char Digits[] = "0123456789abcdef";
  std::string Out;
  Out.reserve(32);
  for (uint8_t B : Bytes) {
    Out += Digits[B >> 4];
    Out += Digits[B & 0xf];
  }
  return Out;
}

int64_t Md5Digest::low64() const { return word(0); }

int64_t Md5Digest::word(unsigned Index) const {
  uint64_t V = 0;
  for (unsigned I = 0; I != 8; ++I)
    V |= static_cast<uint64_t>(Bytes[Index * 8 + I]) << (8 * I);
  return static_cast<int64_t>(V);
}

//===- Rng.cpp ------------------------------------------------------------===//

#include "support/Rng.h"

using namespace zam;

static uint64_t splitmix64(uint64_t &X) {
  X += 0x9e3779b97f4a7c15ULL;
  uint64_t Z = X;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

static uint64_t rotl(uint64_t X, int K) { return (X << K) | (X >> (64 - K)); }

void Rng::reseed(uint64_t Seed) {
  for (uint64_t &S : State)
    S = splitmix64(Seed);
}

uint64_t Rng::next() {
  const uint64_t Result = rotl(State[1] * 5, 7) * 9;
  const uint64_t T = State[1] << 17;
  State[2] ^= State[0];
  State[3] ^= State[1];
  State[1] ^= State[2];
  State[0] ^= State[3];
  State[2] ^= T;
  State[3] = rotl(State[3], 45);
  return Result;
}

uint64_t Rng::nextBelow(uint64_t Bound) {
  assert(Bound > 0 && "nextBelow requires a positive bound");
  // Rejection sampling to avoid modulo bias.
  const uint64_t Threshold = -Bound % Bound;
  for (;;) {
    uint64_t V = next();
    if (V >= Threshold)
      return V % Bound;
  }
}

int64_t Rng::nextInRange(int64_t Lo, int64_t Hi) {
  assert(Lo <= Hi && "empty range");
  uint64_t Span = static_cast<uint64_t>(Hi) - static_cast<uint64_t>(Lo) + 1;
  if (Span == 0) // Full 64-bit range.
    return static_cast<int64_t>(next());
  // Added as unsigned and converted once: Lo + an offset above INT64_MAX
  // (a range wider than 2^63) would overflow in signed arithmetic, while
  // the unsigned sum wraps onto the same two's-complement value.
  return static_cast<int64_t>(static_cast<uint64_t>(Lo) + nextBelow(Span));
}

bool Rng::chance(unsigned Percent) {
  assert(Percent <= 100 && "percentage out of range");
  return nextBelow(100) < Percent;
}

double Rng::nextDouble() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

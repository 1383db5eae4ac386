//===- alloc_budget_test.cpp - Heap allocations per sampled run -----------===//
//
// Part of the zam project test suite. Replaces the global operator new
// with a counting one and pins how many heap allocations one run of the
// hottest many-run loops makes: a streamObservations sample of the sweep
// probe (the `zamc attack` loop), a LoginSession::attempt (the Fig. 7
// sessions) and an RsaSession::decrypt (the Fig. 8 sessions). Allocation
// counts are deterministic, so this pins the allocation-free restarted runs
// on hosts too noisy to time them.
//
// Not built under ZAM_SANITIZE: the sanitizer runtimes own operator new.
//
//===----------------------------------------------------------------------===//

#include "adv/Adversary.h"
#include "apps/LoginApp.h"
#include "apps/RsaApp.h"
#include "types/LabelInference.h"

#include "TestUtil.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace {
std::atomic<uint64_t> Allocations{0};

void *countedAlloc(std::size_t N, std::size_t Align) {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  if (N == 0)
    N = 1;
  void *P = Align <= alignof(std::max_align_t)
                ? std::malloc(N)
                : std::aligned_alloc(Align, (N + Align - 1) / Align * Align);
  if (!P)
    throw std::bad_alloc();
  return P;
}
} // namespace

void *operator new(std::size_t N) { return countedAlloc(N, 0); }
void *operator new[](std::size_t N) { return countedAlloc(N, 0); }
void *operator new(std::size_t N, std::align_val_t A) {
  return countedAlloc(N, static_cast<std::size_t>(A));
}
void *operator new[](std::size_t N, std::align_val_t A) {
  return countedAlloc(N, static_cast<std::size_t>(A));
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}

using namespace zam;
using namespace zam::test;

namespace {
/// Allocations made by \p Fn.
template <typename Fn> uint64_t allocationsOf(Fn &&F) {
  const uint64_t Before = Allocations.load();
  F();
  return Allocations.load() - Before;
}

TEST(AllocBudget, AttackSampleOfTheSweepProbe) {
  Program P = parseOrDie(R"(var h : H;
var l : L;
mitigate (64, H) {
  sleep(h) @[H, H]
};
l := 1
)");
  inferTimingLabels(P);
  std::vector<SecretClassSpec> Classes(2);
  Classes[0].Ranges = {{"h", 1, 60}};
  Classes[1].Ranges = {{"h", 600, 700}};
  const auto Template = createMachineEnv(HwKind::NoPartition, lh());
  const ParallelRunner Runner(1);
  auto Stream = [&](unsigned Samples) {
    AttackOptions Opts;
    Opts.Samples = Samples;
    return allocationsOf([&] {
      streamObservations(P, *Template, Classes, Opts, InterpreterOptions(),
                         Runner, [](const Observation &, size_t) {});
    });
  };
  // The difference of two sample counts within one chunk cancels the
  // per-call setup (compilation, the chunk's vector, the worker's env).
  static_assert(2000 < kObservationChunk);
  const uint64_t Few = Stream(1000), Many = Stream(2000);
  ASSERT_EQ((Many - Few) % 1000, 0u) << "allocations vary per sample";
  const uint64_t PerSample = (Many - Few) / 1000;
  std::printf("allocations per streamObservations sample: %llu\n",
              static_cast<unsigned long long>(PerSample));
  RecordProperty("allocations_per_sample", static_cast<int>(PerSample));
  // 17 when every sample cloned its env and built its interpreter with
  // three separate vectors, a heap-held core and a throwaway label list;
  // 10 while each still built its memory, scratch block, Miss table,
  // trace vectors and LeakAudit. Now a worker's interpreter and audit are
  // restarted in place, and the one allocation left is the observation's
  // window list, which the callback receives.
  EXPECT_LE(PerSample, 1u);
}

TEST(AllocBudget, LoginSessionAttempt) {
  Rng R(2254078);
  const LoginTable Table = makeLoginTable(100, 50, R);
  LoginProgramConfig Config;
  Config.Estimate1 = Config.Estimate2 = 3000;
  auto Env = createMachineEnv(HwKind::NoFill, lh());
  LoginSession S(lh(), Table, Config, *Env);
  // Names built outside the counted window.
  const std::string User = Table.ValidUsernames.front(), Pass = "pass";
  S.attempt(User, Pass);
  const uint64_t Total = allocationsOf([&] {
    for (int I = 0; I != 100; ++I)
      S.attempt(User, Pass);
  });
  ASSERT_EQ(Total % 100, 0u) << "allocations vary per attempt";
  const uint64_t PerAttempt = Total / 100;
  std::printf("allocations per LoginSession::attempt: %llu\n",
              static_cast<unsigned long long>(PerAttempt));
  RecordProperty("allocations_per_attempt", static_cast<int>(PerAttempt));
  // 41 with a heap-held core, three separate run vectors, an unused Miss
  // table beside the session's shared one and a throwaway label list; 35
  // while every attempt built an interpreter; 14 while the session
  // restarted one in place but MD5 still padded each of setLoginRequest's
  // three digests in a heap vector. MD5 now pads in a fixed buffer, so an
  // attempt allocates nothing.
  EXPECT_EQ(PerAttempt, 0u);
}

TEST(AllocBudget, RsaSessionDecrypt) {
  Rng R(2254078);
  const RsaKey Key = generateRsaKey(R, 24);
  RsaProgramConfig Config;
  Config.Estimate = 4000;
  Config.MaxBlocks = 4;
  auto Env = createMachineEnv(HwKind::Partitioned, lh());
  RsaSession S(lh(), Key, Config, *Env);
  const std::vector<uint64_t> Cipher = {
      rsaEncryptBlock(Key, R.nextBelow(Key.N)),
      rsaEncryptBlock(Key, R.nextBelow(Key.N))};
  S.decrypt(Cipher);
  const uint64_t Total = allocationsOf([&] {
    for (int I = 0; I != 20; ++I)
      S.decrypt(Cipher);
  });
  ASSERT_EQ(Total % 20, 0u) << "allocations vary per decryption";
  const uint64_t PerDecrypt = Total / 20;
  std::printf("allocations per RsaSession::decrypt: %llu\n",
              static_cast<unsigned long long>(PerDecrypt));
  RecordProperty("allocations_per_decrypt", static_cast<int>(PerDecrypt));
  // 22 while every decryption built an interpreter. Now it is restarted
  // in place, and what is left is what the result carries: its copy of
  // the trace's window list and Miss table, and its plaintext blocks.
  EXPECT_LE(PerDecrypt, 3u);
}
} // namespace

//===- ParallelRunner.cpp -------------------------------------------------===//

#include "exp/ParallelRunner.h"

#include "support/ParseInt.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>

using namespace zam;

unsigned zam::resolveThreadCount(unsigned Requested) {
  if (Requested > 0)
    return Requested;
  if (const char *Env = std::getenv("ZAM_THREADS")) {
    unsigned V = 0;
    if (parseInteger(Env, V) && V > 0 && V <= 1024)
      return V;
    // A malformed setting falls back to the hardware count, but says so
    // (once per process: runners are built per experiment).
    static std::once_flag Warned;
    std::call_once(Warned, [Env] {
      std::fprintf(stderr,
                   "warning: ignoring ZAM_THREADS='%s' (expected a thread "
                   "count from 1 to 1024); using the hardware count\n",
                   Env);
    });
  }
  unsigned Hw = std::thread::hardware_concurrency();
  return Hw ? Hw : 1;
}

void ParallelRunner::forEach(size_t N,
                             const std::function<void(size_t)> &F) const {
  if (N == 0)
    return;
  const unsigned Workers =
      static_cast<unsigned>(std::min<size_t>(NumThreads, N));
  if (Workers <= 1) {
    for (size_t I = 0; I != N; ++I)
      F(I);
    return;
  }

  std::atomic<size_t> Next{0};
  std::mutex ErrMutex;
  size_t ErrIndex = std::numeric_limits<size_t>::max();
  std::exception_ptr Err;

  auto Worker = [&] {
    for (size_t I = Next.fetch_add(1, std::memory_order_relaxed); I < N;
         I = Next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        F(I);
      } catch (...) {
        std::lock_guard<std::mutex> Lock(ErrMutex);
        if (I < ErrIndex) {
          ErrIndex = I;
          Err = std::current_exception();
        }
      }
    }
  };

  std::vector<std::thread> Pool;
  Pool.reserve(Workers);
  for (unsigned T = 0; T != Workers; ++T)
    Pool.emplace_back(Worker);
  for (std::thread &Th : Pool)
    Th.join();
  if (Err)
    std::rethrow_exception(Err);
}

//===- ParallelRunner.h - Deterministic parallel fan-out --------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size std::thread fan-out for independent deterministic runs.
/// Every simulated execution in zam is deterministic (Property 2), so a
/// batch of runs over distinct MachineEnv copies can be spread over worker
/// threads freely: the runner only reorders *wall-clock* execution, while
/// results are always collected in submission order. Harness output is
/// therefore bit-identical for any thread count.
///
/// The thread count resolves, in priority order: an explicit request, the
/// ZAM_THREADS environment variable, std::thread::hardware_concurrency().
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_EXP_PARALLELRUNNER_H
#define ZAM_EXP_PARALLELRUNNER_H

#include <algorithm>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

namespace zam {

/// Resolves a thread-count request: \p Requested when > 0, else the
/// ZAM_THREADS environment variable, else hardware_concurrency (min 1).
unsigned resolveThreadCount(unsigned Requested = 0);

/// Fans independent index-addressed tasks out over a fixed-size worker
/// pool. Stateless between calls; cheap to construct.
class ParallelRunner {
public:
  /// \p Threads = 0 resolves from ZAM_THREADS / hardware_concurrency.
  explicit ParallelRunner(unsigned Threads = 0)
      : NumThreads(resolveThreadCount(Threads)) {}

  unsigned threadCount() const { return NumThreads; }

  /// Invokes F(I) for every I in [0, N). With one thread this is a plain
  /// serial loop (no thread is spawned); otherwise min(threads, N) workers
  /// drain a shared index counter. If any F throws, the exception from the
  /// lowest-numbered failing index is rethrown after all workers finish.
  void forEach(size_t N, const std::function<void(size_t)> &F) const;

  /// Maps F over [0, N) and returns the results indexed by I — identical
  /// to a serial loop for any thread count, only wall-clock changes. F must
  /// not touch shared mutable state (give each run its own MachineEnv
  /// clone; the shared Program and lattice are read-only).
  template <typename Fn> auto map(size_t N, Fn &&F) const {
    std::vector<decltype(F(size_t(0)))> Results(N);
    forEach(N, [&](size_t I) { Results[I] = F(I); });
    return Results;
  }

  /// map() for tasks that reuse scratch state: F(I, S) also receives a
  /// State S from \p States, one per slice of consecutive indices, handed
  /// to every F of that slice in index order on one thread. \p States
  /// grows to the slice count (value-initialized) and keeps its elements
  /// for the caller's next call. The slices — one with one thread, else up
  /// to four per thread for load balance — depend on the thread count, so
  /// F's result must not depend on what earlier indices left in S:
  /// measureLeakage and streamObservations keep a RunSlice in S
  /// (exp/RunSlice.h), whose env each run restores from the template and
  /// whose interpreter each run restarts, so every run starts as on a
  /// fresh clone.
  template <typename State, typename Fn>
  auto mapWithState(size_t N, std::vector<State> &States, Fn &&F) const {
    std::vector<decltype(F(size_t(0), std::declval<State &>()))> Results(N);
    const size_t Slices =
        std::min<size_t>(N, NumThreads == 1 ? 1 : size_t(NumThreads) * 4);
    if (States.size() < Slices)
      States.resize(Slices);
    forEach(Slices, [&](size_t Slice) {
      State &S = States[Slice];
      for (size_t I = N * Slice / Slices, E = N * (Slice + 1) / Slices;
           I != E; ++I)
        Results[I] = F(I, S);
    });
    return Results;
  }

private:
  unsigned NumThreads;
};

} // namespace zam

#endif // ZAM_EXP_PARALLELRUNNER_H

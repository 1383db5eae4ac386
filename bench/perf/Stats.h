//===- Stats.h - Order statistics for the zam_perf benchmark ----*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Medians and quartiles over host-time samples. Quartiles use the
/// "exclusive" method of Python's statistics.quantiles(n=4), so spreads
/// printed here read the same as ones recomputed from the JSON in Python.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_BENCH_PERF_STATS_H
#define ZAM_BENCH_PERF_STATS_H

#include <algorithm>
#include <array>
#include <vector>

namespace zam::perf {

inline double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// The three cut points of statistics.quantiles(V, n=4) (method
/// "exclusive"). Needs at least two samples; a single sample is returned
/// as all three.
inline std::array<double, 3> quartiles(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  const long Len = static_cast<long>(V.size());
  if (Len < 2) {
    double X = Len ? V[0] : 0;
    return {X, X, X};
  }
  std::array<double, 3> Out{};
  const long M = Len + 1;
  for (long I = 1; I <= 3; ++I) {
    long J = std::clamp(I * M / 4, 1L, Len - 1);
    long Delta = I * M - J * 4;
    Out[I - 1] = (V[J - 1] * static_cast<double>(4 - Delta) +
                  V[J] * static_cast<double>(Delta)) /
                 4;
  }
  return Out;
}

/// Distance between the first and third quartile.
inline double iqr(const std::vector<double> &V) {
  std::array<double, 3> Q = quartiles(V);
  return Q[2] - Q[0];
}

/// The value at quantile \p P (0..1) by nearest rank.
inline double quantile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(P * static_cast<double>(V.size()));
  return V[std::min(Rank, V.size() - 1)];
}

} // namespace zam::perf

#endif // ZAM_BENCH_PERF_STATS_H

//===- Report.cpp ---------------------------------------------------------===//

#include "exp/Report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

using namespace zam;

double zam::average(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return Sum / static_cast<double>(V.size());
}

double zam::average(const std::vector<uint64_t> &V) {
  if (V.empty())
    return 0.0;
  uint64_t Sum = 0;
  for (uint64_t X : V)
    Sum += X;
  return static_cast<double>(Sum) / static_cast<double>(V.size());
}

SeriesStats Series::stats() const {
  SeriesStats S;
  S.Count = Values.size();
  if (Values.empty())
    return S;
  S.Min = S.Max = Values.front();
  for (double V : Values) {
    S.Min = std::min(S.Min, V);
    S.Max = std::max(S.Max, V);
  }
  S.Avg = average(Values);
  S.Distinct = std::set<double>(Values.begin(), Values.end()).size();
  return S;
}

Series &Report::addSeries(std::string Name, std::vector<double> Values) {
  AllSeries.push_back(Series{std::move(Name), std::move(Values)});
  return AllSeries.back();
}

Series &Report::addSeries(std::string Name,
                          const std::vector<uint64_t> &Values) {
  std::vector<double> D(Values.begin(), Values.end());
  return addSeries(std::move(Name), std::move(D));
}

const Series *Report::find(const std::string &Name) const {
  for (const Series &S : AllSeries)
    if (S.Name == Name)
      return &S;
  return nullptr;
}

double Report::seriesAverage(const std::string &Name) const {
  const Series *S = find(Name);
  return S ? average(S->Values) : 0.0;
}

bool Report::coincide(const std::string &A, const std::string &B) const {
  const Series *SA = find(A), *SB = find(B);
  return SA && SB && SA->Values == SB->Values;
}

void Report::setIndex(std::string Header, std::vector<double> Values) {
  IndexHeader = std::move(Header);
  IndexValues = std::move(Values);
}

void Report::setScalar(std::string Key, double Value) {
  for (auto &[K, V] : Scalars)
    if (K == Key) {
      V = Value;
      return;
    }
  Scalars.emplace_back(std::move(Key), Value);
}

void Report::setVerdict(std::string Key, bool Value) {
  for (auto &[K, V] : Verdicts)
    if (K == Key) {
      V = Value;
      return;
    }
  Verdicts.emplace_back(std::move(Key), Value);
}

void Report::setText(std::string Key, std::string Value) {
  for (auto &[K, V] : Texts)
    if (K == Key) {
      V = std::move(Value);
      return;
    }
  Texts.emplace_back(std::move(Key), std::move(Value));
}

void Report::setWallScalar(std::string Key, double Value) {
  for (auto &[K, V] : WallScalars)
    if (K == Key) {
      V = Value;
      return;
    }
  WallScalars.emplace_back(std::move(Key), Value);
}

void Report::setPhases(JsonValue PhasesJson) { Phases = std::move(PhasesJson); }

bool Report::verdict(const std::string &Key, bool Default) const {
  for (const auto &[K, V] : Verdicts)
    if (K == Key)
      return V;
  return Default;
}

/// Prints integral values without a fraction, everything else with two
/// decimals — matching what the hand-written printf tables did.
static std::string formatCell(double V) {
  char Buf[40];
  if (std::nearbyint(V) == V && std::fabs(V) < 9.2e18)
    std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(V));
  else
    std::snprintf(Buf, sizeof(Buf), "%.2f", V);
  return Buf;
}

std::string Report::renderTable(size_t Stride) const {
  if (Stride == 0)
    Stride = 1;
  size_t Rows = 0;
  for (const Series &S : AllSeries)
    Rows = std::max(Rows, S.Values.size());

  std::vector<size_t> Widths;
  Widths.push_back(std::max<size_t>(IndexHeader.size(), 8));
  for (const Series &S : AllSeries) {
    size_t W = S.Name.size();
    for (double V : S.Values)
      W = std::max(W, formatCell(V).size());
    Widths.push_back(W + 2);
  }

  std::string Out;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%-*s", static_cast<int>(Widths[0]),
                IndexHeader.c_str());
  Out += Buf;
  for (size_t C = 0; C != AllSeries.size(); ++C) {
    std::snprintf(Buf, sizeof(Buf), "%*s", static_cast<int>(Widths[C + 1]),
                  AllSeries[C].Name.c_str());
    Out += Buf;
  }
  Out += '\n';
  for (size_t R = 0; R < Rows; R += Stride) {
    std::string Index = R < IndexValues.size()
                            ? formatCell(IndexValues[R])
                            : std::to_string(R);
    std::snprintf(Buf, sizeof(Buf), "%-*s", static_cast<int>(Widths[0]),
                  Index.c_str());
    Out += Buf;
    for (size_t C = 0; C != AllSeries.size(); ++C) {
      std::string Cell = R < AllSeries[C].Values.size()
                             ? formatCell(AllSeries[C].Values[R])
                             : "-";
      std::snprintf(Buf, sizeof(Buf), "%*s", static_cast<int>(Widths[C + 1]),
                    Cell.c_str());
      Out += Buf;
    }
    Out += '\n';
  }
  return Out;
}

std::string Report::renderSummary() const {
  std::string Out;
  char Buf[256];
  for (const Series &S : AllSeries) {
    SeriesStats St = S.stats();
    std::snprintf(Buf, sizeof(Buf),
                  "%-28s n=%-5zu avg=%-12s min=%-12s max=%-12s distinct=%zu\n",
                  S.Name.c_str(), St.Count, formatCell(St.Avg).c_str(),
                  formatCell(St.Min).c_str(), formatCell(St.Max).c_str(),
                  St.Distinct);
    Out += Buf;
  }
  for (const auto &[K, V] : Scalars) {
    std::snprintf(Buf, sizeof(Buf), "%-28s %s\n", K.c_str(),
                  formatCell(V).c_str());
    Out += Buf;
  }
  for (const auto &[K, V] : Verdicts) {
    std::snprintf(Buf, sizeof(Buf), "%-28s %s\n", K.c_str(),
                  V ? "YES" : "no");
    Out += Buf;
  }
  for (const auto &[K, V] : Texts) {
    std::snprintf(Buf, sizeof(Buf), "%-28s %s\n", K.c_str(), V.c_str());
    Out += Buf;
  }
  for (const auto &[K, V] : WallScalars) {
    std::snprintf(Buf, sizeof(Buf), "%-28s %s (wall)\n", K.c_str(),
                  formatCell(V).c_str());
    Out += Buf;
  }
  return Out;
}

JsonValue Report::toJson(bool IncludeWallClock) const {
  JsonValue Doc = JsonValue::object();
  Doc["title"] = JsonValue(Title);
  if (!IndexValues.empty()) {
    JsonValue Index = JsonValue::object();
    Index["name"] = JsonValue(IndexHeader);
    JsonValue Values = JsonValue::array();
    for (double V : IndexValues)
      Values.push(JsonValue(V));
    Index["values"] = std::move(Values);
    Doc["index"] = std::move(Index);
  }
  if (!Scalars.empty()) {
    JsonValue Obj = JsonValue::object();
    for (const auto &[K, V] : Scalars)
      Obj[K] = JsonValue(V);
    Doc["scalars"] = std::move(Obj);
  }
  if (!Verdicts.empty()) {
    JsonValue Obj = JsonValue::object();
    for (const auto &[K, V] : Verdicts)
      Obj[K] = JsonValue(V);
    Doc["verdicts"] = std::move(Obj);
  }
  if (!Texts.empty()) {
    JsonValue Obj = JsonValue::object();
    for (const auto &[K, V] : Texts)
      Obj[K] = JsonValue(V);
    Doc["text"] = std::move(Obj);
  }
  if (!Metrics.empty())
    Doc["metrics"] = Metrics.toJson();
  JsonValue SeriesArr = JsonValue::array();
  for (const Series &S : AllSeries) {
    JsonValue Obj = JsonValue::object();
    Obj["name"] = JsonValue(S.Name);
    JsonValue Values = JsonValue::array();
    for (double V : S.Values)
      Values.push(JsonValue(V));
    Obj["values"] = std::move(Values);
    SeriesStats St = S.stats();
    JsonValue Stats = JsonValue::object();
    Stats["count"] = JsonValue(St.Count);
    Stats["avg"] = JsonValue(St.Avg);
    Stats["min"] = JsonValue(St.Min);
    Stats["max"] = JsonValue(St.Max);
    Stats["distinct"] = JsonValue(St.Distinct);
    Obj["stats"] = std::move(Stats);
    SeriesArr.push(std::move(Obj));
  }
  Doc["series"] = std::move(SeriesArr);
  // The wall-clock tail always comes last, after every deterministic
  // member, so diffs of two reports line up until the timings start.
  if (IncludeWallClock && !WallScalars.empty()) {
    JsonValue Obj = JsonValue::object();
    for (const auto &[K, V] : WallScalars)
      Obj[K] = JsonValue(V);
    Doc["wall"] = std::move(Obj);
  }
  if (IncludeWallClock && !Phases.isNull())
    Doc["phases"] = Phases;
  return Doc;
}

void zam::runSeriesInto(Report &R, const std::vector<SeriesSpec> &Specs,
                        const ParallelRunner &Runner) {
  std::vector<std::vector<uint64_t>> Values =
      Runner.map(Specs.size(), [&](size_t I) { return Specs[I].Run(); });
  for (size_t I = 0; I != Specs.size(); ++I)
    R.addSeries(Specs[I].Name, Values[I]);
}

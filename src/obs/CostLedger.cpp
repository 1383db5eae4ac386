//===- CostLedger.cpp -----------------------------------------------------===//

#include "obs/CostLedger.h"

#include "obs/LeakAudit.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>

using namespace zam;

const char *CostLedger::structureName(unsigned I) {
  switch (I) {
  case L1D:
    return "l1d";
  case L2D:
    return "l2d";
  case L1I:
    return "l1i";
  case L2I:
    return "l2i";
  case DTlb:
    return "dtlb";
  case ITlb:
    return "itlb";
  }
  return "?";
}

LineHwStats LineCost::hw(unsigned I) const {
  LineHwStats T = S[I];
  switch (I) {
  case CostLedger::DTlb:
  case CostLedger::L1D:
    T.Hits = DataAccesses - T.Misses;
    break;
  case CostLedger::ITlb:
  case CostLedger::L1I:
    T.Hits = Fetches - T.Misses;
    break;
  }
  return T;
}

LineCost &CostLedger::line(uint32_t L) {
  LineCost &C = Lines[L];
  C.Line = L;
  return C;
}

SiteCost &CostLedger::site(unsigned Eta) {
  SiteCost &S = Sites[Eta];
  S.Eta = Eta;
  return S;
}

void CostLedger::chargeCycles(const CostCursor &Cur, CycleKind K, uint64_t N) {
  LineCost &C = line(Cur.Loc.Line);
  switch (K) {
  case CycleKind::Step:
    C.StepCycles += N;
    break;
  case CycleKind::Sleep:
    C.SleepCycles += N;
    break;
  case CycleKind::Pad:
    C.PadCycles += N;
    if (Cur.Site != CostCursor::kNoSite)
      site(Cur.Site).PadCycles += N;
    break;
  }
}

void CostLedger::chargeAccesses(const CostCursor &Cur, bool IsData,
                                uint64_t N) {
  LineCost &C = line(Cur.Loc.Line);
  (IsData ? C.DataAccesses : C.Fetches) += N;
}

void CostLedger::chargeMiss(const CostCursor &Cur, const HwAccess &Access) {
  LineCost &C = line(Cur.Loc.Line);
  // The TLB and L1 hits are derived from the accesses (LineCost::hw), so
  // only the misses count here. The L2 is consulted only past an L1 miss.
  // Event deltas are added unconditionally: they are zero for structures
  // the access did not install into.
  auto AddEvents = [](LineHwStats &S, const HwEventDelta &D) {
    S.Evictions += D.Evictions;
    S.Writebacks += D.Writebacks;
    S.LineFills += D.LineFills;
  };

  LineHwStats &Tlb = C.S[Access.IsData ? DTlb : ITlb];
  Tlb.Misses += Access.TlbMiss;
  AddEvents(Tlb, Access.TlbEvents);

  LineHwStats &L1 = C.S[Access.IsData ? L1D : L1I];
  L1.Misses += Access.L1Miss;
  AddEvents(L1, Access.L1Events);

  LineHwStats &L2 = C.S[Access.IsData ? L2D : L2I];
  if (Access.L1Miss)
    ++(Access.L2Miss ? L2.Misses : L2.Hits);
  AddEvents(L2, Access.L2Events);
}

void CostLedger::closeWindow(const CostCursor &Cur, const MitigateRecord &R) {
  ++line(Cur.Loc.Line).Windows;
  SiteCost &S = site(R.Eta);
  S.Line = R.Line;
  ++S.Windows;
}

void CostLedger::applyLeakage(const LeakAudit &Audit) {
  // Replay in the audit's own arrival order: the per-level partial sums
  // then reproduce its running accounts exactly, so the double totals are
  // bit-identical.
  for (const LeakWindow &W : Audit.windows()) {
    line(W.Line).LeakBits += W.WindowBits;
    SiteCost &S = site(W.Eta);
    S.Line = W.Line;
    S.LeakBits += W.WindowBits;
    if (LevelBits.size() <= W.Level.index())
      LevelBits.resize(W.Level.index() + 1, 0.0);
    LevelBits[W.Level.index()] += W.WindowBits;
  }
}

uint64_t CostLedger::totalCycles() const {
  uint64_t N = 0;
  for (const auto &[L, C] : Lines)
    N += C.totalCycles();
  return N;
}

uint64_t CostLedger::totalSleepCycles() const {
  uint64_t N = 0;
  for (const auto &[L, C] : Lines)
    N += C.SleepCycles;
  return N;
}

uint64_t CostLedger::totalPadCycles() const {
  uint64_t N = 0;
  for (const auto &[L, C] : Lines)
    N += C.PadCycles;
  return N;
}

uint64_t CostLedger::totalAccesses() const {
  uint64_t N = 0;
  for (const auto &[L, C] : Lines)
    N += C.accesses();
  return N;
}

uint64_t CostLedger::totalWindows() const {
  uint64_t N = 0;
  for (const auto &[L, C] : Lines)
    N += C.Windows;
  return N;
}

LineHwStats CostLedger::structureTotals(unsigned I) const {
  LineHwStats T;
  for (const auto &[L, C] : Lines) {
    const LineHwStats S = C.hw(I);
    T.Hits += S.Hits;
    T.Misses += S.Misses;
    T.Evictions += S.Evictions;
    T.Writebacks += S.Writebacks;
    T.LineFills += S.LineFills;
  }
  return T;
}

double CostLedger::totalLeakBits() const {
  // Label-index order: the same summation LeakAudit::totalBitsBound runs.
  double Total = 0;
  for (double B : LevelBits)
    Total += B;
  return Total;
}

JsonValue CostLedger::toJson() const {
  JsonValue Doc = JsonValue::object();

  JsonValue LineArr = JsonValue::array();
  for (const auto &[L, C] : Lines) {
    JsonValue O = JsonValue::object();
    O["line"] = JsonValue(static_cast<uint64_t>(C.Line));
    O["cycles"] = JsonValue(C.totalCycles());
    O["step_cycles"] = JsonValue(C.StepCycles);
    O["sleep_cycles"] = JsonValue(C.SleepCycles);
    O["pad_cycles"] = JsonValue(C.PadCycles);
    O["accesses"] = JsonValue(C.accesses());
    O["windows"] = JsonValue(C.Windows);
    O["leak_bits"] = JsonValue(C.LeakBits);
    JsonValue Hw = JsonValue::object();
    for (unsigned I = 0; I != kStructures; ++I) {
      const LineHwStats S = C.hw(I);
      JsonValue St = JsonValue::object();
      St["hits"] = JsonValue(S.Hits);
      St["misses"] = JsonValue(S.Misses);
      St["evictions"] = JsonValue(S.Evictions);
      St["writebacks"] = JsonValue(S.Writebacks);
      St["line_fills"] = JsonValue(S.LineFills);
      Hw[structureName(I)] = std::move(St);
    }
    O["hw"] = std::move(Hw);
    LineArr.push(std::move(O));
  }
  Doc["lines"] = std::move(LineArr);

  JsonValue SiteArr = JsonValue::array();
  for (const auto &[Eta, S] : Sites) {
    JsonValue O = JsonValue::object();
    O["eta"] = JsonValue(static_cast<uint64_t>(S.Eta));
    O["line"] = JsonValue(static_cast<uint64_t>(S.Line));
    O["windows"] = JsonValue(S.Windows);
    O["pad_cycles"] = JsonValue(S.PadCycles);
    O["leak_bits"] = JsonValue(S.LeakBits);
    SiteArr.push(std::move(O));
  }
  Doc["sites"] = std::move(SiteArr);

  JsonValue Totals = JsonValue::object();
  Totals["cycles"] = JsonValue(totalCycles());
  Totals["sleep_cycles"] = JsonValue(totalSleepCycles());
  Totals["pad_cycles"] = JsonValue(totalPadCycles());
  Totals["accesses"] = JsonValue(totalAccesses());
  Totals["windows"] = JsonValue(totalWindows());
  Totals["leak_bits"] = JsonValue(totalLeakBits());
  Doc["totals"] = std::move(Totals);
  return Doc;
}

/// Lines ranked by total cycles, hottest first; ties toward the smaller
/// line number so the ranking (and everything derived from it) is stable.
static std::vector<const LineCost *>
rankedLines(const std::map<uint32_t, LineCost> &Lines) {
  std::vector<const LineCost *> R;
  R.reserve(Lines.size());
  for (const auto &[L, C] : Lines)
    R.push_back(&C);
  std::stable_sort(R.begin(), R.end(),
                   [](const LineCost *A, const LineCost *B) {
                     if (A->totalCycles() != B->totalCycles())
                       return A->totalCycles() > B->totalCycles();
                     return A->Line < B->Line;
                   });
  return R;
}

void CostLedger::exportMetrics(MetricsRegistry &Reg, size_t TopK,
                               const std::string &Prefix) const {
  Reg.setCounter(Prefix + "prof.cycles", totalCycles());
  Reg.setCounter(Prefix + "prof.sleep_cycles", totalSleepCycles());
  Reg.setCounter(Prefix + "prof.pad_cycles", totalPadCycles());
  Reg.setCounter(Prefix + "prof.accesses", totalAccesses());
  Reg.setCounter(Prefix + "prof.windows", totalWindows());
  Reg.setCounter(Prefix + "prof.lines", Lines.size());
  Reg.setCounter(Prefix + "prof.sites", Sites.size());
  Reg.setGauge(Prefix + "prof.leak_bits", totalLeakBits());

  std::vector<const LineCost *> Ranked = rankedLines(Lines);
  for (size_t I = 0; I != Ranked.size() && I != TopK; ++I) {
    const LineCost &C = *Ranked[I];
    const std::string Base =
        Prefix + "prof.line.L" + std::to_string(C.Line) + ".";
    Reg.setCounter(Base + "cycles", C.totalCycles());
    Reg.setCounter(Base + "misses", C.misses());
    Reg.setCounter(Base + "pad_cycles", C.PadCycles);
    Reg.setGauge(Base + "leak_bits", C.LeakBits);
  }

  for (const auto &[Eta, S] : Sites) {
    const std::string Base =
        Prefix + "prof.site.m" + std::to_string(S.Eta) + ".";
    Reg.setCounter(Base + "windows", S.Windows);
    Reg.setCounter(Base + "pad_cycles", S.PadCycles);
    Reg.setGauge(Base + "leak_bits", S.LeakBits);
  }
}

std::string CostLedger::renderAnnotated(const std::string &Source,
                                        bool Color) const {
  // The three hottest lines get highlighted: red for the hottest, yellow
  // for the next two. Any cost attributed to line 0 (constructs without a
  // source location) is reported separately below the listing.
  std::vector<const LineCost *> Ranked = rankedLines(Lines);
  uint32_t Hot1 = 0, Hot2 = 0, Hot3 = 0;
  size_t Shown = 0;
  for (const LineCost *C : Ranked) {
    if (C->Line == 0 || C->totalCycles() == 0)
      continue;
    if (Shown == 0)
      Hot1 = C->Line;
    else if (Shown == 1)
      Hot2 = C->Line;
    else if (Shown == 2)
      Hot3 = C->Line;
    ++Shown;
    if (Shown == 3)
      break;
  }

  std::string Out;
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf), "%12s %8s %8s %10s  %4s  %s\n", "cycles",
                "misses", "pad", "leak-bits", "line", "source");
  Out += Buf;

  std::stringstream In(Source);
  std::string Text;
  uint32_t N = 0;
  while (std::getline(In, Text)) {
    ++N;
    auto It = Lines.find(N);
    const char *Pre = "";
    const char *Post = "";
    if (Color && It != Lines.end()) {
      if (N == Hot1)
        Pre = "\x1b[31;1m", Post = "\x1b[0m";
      else if (N == Hot2 || N == Hot3)
        Pre = "\x1b[33m", Post = "\x1b[0m";
    }
    if (It == Lines.end()) {
      std::snprintf(Buf, sizeof(Buf), "%12s %8s %8s %10s  %4u  ", ".", ".",
                    ".", ".", N);
    } else {
      const LineCost &C = It->second;
      std::snprintf(Buf, sizeof(Buf),
                    "%s%12" PRIu64 " %8" PRIu64 " %8" PRIu64 " %10.3f%s  %4u  ",
                    Pre, C.totalCycles(), C.misses(), C.PadCycles, C.LeakBits,
                    Post, N);
    }
    Out += Buf;
    Out += Pre;
    Out += Text;
    Out += Post;
    Out += '\n';
  }

  auto NoLoc = Lines.find(0);
  if (NoLoc != Lines.end() && NoLoc->second.totalCycles() != 0) {
    std::snprintf(Buf, sizeof(Buf),
                  "%12" PRIu64 " %8" PRIu64 " %8" PRIu64
                  " %10.3f     .  (no source location)\n",
                  NoLoc->second.totalCycles(), NoLoc->second.misses(),
                  NoLoc->second.PadCycles, NoLoc->second.LeakBits);
    Out += Buf;
  }

  Out += "\n-- hot lines --\n";
  size_t Rank = 0;
  for (const LineCost *C : Ranked) {
    if (C->totalCycles() == 0)
      continue;
    if (++Rank > 5)
      break;
    std::snprintf(Buf, sizeof(Buf),
                  "  #%zu line %-4u %12" PRIu64 " cycles  %8" PRIu64
                  " misses  %8" PRIu64 " pad  %10.3f leak-bits\n",
                  Rank, C->Line, C->totalCycles(), C->misses(), C->PadCycles,
                  C->LeakBits);
    Out += Buf;
  }

  if (!Sites.empty()) {
    Out += "\n-- mitigate sites --\n";
    for (const auto &[Eta, S] : Sites) {
      std::snprintf(Buf, sizeof(Buf),
                    "  m%-3u line %-4u %8" PRIu64 " windows  %10" PRIu64
                    " pad-cycles  %10.3f leak-bits\n",
                    S.Eta, S.Line, S.Windows, S.PadCycles, S.LeakBits);
      Out += Buf;
    }
  }
  return Out;
}

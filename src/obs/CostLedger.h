//===- CostLedger.h - Source-attributed cost ledger -------------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The data side of the source-level timing-provenance profiler: a CostSink
/// (sem/Provenance.h) that both interpreters feed while running with
/// InterpreterOptions::Provenance installed. Every cost — step cycles,
/// sleep cycles, mitigation padding, hardware accesses and each cache/TLB
/// miss with its eviction/writeback/fill outcome — is charged to a source
/// line, and padding/leakage additionally to the mitigate site (η) whose
/// window produced it.
///
/// Misses, sleep, padding and windows arrive as they happen. Step cycles
/// and access counts arrive once per executed instruction when the run
/// stops, so the ledger never sees a hit: each line's TLB and L1 hits are
/// its accesses on that side minus its misses there (LineCost::hw), and
/// its L2 hits arrive with the L1 misses that looked them up. A ledger
/// read before the run stopped lacks that run's steps and accesses.
///
/// Invariants the profiler's self-check relies on (zamc profile aborts when
/// they fail):
///
///   totalCycles()      == Trace::FinalTime        (every cycle attributed)
///   totalPadCycles()   == mit.padded_idle_cycles
///   structureTotals(i) == the machine's HwStats for that structure
///   totalLeakBits()    == LeakAudit::totalBitsBound()  (bit-for-bit)
///
/// Leak bits arrive after the run via applyLeakage(): the ledger replays
/// the audit's counted windows, accumulating per-level partial sums in the
/// audit's own arrival order so the double total is bit-identical to the
/// online account — the same discipline tools/zamtrace applies offline.
///
/// Everything here derives from deterministic run data, so ledger JSON and
/// the prof.* metric namespace ride under the existing byte-stability
/// audits (identical across harness thread counts).
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_OBS_COSTLEDGER_H
#define ZAM_OBS_COSTLEDGER_H

#include "obs/Json.h"
#include "obs/Metrics.h"
#include "sem/Provenance.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace zam {

class LeakAudit;

/// Per-line tallies for one hardware structure (a cache level or TLB).
struct LineHwStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
  uint64_t Writebacks = 0;
  uint64_t LineFills = 0;
};

/// Everything charged to one source line.
struct LineCost {
  uint32_t Line = 0;
  uint64_t StepCycles = 0;   ///< Fetch + ALU + access latencies of steps.
  uint64_t SleepCycles = 0;  ///< Calibrated sleep n durations.
  uint64_t PadCycles = 0;    ///< Mitigation padding settled at this line.
  uint64_t DataAccesses = 0; ///< Loads and stores issued by this line.
  uint64_t Fetches = 0;      ///< Instruction fetches issued by this line.
  /// What was charged per structure, indexed by CostLedger::Structure
  /// (l1d, l2d, l1i, l2i, dtlb, itlb). The TLB and L1 hits are never
  /// charged: read the tallies through hw(), which derives them.
  LineHwStats S[6];
  uint64_t Windows = 0; ///< Mitigate windows that closed at this line.
  double LeakBits = 0;  ///< Σ window bits of those windows.

  uint64_t accesses() const { return DataAccesses + Fetches; }
  /// Structure \p I's tallies, with the TLB and L1 hits derived: every
  /// access walks its side's TLB and L1, so each one that missed in
  /// neither hit in both.
  LineHwStats hw(unsigned I) const;
  uint64_t totalCycles() const { return StepCycles + SleepCycles + PadCycles; }
  uint64_t misses() const {
    uint64_t N = 0;
    for (const LineHwStats &St : S)
      N += St.Misses;
    return N;
  }
};

/// Per-mitigate-site sub-account: what one η cost across all its windows.
/// Deliberately no cycle total — a site's self cycles are not offline
/// reconstructible from the event stream, so they are not claimed here.
struct SiteCost {
  unsigned Eta = 0;
  uint32_t Line = 0;      ///< The mitigate command's source line.
  uint64_t Windows = 0;   ///< Settled windows of this site.
  uint64_t PadCycles = 0; ///< Padding across those windows.
  double LeakBits = 0;    ///< Σ window bits (adversary-projected).
};

/// Source-attribution ledger: implements the interpreter-facing CostSink
/// and renders/exports the result. Lines and sites are keyed maps, so
/// iteration order (and hence JSON/metric order) is deterministic.
class CostLedger : public CostSink {
public:
  /// Index space of LineCost::S and structureTotals(). The order is the
  /// canonical rendering order: data before instruction, caches before
  /// TLBs at each side.
  enum Structure { L1D = 0, L2D = 1, L1I = 2, L2I = 3, DTlb = 4, ITlb = 5 };
  static constexpr unsigned kStructures = 6;
  static const char *structureName(unsigned I);

  // CostSink implementation (called by the interpreters).
  void chargeCycles(const CostCursor &Cur, CycleKind K, uint64_t N) override;
  void chargeAccesses(const CostCursor &Cur, bool IsData,
                      uint64_t N) override;
  void chargeMiss(const CostCursor &Cur, const HwAccess &Access) override;
  void closeWindow(const CostCursor &Cur, const MitigateRecord &R) override;

  /// Replays \p Audit's counted windows into per-line / per-site leak bits.
  /// Call once, after the run settles; arrival order is the audit's own, so
  /// totalLeakBits() == Audit.totalBitsBound() bit-for-bit.
  void applyLeakage(const LeakAudit &Audit);

  const std::map<uint32_t, LineCost> &lines() const { return Lines; }
  const std::map<unsigned, SiteCost> &sites() const { return Sites; }

  uint64_t totalCycles() const;      ///< Step + sleep + pad, all lines.
  uint64_t totalSleepCycles() const;
  uint64_t totalPadCycles() const;
  uint64_t totalAccesses() const;
  uint64_t totalWindows() const;
  /// Aggregated per-structure tallies (index: Structure).
  LineHwStats structureTotals(unsigned I) const;
  /// Σ of the per-level partial sums in label-index order — matches
  /// LeakAudit::totalBitsBound() exactly.
  double totalLeakBits() const;

  /// Canonical JSON: {"lines": [...], "sites": [...], "totals": {...}}.
  /// Doubles go through the registry's shortest-round-trip printer, so the
  /// document is byte-stable and offline-comparable.
  JsonValue toJson() const;

  /// Emits the prof.* namespace into \p Reg: whole-run totals, then the
  /// top-\p TopK lines by total cycles as prof.line.L<line>.* and every
  /// mitigate site as prof.site.m<eta>.*. Ties in the ranking break toward
  /// the smaller line number, so the export is deterministic.
  void exportMetrics(MetricsRegistry &Reg, size_t TopK = 5,
                     const std::string &Prefix = "") const;

  /// Renders \p Source annotated with per-line cycles / misses / pad /
  /// leak-bit columns, followed by a hot-line ranking and the mitigate-site
  /// table. \p Color enables ANSI highlighting of hot lines.
  std::string renderAnnotated(const std::string &Source, bool Color) const;

private:
  LineCost &line(uint32_t L);
  SiteCost &site(unsigned Eta);

  std::map<uint32_t, LineCost> Lines;
  std::map<unsigned, SiteCost> Sites;
  /// Per-level leak-bit partial sums (index: label index), replayed from
  /// the audit so the total reproduces its summation order.
  std::vector<double> LevelBits;
};

} // namespace zam

#endif // ZAM_OBS_COSTLEDGER_H

//===- ExecProfile.h - ExecCore self-profiler -------------------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution observatory: a deterministic self-profiler for the shared
/// execution core (sem/ExecCore.h), implementing the ExecProbe interface
/// declared in sem/Provenance.h. Where CostLedger attributes *simulated*
/// cycles to source constructs, ExecProfile profiles the *engine itself* —
/// exact per-pc execution counts, per-opcode dispatch totals, the dynamic
/// opcode-digram (consecutive-pair) table that ranks the hottest
/// instruction sequences, per-Branch taken/not-taken counts, and per-mitigate-site settle-epoch histograms.
///
/// Everything above is pure control-flow data, so it is bit-identical
/// whether a run is driven by run() or step by step, across any thread
/// partitioning of a run set (profiles merge like metrics registries), and
/// on every hardware design — both drive the same IR through the same
/// core, and dispatch order does not depend on cache state. The one deliberate exception:
/// settle-epoch histograms count scheduler misprediction epochs, which
/// depend on elapsed body cycles and therefore on the hardware design.
/// They stay inside exec.* because they are still deterministic for a
/// fixed (program, inputs, design, policy) tuple.
///
/// Host wall-clock throughput rides on top via epoch sampling — one
/// steady_clock read every kWallEpoch dispatches — and is kept apart
/// from exec.* (wall()), out of deterministic content exactly like the
/// BENCH "wall" section.
///
/// The conservation self-check ties the books together:
///   Σ per-pc counts = dispatches = Σ per-opcode counts
///   Σ digram counts + run-head dispatches = dispatches
///   taken + not-taken = Branch dispatches
///   Σ settle-histogram totals = MitEnd dispatches
/// and Halt never counts anywhere (the core stops when the program counter
/// reaches it; it is never dispatched).
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_OBS_EXECPROFILE_H
#define ZAM_OBS_EXECPROFILE_H

#include "ir/Ir.h"
#include "obs/Histogram.h"
#include "sem/Provenance.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace zam {

class MetricsRegistry;

/// Deterministic ExecCore self-profiler; attach via InterpreterOptions::
/// Probe. One instance may observe any number of sequential runs of the
/// same program (counts accumulate); concurrent runs each get their own
/// instance, merged afterwards.
class ExecProfile final : public ExecProbe {
public:
  /// Number of IrInstr opcodes (the digram table is kNumOps x kNumOps).
  static constexpr unsigned kNumOps = 8;

  /// Default dispatches between host wall-clock samples.
  static constexpr uint64_t kDefaultWallEpoch = 1u << 16;

  /// Per-pc profile: the static descriptor captured from the IR at
  /// onProgram, plus this pc's dynamic counters.
  struct PcStat {
    IrInstr::Op K = IrInstr::Op::Skip;
    uint32_t Line = 0;    ///< Source line (0 = unknown).
    unsigned Eta = 0;     ///< MitEnter/MitEnd: the mitigate site id.
    uint64_t Count = 0;   ///< Dispatches of this pc.
    uint64_t Taken = 0;   ///< Branch only: guard was non-zero.
    uint64_t NotTaken = 0; ///< Branch only: fall-through.
  };

  /// Per-mitigate-site settle profile. One entry per static site (from
  /// the program's MitEnter instructions), present even when the site
  /// never executes, so the exported shape is a function of the program.
  struct SiteStat {
    unsigned Eta = 0;
    LogLinearHistogram SettleEpochs; ///< Misprediction epochs per settle.
  };

  /// One ranked digram: the opcode pair and how many times it occurred
  /// consecutively.
  struct DigramRank {
    IrInstr::Op A = IrInstr::Op::Skip;
    IrInstr::Op B = IrInstr::Op::Skip;
    uint64_t Count = 0;
  };

  /// Host wall-clock throughput from epoch sampling. Non-deterministic by
  /// nature; never part of exec.* content.
  struct WallStats {
    uint64_t Epochs = 0;             ///< Completed sampling epochs.
    uint64_t SampledDispatches = 0;  ///< Dispatches those epochs cover.
    uint64_t ElapsedNs = 0;          ///< steady_clock time across them.

    /// Mean dispatch throughput in dispatches per microsecond (0 when no
    /// epoch completed).
    double dispatchesPerUs() const {
      return ElapsedNs ? 1e3 * static_cast<double>(SampledDispatches) /
                             static_cast<double>(ElapsedNs)
                       : 0.0;
    }
  };

  explicit ExecProfile(uint64_t WallEpoch = kDefaultWallEpoch)
      : WallEpoch(WallEpoch ? WallEpoch : kDefaultWallEpoch),
        WallCountdown(this->WallEpoch) {}

  // ExecProbe implementation (called by the core on its own thread).
  void onProgram(const IrProgram &IR) override;
  void onDispatch(uint32_t Pc) override;
  void onBranch(uint32_t Pc, bool Taken) override;
  void onSettle(unsigned Eta, unsigned Epochs) override;

  uint64_t runs() const { return Runs; }
  uint64_t dispatches() const { return Dispatches; }
  /// First dispatches of a run (no predecessor): the digram table's
  /// conservation remainder.
  uint64_t heads() const { return Heads; }
  const std::vector<PcStat> &pcs() const { return Pcs; }
  const std::vector<SiteStat> &sites() const { return Sites; }
  uint64_t opCount(IrInstr::Op K) const {
    return OpCounts[static_cast<unsigned>(K)];
  }
  uint64_t digram(IrInstr::Op A, IrInstr::Op B) const {
    return Digrams[static_cast<unsigned>(A)][static_cast<unsigned>(B)];
  }
  uint64_t branchTaken() const;
  uint64_t branchNotTaken() const;
  const WallStats &wall() const { return Wall; }

  /// All non-zero digrams, highest count first (ties broken row-major, so
  /// the ranking is deterministic).
  std::vector<DigramRank> rankedDigrams() const;

  /// Verifies the conservation equations (see file comment). Returns false
  /// and fills \p Err with the first violated equation.
  bool selfCheck(std::string &Err) const;

  /// Folds another profile of the same program into this one (order-free,
  /// like MetricsRegistry::merge) — the thread-aggregation path.
  void merge(const ExecProfile &Other);

  /// Exports the deterministic exec.* namespace into \p Reg: run and
  /// dispatch totals, all kNumOps per-opcode counters (fixed shape, zeros
  /// included), branch direction totals, non-zero digrams in row-major
  /// order, every per-pc counter (with taken/not-taken for Branch pcs),
  /// and one settle-epoch histogram per static mitigate site.
  void exportMetrics(MetricsRegistry &Reg) const;

  /// Collapsed-stack export for flamegraph.pl / speedscope: one
  /// "Root;line L;op count" line per (source line, opcode) pair with a
  /// non-zero dispatch count, ordered by line then opcode.
  std::string foldedStacks(const std::string &Root) const;

private:
  void sampleWall();

  std::vector<PcStat> Pcs;
  uint32_t HaltIndex = 0;
  uint64_t Runs = 0;
  uint64_t Heads = 0;
  uint64_t Dispatches = 0;
  uint64_t OpCounts[kNumOps] = {};
  uint64_t Digrams[kNumOps][kNumOps] = {};
  std::vector<SiteStat> Sites; ///< Sorted by Eta.
  bool PrevValid = false;
  IrInstr::Op PrevOp = IrInstr::Op::Skip;

  uint64_t WallEpoch;
  /// Dispatches until the next wall sample. A countdown instead of
  /// `Dispatches % WallEpoch` keeps the hot dispatch path division-free;
  /// the sample points are identical.
  uint64_t WallCountdown;
  bool WallArmed = false;
  std::chrono::steady_clock::time_point WallStart;
  WallStats Wall;
};

} // namespace zam

#endif // ZAM_OBS_EXECPROFILE_H

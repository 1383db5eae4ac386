//===- Mitigation.h - Predictive mitigation policies ------------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The predictive-mitigation machinery of Sec. 7 (Fig. 6):
///
///   predict(n, ℓ) = max(n,1) · 2^Miss[ℓ]
///
/// generalized into a first-class *mitigation policy*: one object that owns
/// both sides of the public-schedule contract —
///
///   - the prediction schedule predict(n, k), and
///   - its leakage accounting: how many schedule values are attainable by a
///     global time T (the N_i(T) of the Sec. 6 bound), the per-window bits
///     log2 N_i(T), the misprediction-count penalty bits, and the Sec. 7
///     closed-form summary bound.
///
/// The Sec. 6 argument only needs the schedule to be *public and
/// deterministic*; any predictor admits a countable set of distinguishable
/// durations, and the bound math must count exactly that predictor's
/// values. Keeping both halves on one object makes it impossible for the
/// runtime schedule and the accountant to disagree — the latent bug this
/// registry replaced (LinearScheme runs priced with fast-doubling math).
///
/// Registered policies (see mitigationPolicyRegistry / parse):
///   fast-doubling         predict(n,k) = max(n,1)·2^k         (the paper)
///   linear                predict(n,k) = max(n,1)·(k+1)
///   bucketed:q=Q          doubling with Q linear sub-steps per octave
///   seeded:est=N          fast-doubling with the estimate floored at N
///
/// The update rule (MitigationState::settle): on a misprediction (the body
/// consumed at least the predicted time), Miss[ℓ] is incremented until the
/// prediction exceeds the consumed time, and execution idles until the
/// prediction. A mitigated block's padded duration is therefore always a
/// schedule value.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_SEM_MITIGATION_H
#define ZAM_SEM_MITIGATION_H

#include "lattice/SecurityLattice.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace zam {

/// A mitigation policy: the prediction schedule plus the leakage-bound
/// arithmetic that prices it. Policies are immutable and stateless (the
/// Miss table lives in MitigationState), so one instance may be shared by
/// any number of concurrent runs.
class MitigationPolicy {
public:
  virtual ~MitigationPolicy();

  /// Saturation ceiling for schedule values: predictions clamp here instead
  /// of wrapping uint64_t (mirrors — and bounds — fast-doubling's shift
  /// cap). Far above any reachable cycle count, so saturation is only ever
  /// observable for adversarially huge estimates or miss counts.
  static constexpr uint64_t kPredictionCap = uint64_t(1) << 62;

  //===--------------------------------------------------------------------===//
  // Schedule side
  //===--------------------------------------------------------------------===//

  /// The prediction for initial estimate \p InitialEstimate after
  /// \p Misses mispredictions. Monotone non-decreasing in \p Misses and
  /// never overflows (values saturate at kPredictionCap).
  virtual uint64_t predict(uint64_t InitialEstimate,
                           unsigned Misses) const = 0;

  //===--------------------------------------------------------------------===//
  // Accounting side (Sec. 6/7, per policy)
  //===--------------------------------------------------------------------===//

  /// N(T) for one window: how many of this policy's schedule values with
  /// initial estimate \p Estimate fit within global time \p ElapsedTime.
  /// Always at least 1 (the window did settle on something).
  virtual uint64_t attainableValues(int64_t Estimate,
                                    uint64_t ElapsedTime) const = 0;

  /// log2 N(T) — the bits one settled window can transmit by time
  /// \p ElapsedTime.
  double windowBoundBits(int64_t Estimate, uint64_t ElapsedTime) const;

  /// The bits revealed by a level's misprediction count itself; for every
  /// registered policy the count is what an observer of any single window
  /// learns, so the default log2(Misses+1) applies across the board.
  virtual double penaltyBits(unsigned Misses) const;

  /// The policy's closed-form analog of the Sec. 7 summary bound for
  /// \p RelevantMitigates windows within elapsed time \p ElapsedTime over
  /// an adversary upward closure of \p UpwardClosureSize levels; zero when
  /// no window ran. The shape is |LeA↑|·log2(K+1)·L(T) with L(T) the
  /// policy's maximum ladder size by time T (each level's observation
  /// distributes the K windows over the L rungs, ≤ (K+1)^L vectors):
  /// fast-doubling's L = 1+log2 T reproduces the paper's
  /// |LeA↑|·log2(K+1)·(1+log2 T) bit for bit; slower-growing schedules
  /// have larger ladders and correspondingly weaker summary guarantees.
  virtual double closedFormBoundBits(unsigned UpwardClosureSize,
                                     uint64_t RelevantMitigates,
                                     uint64_t ElapsedTime) const;

  //===--------------------------------------------------------------------===//
  // Identity
  //===--------------------------------------------------------------------===//

  /// The registry name ("fast-doubling", "linear", "bucketed", "seeded").
  virtual const char *name() const = 0;

  /// The canonical spec string, parseable by parseMitigationPolicy:
  /// the name plus parameters, e.g. "bucketed:q=4". This is what trace and
  /// stats meta record so offline tools reconstruct the exact policy.
  virtual std::string spec() const { return name(); }

protected:
  /// max(Base,1)·2^min(Shift,cap), saturating — the shared doubling core.
  static uint64_t doublingPredict(uint64_t Base, unsigned Misses);
  /// The doubling N(T) loop (also the free attainableScheduleValues()).
  static uint64_t doublingAttainable(int64_t Estimate, uint64_t ElapsedTime);
  /// Base·Mult clamped to kPredictionCap instead of wrapping.
  static uint64_t saturatingMul(uint64_t Base, uint64_t Mult);
};

/// The paper's scheme: predict(n, k) = max(n,1) · 2^k (shift capped so the
/// prediction never overflows). N(T) counts the powers-of-two ladder.
class FastDoublingPolicy final : public MitigationPolicy {
public:
  uint64_t predict(uint64_t InitialEstimate, unsigned Misses) const override;
  uint64_t attainableValues(int64_t Estimate,
                            uint64_t ElapsedTime) const override;
  double closedFormBoundBits(unsigned UpwardClosureSize,
                             uint64_t RelevantMitigates,
                             uint64_t ElapsedTime) const override;
  const char *name() const override { return "fast-doubling"; }
};

/// Ablation alternative: predict(n, k) = max(n,1) · (k+1). Linear schedules
/// waste less time per misprediction but admit ~T/n distinguishable
/// durations by time T, i.e. leak more per unit time.
class LinearPolicy final : public MitigationPolicy {
public:
  uint64_t predict(uint64_t InitialEstimate, unsigned Misses) const override;
  uint64_t attainableValues(int64_t Estimate,
                            uint64_t ElapsedTime) const override;
  double closedFormBoundBits(unsigned UpwardClosureSize,
                             uint64_t RelevantMitigates,
                             uint64_t ElapsedTime) const override;
  const char *name() const override { return "linear"; }
};

/// Quantized doubling: each octave of the fast-doubling ladder is split
/// into Q evenly spaced sub-steps,
///
///   predict(n, k) = max(n,1)·2^(k/Q) + (max(n,1)·2^(k/Q) / Q)·(k mod Q),
///
/// so a misprediction costs a factor (1+1/Q) instead of 2 while the number
/// of attainable values by time T grows only Q-fold — the interior of the
/// doubling/linear Pareto frontier. Q = 1 degenerates to fast-doubling.
class BucketedPolicy final : public MitigationPolicy {
public:
  explicit BucketedPolicy(unsigned Q);
  uint64_t predict(uint64_t InitialEstimate, unsigned Misses) const override;
  uint64_t attainableValues(int64_t Estimate,
                            uint64_t ElapsedTime) const override;
  double closedFormBoundBits(unsigned UpwardClosureSize,
                             uint64_t RelevantMitigates,
                             uint64_t ElapsedTime) const override;
  const char *name() const override { return "bucketed"; }
  std::string spec() const override;
  unsigned quantum() const { return Q; }

private:
  unsigned Q;
};

/// Profile-seeded fast-doubling: the initial estimate is floored at a
/// calibrated value N (e.g. the observed worst-case body time from a
/// profiling run), predict(n, k) = max(n, N, 1)·2^k. Raising the floor
/// trades startup mispredictions (and their doublings) for fixed padding.
class SeededPolicy final : public MitigationPolicy {
public:
  explicit SeededPolicy(uint64_t EstimateFloor);
  uint64_t predict(uint64_t InitialEstimate, unsigned Misses) const override;
  uint64_t attainableValues(int64_t Estimate,
                            uint64_t ElapsedTime) const override;
  double closedFormBoundBits(unsigned UpwardClosureSize,
                             uint64_t RelevantMitigates,
                             uint64_t ElapsedTime) const override;
  const char *name() const override { return "seeded"; }
  std::string spec() const override;
  uint64_t estimateFloor() const { return Floor; }

private:
  uint64_t Floor;
};

/// Shared singletons (parameterless policies).
const MitigationPolicy &fastDoublingPolicy();
const MitigationPolicy &linearPolicy();

/// Owning handle for parsed/parameterized policies. Handles to the
/// parameterless singletons carry a no-op deleter, so every policy can be
/// held uniformly.
using MitigationPolicyPtr = std::shared_ptr<const MitigationPolicy>;

/// Parses a policy spec: `fast-doubling` | `linear` | `bucketed[:q=Q]` |
/// `seeded:est=N`. Returns nullptr on a malformed spec and, when \p Error
/// is non-null, stores a human-readable reason.
MitigationPolicyPtr parseMitigationPolicy(const std::string &Spec,
                                          std::string *Error = nullptr);

/// One registry row, for `zamc policies` and the usage text.
struct MitigationPolicyInfo {
  const char *Name;        ///< Registry name.
  const char *ParamSyntax; ///< Spec syntax, e.g. "bucketed:q=<Q>".
  const char *Summary;     ///< One-line description.
};

/// Every registered policy, in canonical (frontier) order.
const std::vector<MitigationPolicyInfo> &mitigationPolicyRegistry();

/// Which policy governs each mitigate site: a run-wide default plus
/// optional per-site (η-keyed) overrides. Carried by InterpreterOptions
/// into lowering (where every mitigate instruction resolves its policy
/// once) and by the leakage accountant / trace exporter (which must price
/// each window with the policy that actually scheduled it). Pointers are
/// borrowed; callers owning parsed policies keep the MitigationPolicyPtr
/// handles alive for the selection's lifetime.
struct PolicySelection {
  /// Run-wide default; fastDoublingPolicy() when null.
  const MitigationPolicy *Default = nullptr;
  /// Per-site overrides, keyed by mitigate id η. Kept sorted by η so meta
  /// emission is deterministic.
  std::vector<std::pair<unsigned, const MitigationPolicy *>> PerSite;

  const MitigationPolicy &base() const {
    return Default ? *Default : fastDoublingPolicy();
  }
  const MitigationPolicy &forSite(unsigned Eta) const;
  void overrideSite(unsigned Eta, const MitigationPolicy &P);
  /// True when this is the paper's configuration: fast-doubling everywhere.
  /// Telemetry only records policy meta when this is false, keeping
  /// default-run artifacts byte-identical to the pre-registry format.
  bool isDefaultOnly() const;
};

/// One per-site override in its text form `ETA=SPEC`: the item that
/// `zamc --mitigate-site` takes and that the `mitigation_sites`
/// provenance key lists, comma-separated.
struct SiteOverride {
  unsigned Eta = 0;
  MitigationPolicyPtr Policy;
};

/// Parses one `ETA=SPEC` item. On failure returns nullopt and sets
/// \p Error to the policy's diagnostic, or clears it when the item is not
/// ETA=SPEC at all (no '=', or an η that is not an unsigned integer).
std::optional<SiteOverride> parseSiteOverride(std::string_view Item,
                                              std::string &Error);

/// The per-site overrides of \p Sel as `ETA=SPEC[,ETA=SPEC...]` in η
/// order; empty when there are none.
std::string formatSiteOverrides(const PolicySelection &Sel);

/// How mispredictions penalize future predictions (Sec. 7 cites [38]):
/// PerLevel keeps one Miss counter per security level (the paper's local
/// policy); Global shares a single counter across all levels (coarser, the
/// ablation baseline).
enum class PenaltyPolicy { PerLevel, Global };

/// The runtime Miss table plus the update rule of Fig. 6.
class MitigationState {
public:
  MitigationState(const SecurityLattice &Lat, const MitigationPolicy &Policy,
                  PenaltyPolicy Penalty);

  /// Current prediction for a mitigate with initial estimate \p Estimate at
  /// level \p Level, under the state's default policy or an explicit
  /// per-site one.
  uint64_t predict(int64_t Estimate, Label Level) const;
  uint64_t predict(int64_t Estimate, Label Level,
                   const MitigationPolicy &P) const;

  unsigned misses(Label Level) const;

  struct Outcome {
    uint64_t Duration = 0;     ///< Final prediction = padded duration.
    bool Mispredicted = false; ///< Whether Miss was incremented.
  };

  /// Applies the update rule: increments Miss[\p Level] while the body's
  /// \p Elapsed time has reached the prediction, then returns the final
  /// (padded) duration.
  Outcome settle(int64_t Estimate, Label Level, uint64_t Elapsed);
  Outcome settle(int64_t Estimate, Label Level, uint64_t Elapsed,
                 const MitigationPolicy &P);

  void reset();

  const MitigationPolicy &policy() const { return *Policy; }
  PenaltyPolicy penalty() const { return Penalty; }

private:
  unsigned &missSlot(Label Level);
  unsigned missSlotValue(Label Level) const;

  const SecurityLattice *Lat;
  const MitigationPolicy *Policy;
  PenaltyPolicy Penalty;
  std::vector<unsigned> Miss; ///< One entry per level (or [0] when Global).
};

} // namespace zam

#endif // ZAM_SEM_MITIGATION_H

#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string_view>

#include "core/column_bank.h"
#include "core/database.h"
#include "core/measures.h"
#include "core/prepared.h"
#include "core/record.h"
#include "core/weights.h"

namespace infoleak::obs {
class RequestContext;
}
#include "util/result.h"

namespace infoleak {

/// \brief Computes the record leakage L(r, p) of Definition 2.1 — the
/// expected F1 of a possible world of `r` against the reference `p` — plus
/// the expected-precision / expected-recall variants the paper mentions.
///
/// Three implementations reproduce §5:
///  * NaiveLeakage  — enumerates all 2^|r| possible worlds; arbitrary
///                    weights; exact; the correctness oracle.
///  * ExactLeakage  — Algorithm 1; O(|p|·|r|²); exact, but requires one
///                    constant weight across all labels in r and p.
///  * ApproxLeakage — second-order Taylor expansion; O(|p|·|r|); arbitrary
///                    weights; highly accurate in practice (Table 5).
///
/// Each engine implements one evaluation path: the column-view methods
/// (`*Columnar`), taking a `ColumnRecordView` of `r` resolved against a
/// `PreparedReference` plus a caller-owned `LeakageWorkspace`. The view
/// comes from a `ColumnBank` (set scans over a store) or from the
/// one-record `PreparedRecord` holder (record-at-a-time callers). The
/// string API below — `Record`s and a `WeightModel` in, a double out — is a
/// non-virtual adapter in this base class: it prepares `p`, loads `r` into
/// a holder and calls the view method, so it is bit-identical to a bank
/// scan of the same record by construction.
///
/// Every successful evaluation returns a value in [0, 1]: the measures are
/// expectations of statistics bounded by 1, so finite totals are clamped
/// back into range when floating-point rounding (or the Taylor truncation
/// of ApproxLeakage) pushes them out, and non-finite totals — possible only
/// when the weight model overflows double arithmetic — surface as
/// InvalidArgument instead of silently propagating NaN/Inf.
///
/// Engines are stateless and safe to share across threads; workspaces are
/// not, so use one workspace per thread.
class LeakageEngine {
 public:
  virtual ~LeakageEngine() = default;

  /// Engine name for benchmark tables ("naive", "exact", "approx", "auto").
  virtual std::string_view name() const = 0;

  // ----- Column-view evaluation (the engine's one implementation) ----------
  //
  // `r` must be resolved against `p` (a `ColumnBank` built on `p`, or a
  // `PreparedRecord` assigned against it). The views stream contiguous
  // confidence/weight/match-position columns through the array kernels
  // (core/kernels.h) — no string hashing, no per-record match lookups, no
  // allocation in the steady state.

  /// L(r, p) = E[F1(r̄, p)] over the possible worlds r̄ of r.
  virtual Result<double> RecordLeakageColumnar(const ColumnRecordView& r,
                                               const PreparedReference& p,
                                               LeakageWorkspace* ws) const = 0;

  /// E[Pr(r̄, p)]: Definition 2.1 with F1 replaced by precision. Default:
  /// NotSupported (for measures that have no precision analogue).
  virtual Result<double> ExpectedPrecisionColumnar(const ColumnRecordView& r,
                                                   const PreparedReference& p,
                                                   LeakageWorkspace* ws) const;

  /// E[Re(r̄, p)]: Definition 2.1 with F1 replaced by recall. Recall is
  /// linear in the attribute indicators, so every engine computes it
  /// exactly: Σ_{b∈p} p(b,r)·w_b / Σ_{b∈p} w_b.
  Result<double> ExpectedRecallColumnar(const ColumnRecordView& r,
                                        const PreparedReference& p,
                                        LeakageWorkspace* ws) const;

  // ----- String adapters (Record in, double out) ---------------------------

  /// As RecordLeakageColumnar, on strings.
  Result<double> RecordLeakage(const Record& r, const Record& p,
                               const WeightModel& wm) const;

  /// As ExpectedPrecisionColumnar, on strings.
  Result<double> ExpectedPrecision(const Record& r, const Record& p,
                                   const WeightModel& wm) const;

  /// As ExpectedRecallColumnar, on strings.
  Result<double> ExpectedRecall(const Record& r, const Record& p,
                                const WeightModel& wm) const;

 private:
  using ViewMethod = Result<double> (LeakageEngine::*)(
      const ColumnRecordView&, const PreparedReference&,
      LeakageWorkspace*) const;
  Result<double> AdaptString(ViewMethod method, const Record& r,
                             const Record& p, const WeightModel& wm) const;
};

/// \brief Exponential-time oracle: enumerates possible worlds (§5's naive
/// algorithm, O(2^|r|·|r|)). Refuses records larger than `max_attributes`.
class NaiveLeakage : public LeakageEngine {
 public:
  explicit NaiveLeakage(std::size_t max_attributes = 25)
      : max_attributes_(max_attributes) {}

  std::string_view name() const override { return "naive"; }
  Result<double> RecordLeakageColumnar(const ColumnRecordView& r,
                                       const PreparedReference& p,
                                       LeakageWorkspace* ws) const override;
  Result<double> ExpectedPrecisionColumnar(const ColumnRecordView& r,
                                           const PreparedReference& p,
                                           LeakageWorkspace* ws) const override;

 private:
  std::size_t max_attributes_;
};

/// \brief Algorithm 1 (§5.1): exact record leakage in O(|p|·|r|²) time via
/// polynomial-coefficient integration. Requires all labels occurring in `r`
/// and `p` to carry one common weight (the weight value itself cancels);
/// returns InvalidArgument otherwise.
class ExactLeakage : public LeakageEngine {
 public:
  std::string_view name() const override { return "exact"; }
  Result<double> RecordLeakageColumnar(const ColumnRecordView& r,
                                       const PreparedReference& p,
                                       LeakageWorkspace* ws) const override;
  Result<double> ExpectedPrecisionColumnar(const ColumnRecordView& r,
                                           const PreparedReference& p,
                                           LeakageWorkspace* ws) const override;
};

/// \brief Second-order Taylor approximation (§5.2): O(|p|·|r|) time,
/// arbitrary weights. Approximates E[w_b/(Y+c)] by
/// w_b/(E[Y]+c) + w_b·Var[Y]/(E[Y]+c)³ with Y the total believed weight of
/// r̄ minus the matched attribute.
///
/// `order` selects the Taylor truncation: 1 keeps only the mean term
/// (F(E[Y])), 2 (the paper's choice, default) adds the variance correction.
/// Only orders 1 and 2 exist; `Create` rejects anything else, while the
/// constructor clamps to the nearest supported order (order < 2 → 1,
/// order > 2 → 2) for callers that cannot handle a Status. The ablation
/// benchmark quantifies what the second term buys.
class ApproxLeakage : public LeakageEngine {
 public:
  /// Validating factory: fails with InvalidArgument unless order ∈ {1, 2}.
  static Result<ApproxLeakage> Create(int order);

  /// Clamps out-of-range orders to the nearest supported one (counted in
  /// the `infoleak_approx_order_clamped_total` metric).
  explicit ApproxLeakage(int order = 2);

  std::string_view name() const override {
    return order_ == 2 ? "approx" : "approx-o1";
  }
  Result<double> RecordLeakageColumnar(const ColumnRecordView& r,
                                       const PreparedReference& p,
                                       LeakageWorkspace* ws) const override;
  Result<double> ExpectedPrecisionColumnar(const ColumnRecordView& r,
                                           const PreparedReference& p,
                                           LeakageWorkspace* ws) const override;

 private:
  int order_;
};

/// Largest record AutoLeakage hands to the naive oracle (and the naive
/// engine's cap inside it): 2^16 worlds per evaluation.
inline constexpr std::size_t kAutoNaiveCutoff = 16;

/// \brief Dispatching engine: Algorithm 1 when the weight model is constant
/// over (r, p); the naive oracle when the record has at most
/// kAutoNaiveCutoff attributes; the Taylor approximation otherwise. This is
/// the engine most applications should use.
class AutoLeakage : public LeakageEngine {
 public:
  AutoLeakage() : naive_(kAutoNaiveCutoff) {}

  std::string_view name() const override { return "auto"; }
  Result<double> RecordLeakageColumnar(const ColumnRecordView& r,
                                       const PreparedReference& p,
                                       LeakageWorkspace* ws) const override;
  Result<double> ExpectedPrecisionColumnar(const ColumnRecordView& r,
                                           const PreparedReference& p,
                                           LeakageWorkspace* ws) const override;

 private:
  /// The dispatch rule itself: exact when one weight covers (r, p), naive
  /// when small enough to enumerate, approx otherwise.
  const LeakageEngine& Pick(const ColumnRecordView& r,
                            const PreparedReference& p) const;

  NaiveLeakage naive_;
  ExactLeakage exact_;
  ApproxLeakage approx_;
};

/// \brief Basic set leakage L0(R, p) = max_{r∈R} L(r, p) (§2.3); 0 for an
/// empty database. Prepares `p` once and streams the records through one
/// reusable `PreparedRecord` holder and workspace.
Result<double> SetLeakage(const Database& db, const Record& p,
                          const WeightModel& wm, const LeakageEngine& engine);

/// As above with a caller-prepared reference — for callers that evaluate
/// several databases (or database versions) against one fixed `p`.
Result<double> SetLeakage(const Database& db, const PreparedReference& p,
                          const LeakageEngine& engine);

/// \brief As SetLeakage, but also reports which record attains the maximum
/// (index into `db`, or -1 for an empty database).
Result<double> SetLeakageArgMax(const Database& db, const Record& p,
                                const WeightModel& wm,
                                const LeakageEngine& engine,
                                std::ptrdiff_t* argmax);

/// \brief As above with a caller-prepared reference, optionally
/// cancellable: when `cancel` is set it is polled every `check_every`
/// record evaluations (and before the first), and a true return aborts the
/// scan with DeadlineExceeded. Polling does not change the scan order or
/// the floating-point accumulation, so a run that is never cancelled
/// returns bit-identical results. This is how the serving layer enforces
/// per-request deadlines mid-evaluation without the engines knowing about
/// clocks.
Result<double> SetLeakageArgMax(const Database& db, const PreparedReference& p,
                                const LeakageEngine& engine,
                                std::ptrdiff_t* argmax,
                                const std::function<bool()>& cancel = {},
                                std::size_t check_every = 256);

/// \brief Batch evaluation: L(r, p) for every record in `records` against a
/// once-prepared `p`, in order, through one reusable holder. The building block for scoring scenarios
/// that need per-record leakages rather than the max (re-identification,
/// ranking, probabilistic bounds).
Result<std::vector<double>> BatchLeakage(std::span<const Record* const> records,
                                         const Record& p,
                                         const WeightModel& wm,
                                         const LeakageEngine& engine);
Result<std::vector<double>> BatchLeakage(std::span<const Record* const> records,
                                         const PreparedReference& p,
                                         const LeakageEngine& engine);

// ---------------------------------------------------------------------------
// Columnar set-leakage scans
// ---------------------------------------------------------------------------

/// \brief Options for a columnar set-leakage scan.
struct ColumnScanOptions {
  /// Worker threads sharding the bank (hardware concurrency when 0;
  /// 1 = serial). Workers take contiguous column ranges, so each streams
  /// its slice of the bank's arrays front to back.
  std::size_t num_threads = 1;

  /// Polled every `check_every` evaluations (and before the first); a true
  /// return aborts the scan with DeadlineExceeded. With num_threads > 1 the
  /// callback is polled from every worker and must be thread-safe.
  std::function<bool()> cancel;
  std::size_t check_every = 256;

  /// Optional request-scoped attribution sink: when set, the scan charges
  /// its wall time to the eval phase and reports the records visible to
  /// the scan plus the dispatched kernel variant. Attribution happens on
  /// the calling thread only (workers are joined before the scan returns),
  /// so the context needs no synchronization.
  obs::RequestContext* ctx = nullptr;
};

/// \brief Set leakage L0 over a column bank: max_i L(bank[i], p), with the
/// attaining index in `*argmax` (-1 when empty). Serial scans, sharded
/// scans, and cancelled-then-retried scans all return bit-identical maxima
/// and the same (first) argmax as SetLeakageArgMax over the source
/// database.
Result<double> SetLeakageColumnar(const ColumnBank& bank,
                                  const LeakageEngine& engine,
                                  std::ptrdiff_t* argmax = nullptr,
                                  const ColumnScanOptions& options = {});

/// \brief Per-record leakages over a column bank, in bank order — the
/// columnar analogue of BatchLeakage.
Result<std::vector<double>> BatchLeakageColumnar(const ColumnBank& bank,
                                                 const LeakageEngine& engine);

/// \brief Single-record columnar evaluation of any view resolved against
/// `p`, reusing the caller's workspace. This is the delta-maintenance entry
/// point — a `LeakageIndex` resolves each store row it applies into a
/// one-record scratch view and evaluates it here, and because the
/// per-record computation is the same one ScanColumnRange performs over
/// identical columns, a sequence of these calls is bit-identical to a cold
/// scan over a bank of the same records. Counted on the columnar path
/// metric like every other evaluation.
Result<double> ViewRecordLeakage(const ColumnRecordView& v,
                                 const PreparedReference& p,
                                 const LeakageEngine& engine,
                                 LeakageWorkspace* ws);

/// \brief ViewRecordLeakage of `bank`'s record `index`. `ws` may be null (a
/// scratch workspace is then used).
Result<double> BankRecordLeakage(const ColumnBank& bank, std::size_t index,
                                 const LeakageEngine& engine,
                                 LeakageWorkspace* ws = nullptr);

/// \brief Single-record evaluation against a caller-prepared reference:
/// loads `r` into `holder` and evaluates its view — the per-record step of
/// SetLeakageArgMax and BatchLeakage, for callers that score records one at
/// a time against a reference they keep (the store's `RecordLeak`, the
/// service's inline `leak`, streaming and re-identification). `holder` and
/// `ws` may be null (scratch is then used); pass them to reuse capacity
/// across calls.
Result<double> HolderRecordLeakage(const Record& r, const PreparedReference& p,
                                   const LeakageEngine& engine,
                                   PreparedRecord* holder = nullptr,
                                   LeakageWorkspace* ws = nullptr);

/// \brief Convenience factory for the dispatching engine.
std::unique_ptr<LeakageEngine> MakeDefaultEngine();

}  // namespace infoleak

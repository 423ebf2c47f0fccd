#include "core/leakage.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <thread>

#include "core/engine_common.h"
#include "core/kernels.h"
#include "core/polynomial.h"
#include "core/possible_worlds.h"
#include "obs/metrics.h"
#include "obs/request.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace infoleak {

using engine_common::EngineEvalCounter;
using engine_common::FillMatchedFlags;
using engine_common::FinishUnitInterval;

namespace {

// ---------------------------------------------------------------------------
// Instrumentation handles (resolved once; Inc is a sharded relaxed add)
// ---------------------------------------------------------------------------

constexpr char kPathHelp[] =
    "Record evaluations by API path: string adapter vs column view";

obs::Counter& StringPathCounter() {
  static obs::Counter& string_count =
      obs::MetricsRegistry::Global().GetCounter(
          "infoleak_eval_path_total", {{"path", "string"}}, kPathHelp);
  return string_count;
}

obs::Counter& ColumnarPathCounter() {
  static obs::Counter& columnar_count =
      obs::MetricsRegistry::Global().GetCounter(
          "infoleak_eval_path_total", {{"path", "columnar"}}, kPathHelp);
  return columnar_count;
}

/// The kernel table evaluations dispatch to, with the dispatch counted per
/// invocation under the variant that won (the variant is fixed per process,
/// so the label resolves once and Inc is a sharded relaxed add).
const kern::KernelTable& ActiveKernels() {
  static obs::Counter& dispatches = obs::MetricsRegistry::Global().GetCounter(
      "infoleak_kernel_dispatch_total",
      {{"variant", std::string(kern::Active().name)}},
      "Array-kernel invocations by dispatched variant (scalar / avx2 / "
      "avx512; forced scalar via INFOLEAK_FORCE_SCALAR)");
  dispatches.Inc();
  return kern::Active();
}

obs::Counter& NaiveCapCounter() {
  static obs::Counter& rejected = obs::MetricsRegistry::Global().GetCounter(
      "infoleak_naive_cap_rejections_total", {},
      "Naive-engine evaluations refused because the record exceeded the "
      "2^|r| enumeration cap");
  return rejected;
}

obs::Histogram& SetLeakageLatency() {
  static obs::Histogram& serial = obs::MetricsRegistry::Global().GetHistogram(
      "infoleak_set_leakage_seconds", {{"mode", "serial"}},
      "Wall time of one SetLeakage/SetLeakageArgMax scan");
  return serial;
}

obs::Histogram& SetLeakageLatencyColumnar() {
  static obs::Histogram& columnar =
      obs::MetricsRegistry::Global().GetHistogram(
          "infoleak_set_leakage_seconds", {{"mode", "columnar"}},
          "Wall time of one SetLeakage/SetLeakageArgMax scan");
  return columnar;
}

/// Enumerates all 2^|r| worlds (the paper's O(2^|r|·|r|) naive algorithm)
/// and returns E[factor·overlap/(total_r + base)], covering both F1
/// (base = W(p), factor = 2) and precision (base = 0, factor = 1). The view
/// already holds the confidence and weight columns, and `matched` falls out
/// of the precomputed match positions without a single hash lookup.
Result<double> NaiveEnumerate(const ColumnRecordView& r, double base,
                              double factor, std::size_t max_attributes,
                              LeakageWorkspace* ws) {
  if (max_attributes > kMaxEnumerableAttributes) {
    max_attributes = kMaxEnumerableAttributes;
  }
  if (r.size > max_attributes) {
    NaiveCapCounter().Inc();
    return Status::ResourceExhausted(
        "record has " + std::to_string(r.size) +
        " attributes; naive enumeration capped at " +
        std::to_string(max_attributes));
  }
  FillMatchedFlags(r, ws);
  return ActiveKernels().naive_sum(r.conf, r.weight, ws->matched.data(),
                                   r.size, base, factor);
}

}  // namespace

namespace engine_common {

obs::Counter& EngineEvalCounter(std::string_view engine) {
  return obs::MetricsRegistry::Global().GetCounter(
      "infoleak_leakage_evaluations_total",
      {{"engine", std::string(engine)}},
      "Record-leakage evaluations per engine (the hot-loop unit of work)");
}

Result<double> FinishUnitInterval(double total, const char* what) {
  if (!std::isfinite(total)) {
    return Status::InvalidArgument(
        std::string(what) +
        " is not finite; the weight model is too extreme for double "
        "arithmetic");
  }
  return std::clamp(total, 0.0, 1.0);
}

void FillMatchedFlags(const ColumnRecordView& r, LeakageWorkspace* ws) {
  ws->matched.assign(r.size, 0);
  for (std::size_t i = 0; i < r.size; ++i) {
    ws->matched[i] = r.match_pos[i] != PreparedReference::kNoMatch ? 1 : 0;
  }
}

}  // namespace engine_common

// ---------------------------------------------------------------------------
// LeakageEngine defaults and string adapters
// ---------------------------------------------------------------------------

Result<double> LeakageEngine::ExpectedPrecisionColumnar(
    const ColumnRecordView& /*r*/, const PreparedReference& /*p*/,
    LeakageWorkspace* /*ws*/) const {
  return Status::NotSupported("engine '" + std::string(name()) +
                              "' has no expected-precision evaluation");
}

Result<double> LeakageEngine::ExpectedRecallColumnar(
    const ColumnRecordView& r, const PreparedReference& p,
    LeakageWorkspace* ws) const {
  const double denom = p.total_weight();
  if (denom <= 0.0) return 0.0;
  FillMatchColumns(r, p.size(), ws);
  const double num = ActiveKernels().recall_sum(
      ws->match_conf.data(), p.attr_weights().data(), p.size());
  return FinishUnitInterval(num / denom, "expected recall");
}

Result<double> LeakageEngine::AdaptString(ViewMethod method, const Record& r,
                                          const Record& p,
                                          const WeightModel& wm) const {
  StringPathCounter().Inc();
  const PreparedReference ref(p, wm);
  const PreparedRecord holder(r, ref);
  LeakageWorkspace ws;
  return (this->*method)(holder.view(), ref, &ws);
}

Result<double> LeakageEngine::RecordLeakage(const Record& r, const Record& p,
                                            const WeightModel& wm) const {
  return AdaptString(&LeakageEngine::RecordLeakageColumnar, r, p, wm);
}

Result<double> LeakageEngine::ExpectedPrecision(const Record& r,
                                                const Record& p,
                                                const WeightModel& wm) const {
  return AdaptString(&LeakageEngine::ExpectedPrecisionColumnar, r, p, wm);
}

Result<double> LeakageEngine::ExpectedRecall(const Record& r, const Record& p,
                                             const WeightModel& wm) const {
  return AdaptString(&LeakageEngine::ExpectedRecallColumnar, r, p, wm);
}

// ---------------------------------------------------------------------------
// NaiveLeakage
// ---------------------------------------------------------------------------

Result<double> NaiveLeakage::RecordLeakageColumnar(
    const ColumnRecordView& r, const PreparedReference& p,
    LeakageWorkspace* ws) const {
  static obs::Counter& evals = EngineEvalCounter("naive");
  evals.Inc();
  Result<double> total = NaiveEnumerate(r, /*base=*/p.total_weight(),
                                        /*factor=*/2.0, max_attributes_, ws);
  if (!total.ok()) return total.status();
  return FinishUnitInterval(*total, "naive record leakage");
}

Result<double> NaiveLeakage::ExpectedPrecisionColumnar(
    const ColumnRecordView& r, const PreparedReference& /*p*/,
    LeakageWorkspace* ws) const {
  Result<double> total = NaiveEnumerate(r, /*base=*/0.0, /*factor=*/1.0,
                                        max_attributes_, ws);
  if (!total.ok()) return total.status();
  return FinishUnitInterval(*total, "naive expected precision");
}

// ---------------------------------------------------------------------------
// ExactLeakage (Algorithm 1)
// ---------------------------------------------------------------------------

namespace {

/// Algorithm 1 cancels the constant weight out of every F1 numerator and
/// denominator — valid only when that weight is positive. A uniform weight
/// of exactly 0 still passes `UniformWeightOver`, but then every possible
/// world's weighted F1 is 0/0, which the per-world convention (and
/// NaiveLeakage) evaluates as 0: no weighted content, no leakage. Cancelling
/// the 0 instead would silently compute the *unweighted* F1 (the
/// differential selfcheck caught exactly that: naive 0 vs exact 0.297).
bool UniformWeightIsZero(const ColumnRecordView& r,
                         const PreparedReference& p) {
  if (r.size > 0) return r.common_weight == 0.0;
  if (p.size() > 0) return p.common_weight() == 0.0;
  return false;
}

/// Shared core of Algorithm 1. Computes
///   factor · Σ_{b∈p} p(b,r) · ∫₀¹ t^m · Π_{a∈z}(c_a·t + 1−c_a) dt
/// where z = r without the attribute matching b. With m = |p| and
/// factor = 2 this is L(r, p); with m = 0 and factor = 1 it is E[Pr]. The
/// match columns scatter straight from the precomputed positions, and the
/// confidence column feeds the kernel without a gather; iteration stays in
/// the record's canonical order.
double ExactSum(const ColumnRecordView& r, const PreparedReference& p,
                double m, double factor, LeakageWorkspace* ws) {
  FillMatchColumns(r, p.size(), ws);
  ws->poly.resize(r.size + 1);
  return ActiveKernels().exact_sum(r.conf, r.size, ws->match_conf.data(),
                                   ws->match_rpos.data(), p.size(), m, factor,
                                   ws->poly.data());
}

}  // namespace

Result<double> ExactLeakage::RecordLeakageColumnar(
    const ColumnRecordView& r, const PreparedReference& p,
    LeakageWorkspace* ws) const {
  static obs::Counter& evals = EngineEvalCounter("exact");
  evals.Inc();
  if (!UniformWeightOver(r, p)) {
    return Status::InvalidArgument(
        "Algorithm 1 requires a constant weight across the labels of r and "
        "p; use ApproxLeakage or NaiveLeakage for arbitrary weights");
  }
  if (UniformWeightIsZero(r, p)) return 0.0;
  return FinishUnitInterval(
      ExactSum(r, p, /*m=*/static_cast<double>(p.size()), /*factor=*/2.0, ws),
      "exact record leakage");
}

Result<double> ExactLeakage::ExpectedPrecisionColumnar(
    const ColumnRecordView& r, const PreparedReference& p,
    LeakageWorkspace* ws) const {
  if (!UniformWeightOver(r, p)) {
    return Status::InvalidArgument(
        "exact expected precision requires constant weights");
  }
  if (UniformWeightIsZero(r, p)) return 0.0;
  return FinishUnitInterval(ExactSum(r, p, /*m=*/0, /*factor=*/1.0, ws),
                            "exact expected precision");
}

// ---------------------------------------------------------------------------
// ApproxLeakage (§5.2)
// ---------------------------------------------------------------------------

Result<ApproxLeakage> ApproxLeakage::Create(int order) {
  if (order != 1 && order != 2) {
    return Status::InvalidArgument(
        "ApproxLeakage supports Taylor orders 1 and 2, got " +
        std::to_string(order));
  }
  return ApproxLeakage(order);
}

ApproxLeakage::ApproxLeakage(int order) : order_(order < 2 ? 1 : 2) {
  if (order != 1 && order != 2) {
    static obs::Counter& clamped = obs::MetricsRegistry::Global().GetCounter(
        "infoleak_approx_order_clamped_total", {},
        "ApproxLeakage constructions whose Taylor order was clamped to a "
        "supported one");
    clamped.Inc();
  }
}

namespace {

/// Shared core of the §5.2 Taylor approximation. Approximates
///   factor · Σ_{b∈p} p(b,r) · E[w_b / (Y + w_b + base)]
/// where Y = Σ_{a∈r̄\{b}} w_a and base = Σ_{a∈p} w_a for leakage
/// (factor 2) or 0 for precision (factor 1). Every input is already a
/// contiguous column; the kernel precomputes the record moments once and
/// derives each per-b value by removing the matched attribute's
/// contribution, giving O(|p| + |r|).
double ApproxSum(const ColumnRecordView& r, const PreparedReference& p,
                 double base, double factor, int order, LeakageWorkspace* ws) {
  FillMatchColumns(r, p.size(), ws);
  return ActiveKernels().approx_sum(r.conf, r.weight, r.size,
                                    ws->match_conf.data(),
                                    ws->match_rpos.data(),
                                    p.attr_weights().data(), p.size(), base,
                                    factor, order);
}

}  // namespace

Result<double> ApproxLeakage::RecordLeakageColumnar(
    const ColumnRecordView& r, const PreparedReference& p,
    LeakageWorkspace* ws) const {
  static obs::Counter& evals = EngineEvalCounter("approx");
  evals.Inc();
  return FinishUnitInterval(
      ApproxSum(r, p, /*base=*/p.total_weight(), /*factor=*/2.0, order_, ws),
      "approximate record leakage");
}

Result<double> ApproxLeakage::ExpectedPrecisionColumnar(
    const ColumnRecordView& r, const PreparedReference& p,
    LeakageWorkspace* ws) const {
  return FinishUnitInterval(
      ApproxSum(r, p, /*base=*/0.0, /*factor=*/1.0, order_, ws),
      "approximate expected precision");
}

// ---------------------------------------------------------------------------
// AutoLeakage
// ---------------------------------------------------------------------------

const LeakageEngine& AutoLeakage::Pick(const ColumnRecordView& r,
                                       const PreparedReference& p) const {
  static constexpr char kPickHelp[] =
      "Engine choices made by AutoLeakage's dispatch rule";
  if (UniformWeightOver(r, p)) {
    static obs::Counter& picked = obs::MetricsRegistry::Global().GetCounter(
        "infoleak_auto_engine_selected_total", {{"engine", "exact"}},
        kPickHelp);
    picked.Inc();
    return exact_;
  }
  if (r.size <= kAutoNaiveCutoff) {
    static obs::Counter& picked = obs::MetricsRegistry::Global().GetCounter(
        "infoleak_auto_engine_selected_total", {{"engine", "naive"}},
        kPickHelp);
    picked.Inc();
    return naive_;
  }
  static obs::Counter& picked = obs::MetricsRegistry::Global().GetCounter(
      "infoleak_auto_engine_selected_total", {{"engine", "approx"}},
      kPickHelp);
  picked.Inc();
  return approx_;
}

Result<double> AutoLeakage::RecordLeakageColumnar(
    const ColumnRecordView& r, const PreparedReference& p,
    LeakageWorkspace* ws) const {
  return Pick(r, p).RecordLeakageColumnar(r, p, ws);
}

Result<double> AutoLeakage::ExpectedPrecisionColumnar(
    const ColumnRecordView& r, const PreparedReference& p,
    LeakageWorkspace* ws) const {
  return Pick(r, p).ExpectedPrecisionColumnar(r, p, ws);
}

// ---------------------------------------------------------------------------
// Set leakage
// ---------------------------------------------------------------------------

Result<double> SetLeakageArgMax(const Database& db, const PreparedReference& p,
                                const LeakageEngine& engine,
                                std::ptrdiff_t* argmax,
                                const std::function<bool()>& cancel,
                                std::size_t check_every) {
  if (check_every == 0) check_every = 1;
  obs::TraceSpan span("leakage/set");
  WallTimer timer;
  double best = 0.0;
  std::ptrdiff_t best_index = -1;
  LeakageWorkspace ws;
  PreparedRecord holder;
  for (std::size_t i = 0; i < db.size(); ++i) {
    if (cancel && i % check_every == 0 && cancel()) {
      return Status::DeadlineExceeded(
          "set-leakage scan cancelled after " + std::to_string(i) + " of " +
          std::to_string(db.size()) + " records");
    }
    holder.Assign(db[i], p);
    Result<double> l = engine.RecordLeakageColumnar(holder.view(), p, &ws);
    if (!l.ok()) return l.status();
    if (best_index < 0 || *l > best) {
      best = *l;
      best_index = static_cast<std::ptrdiff_t>(i);
    }
  }
  ColumnarPathCounter().Inc(db.size());
  SetLeakageLatency().Observe(timer.ElapsedSeconds());
  if (argmax != nullptr) *argmax = best_index;
  return best_index < 0 ? 0.0 : best;
}

Result<double> SetLeakageArgMax(const Database& db, const Record& p,
                                const WeightModel& wm,
                                const LeakageEngine& engine,
                                std::ptrdiff_t* argmax) {
  const PreparedReference ref(p, wm);
  return SetLeakageArgMax(db, ref, engine, argmax);
}

Result<double> SetLeakage(const Database& db, const Record& p,
                          const WeightModel& wm,
                          const LeakageEngine& engine) {
  return SetLeakageArgMax(db, p, wm, engine, nullptr);
}

Result<double> SetLeakage(const Database& db, const PreparedReference& p,
                          const LeakageEngine& engine) {
  return SetLeakageArgMax(db, p, engine, nullptr);
}

// ---------------------------------------------------------------------------
// Batch leakage
// ---------------------------------------------------------------------------

Result<std::vector<double>> BatchLeakage(std::span<const Record* const> records,
                                         const PreparedReference& p,
                                         const LeakageEngine& engine) {
  obs::TraceSpan span("leakage/batch");
  std::vector<double> out;
  out.reserve(records.size());
  LeakageWorkspace ws;
  PreparedRecord holder;
  for (const Record* rec : records) {
    holder.Assign(*rec, p);
    Result<double> l = engine.RecordLeakageColumnar(holder.view(), p, &ws);
    if (!l.ok()) return l.status();
    out.push_back(*l);
  }
  ColumnarPathCounter().Inc(records.size());
  return out;
}

Result<std::vector<double>> BatchLeakage(std::span<const Record* const> records,
                                         const Record& p,
                                         const WeightModel& wm,
                                         const LeakageEngine& engine) {
  const PreparedReference ref(p, wm);
  return BatchLeakage(records, ref, engine);
}

// ---------------------------------------------------------------------------
// Columnar set leakage
// ---------------------------------------------------------------------------

namespace {

/// One worker's scan over the contiguous bank range [begin, end): local
/// first-strictly-greater argmax, optional cancellation polling, first
/// error wins. Shared by the serial (one range spanning the bank) and
/// sharded paths so both accumulate identically.
struct ColumnRangeResult {
  double best = 0.0;
  std::ptrdiff_t best_index = -1;
  Status status = Status::OK();
};

/// What sharded workers share to stop early. A cancel stops every shard.
/// An engine error in shard t stops only shards after t: the scan's answer
/// is then the first error in record order, which lies in shard t or in an
/// earlier shard that must still run to find it.
struct ShardStop {
  std::atomic<bool> cancelled{false};
  std::atomic<std::size_t> first_failed{
      std::numeric_limits<std::size_t>::max()};

  void Fail(std::size_t shard) {
    std::size_t seen = first_failed.load(std::memory_order_relaxed);
    while (shard < seen && !first_failed.compare_exchange_weak(
                               seen, shard, std::memory_order_relaxed)) {
    }
  }
};

ColumnRangeResult ScanColumnRange(const ColumnBank& bank,
                                  const LeakageEngine& engine,
                                  std::size_t begin, std::size_t end,
                                  const std::function<bool()>& cancel,
                                  std::size_t check_every, ShardStop* stop,
                                  std::size_t shard) {
  ColumnRangeResult out;
  const PreparedReference& p = bank.reference();
  LeakageWorkspace ws;
  ws.ReserveFor(bank.max_record_size(), p.size());
  for (std::size_t i = begin; i < end; ++i) {
    if ((i - begin) % check_every == 0) {
      if (stop != nullptr) {
        if (stop->cancelled.load(std::memory_order_relaxed)) {
          out.status = Status::DeadlineExceeded("set-leakage scan cancelled");
          return out;
        }
        if (stop->first_failed.load(std::memory_order_relaxed) < shard) {
          // Never reported: the reduction returns the earlier shard's error.
          out.status =
              Status::Internal("shard stopped: an earlier shard failed");
          return out;
        }
      }
      if (cancel && cancel()) {
        if (stop != nullptr) {
          stop->cancelled.store(true, std::memory_order_relaxed);
        }
        out.status = Status::DeadlineExceeded(
            "set-leakage scan cancelled after " + std::to_string(i - begin) +
            " of " + std::to_string(end - begin) + " records");
        return out;
      }
    }
    Result<double> l = engine.RecordLeakageColumnar(bank.view(i), p, &ws);
    if (!l.ok()) {
      if (stop != nullptr) stop->Fail(shard);
      out.status = l.status();
      return out;
    }
    if (out.best_index < 0 || *l > out.best) {
      out.best = *l;
      out.best_index = static_cast<std::ptrdiff_t>(i);
    }
  }
  return out;
}

}  // namespace

Result<double> SetLeakageColumnar(const ColumnBank& bank,
                                  const LeakageEngine& engine,
                                  std::ptrdiff_t* argmax,
                                  const ColumnScanOptions& options) {
  obs::TraceSpan span("leakage/set_columnar");
  // Request-scoped attribution covers every exit (success and
  // cancellation); records are charged up front as the count visible to
  // the scan.
  obs::PhaseTimer eval_phase(options.ctx, obs::Phase::kEval);
  if (options.ctx != nullptr) {
    options.ctx->AddRecordsScanned(bank.size());
    options.ctx->set_kernel_variant(kern::Active().name);
  }
  WallTimer timer;
  const std::size_t check_every =
      options.check_every == 0 ? 1 : options.check_every;
  std::size_t num_threads =
      options.num_threads == 0
          ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
          : options.num_threads;
  num_threads = std::min(num_threads, bank.size());

  ColumnRangeResult reduced;
  if (num_threads <= 1) {
    reduced = ScanColumnRange(bank, engine, 0, bank.size(), options.cancel,
                              check_every, nullptr, 0);
    if (!reduced.status.ok()) return reduced.status;
  } else {
    // Contiguous shards: each worker streams one slice of the columns front
    // to back, and reducing in worker order reproduces the serial scan's
    // first-strictly-greater argmax exactly.
    std::vector<ColumnRangeResult> results(num_threads);
    ShardStop stop;
    std::vector<std::thread> workers;
    workers.reserve(num_threads);
    const std::size_t chunk = (bank.size() + num_threads - 1) / num_threads;
    for (std::size_t t = 0; t < num_threads; ++t) {
      const std::size_t begin = t * chunk;
      const std::size_t end = std::min(bank.size(), begin + chunk);
      workers.emplace_back([&, t, begin, end] {
        results[t] = ScanColumnRange(bank, engine, begin, end, options.cancel,
                                     check_every, &stop, t);
      });
    }
    for (auto& w : workers) w.join();
    for (const ColumnRangeResult& r : results) {
      if (!r.status.ok()) return r.status;
      if (r.best_index < 0) continue;
      if (reduced.best_index < 0 || r.best > reduced.best) {
        reduced.best = r.best;
        reduced.best_index = r.best_index;
      }
    }
  }
  ColumnarPathCounter().Inc(bank.size());
  SetLeakageLatencyColumnar().Observe(timer.ElapsedSeconds());
  if (argmax != nullptr) *argmax = reduced.best_index;
  return reduced.best_index < 0 ? 0.0 : reduced.best;
}

Result<std::vector<double>> BatchLeakageColumnar(const ColumnBank& bank,
                                                 const LeakageEngine& engine) {
  obs::TraceSpan span("leakage/batch_columnar");
  const PreparedReference& p = bank.reference();
  std::vector<double> out;
  out.reserve(bank.size());
  LeakageWorkspace ws;
  ws.ReserveFor(bank.max_record_size(), p.size());
  for (std::size_t i = 0; i < bank.size(); ++i) {
    Result<double> l = engine.RecordLeakageColumnar(bank.view(i), p, &ws);
    if (!l.ok()) return l.status();
    out.push_back(*l);
  }
  ColumnarPathCounter().Inc(bank.size());
  return out;
}

Result<double> BankRecordLeakage(const ColumnBank& bank, std::size_t index,
                                 const LeakageEngine& engine,
                                 LeakageWorkspace* ws) {
  if (index >= bank.size()) {
    return Status::OutOfRange("bank record " + std::to_string(index) +
                              " out of range (bank holds " +
                              std::to_string(bank.size()) + ")");
  }
  const PreparedReference& p = bank.reference();
  LeakageWorkspace scratch;
  LeakageWorkspace* w = ws != nullptr ? ws : &scratch;
  w->ReserveFor(bank.max_record_size(), p.size());
  return ViewRecordLeakage(bank.view(index), p, engine, w);
}

Result<double> ViewRecordLeakage(const ColumnRecordView& v,
                                 const PreparedReference& p,
                                 const LeakageEngine& engine,
                                 LeakageWorkspace* ws) {
  Result<double> l = engine.RecordLeakageColumnar(v, p, ws);
  if (l.ok()) ColumnarPathCounter().Inc(1);
  return l;
}

Result<double> HolderRecordLeakage(const Record& r, const PreparedReference& p,
                                   const LeakageEngine& engine,
                                   PreparedRecord* holder,
                                   LeakageWorkspace* ws) {
  PreparedRecord scratch_holder;
  LeakageWorkspace scratch_ws;
  PreparedRecord* h = holder != nullptr ? holder : &scratch_holder;
  LeakageWorkspace* w = ws != nullptr ? ws : &scratch_ws;
  h->Assign(r, p);
  return ViewRecordLeakage(h->view(), p, engine, w);
}

std::unique_ptr<LeakageEngine> MakeDefaultEngine() {
  return std::make_unique<AutoLeakage>();
}

}  // namespace infoleak

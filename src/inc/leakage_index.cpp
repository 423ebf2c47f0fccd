#include "inc/leakage_index.h"

#include <algorithm>
#include <cmath>

#include "core/bounds.h"
#include "core/kernels.h"
#include "obs/metrics.h"
#include "obs/request.h"
#include "obs/trace.h"

namespace infoleak::inc {
namespace {

obs::Counter& SkipCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "infoleak_inc_bound_skips_total", {},
      "Delta evaluations skipped because the leakage upper bound proved the "
      "top-k unchanged");
  return c;
}

obs::Counter& RebuildChunksCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "infoleak_inc_rebuild_chunks_total", {},
      "Background catch-up chunks applied by the feed's maintenance thread");
  return c;
}

/// Engines whose only evaluation failure mode is non-finite arithmetic.
/// Their failures surface as non-finite bounds, so the skip's isfinite gate
/// forces the exact evaluation (which then errors and poisons the index).
/// Engines with structural errors the bounds cannot see — naive's 2^|r|
/// cap, exact's uniform-weight requirement — must always evaluate exactly,
/// or a skip could hide an error a cold scan would report.
bool SkipEligible(const LeakageEngine& engine) {
  const std::string_view name = engine.name();
  return name == "auto" || name.substr(0, 6) == "approx";
}

}  // namespace

LeakageIndex::LeakageIndex(Record reference, WeightModel weights,
                           const LeakageEngine* engine, ChangeFeed* feed,
                           IndexOptions options, Maintainer maintainer)
    : reference_(std::move(reference)),
      weights_(std::move(weights)),
      prepared_(reference_, weights_),
      engine_(engine),
      feed_(feed),
      options_([&options] {
        if (options.top_k == 0) options.top_k = 1;
        if (options.maintenance_chunk == 0) options.maintenance_chunk = 1;
        return options;
      }()),
      skip_eligible_(SkipEligible(*engine)),
      maintainer_(std::move(maintainer)),
      translation_(prepared_) {}

Status LeakageIndex::ApplyOneLocked(const InternedRows& rows,
                                    const Symbols& symbols) {
  const std::size_t i = covered();
  scratch_.clear();
  const RecordWeightSummary summary =
      translation_.AppendRow(rows, i, symbols, &scratch_);
  const ColumnRecordView view = scratch_.view(
      0, scratch_.conf.size(), summary.uniform, summary.common);
  bool skipped = false;
  double value = 0.0;
  if (skip_eligible_ && options_.bound_skip && top_.size() >= options_.top_k &&
      best_index_ >= 0) {
    const LeakageBounds b = BoundRecordLeakageView(view, prepared_, &ws_);
    // `upper <= kth` is safe under the scan's first-strictly-greater rule:
    // a value that cannot exceed the k-th (hence cannot exceed the max)
    // can never replace an earlier argmax, even on an exact tie.
    if (std::isfinite(b.lower) && std::isfinite(b.upper) &&
        b.upper <= top_.back().value) {
      skipped = true;
      value = b.upper;
      ++bound_skips_;
      SkipCounter().Inc();
    }
  }
  if (!skipped) {
    Result<double> l = ViewRecordLeakage(view, prepared_, *engine_, &ws_);
    if (!l.ok()) {
      // Poison: records apply in id order and none that could fail is
      // skipped, so this is the scan's first error; queries return it
      // unchanged until an epoch bump resets the index.
      leak_.push_back(0.0);
      exact_.push_back(0);
      poisoned_ = true;
      poison_ = l.status();
      return poison_;
    }
    value = *l;
    if (best_index_ < 0 || value > best_) {
      best_ = value;
      best_index_ = static_cast<std::ptrdiff_t>(i);
    }
    if (top_.size() < options_.top_k || value > top_.back().value) {
      // Insert before the first strictly-smaller entry: equal values keep
      // arrival (= id) order, matching the argmax tie rule.
      auto pos = std::find_if(
          top_.begin(), top_.end(),
          [value](const TopEntry& e) { return e.value < value; });
      top_.insert(pos, TopEntry{value, static_cast<std::ptrdiff_t>(i)});
      if (top_.size() > options_.top_k) top_.pop_back();
    }
  }
  leak_.push_back(value);
  exact_.push_back(skipped ? 0 : 1);
  ++applied_;
  DeltaEvent event;
  event.seq = next_event_seq_++;
  event.epoch = epoch_;
  event.record_id = static_cast<RecordId>(i);
  event.leakage = value;
  event.skipped = skipped;
  event.set_leakage = best_index_ < 0 ? 0.0 : best_;
  event.argmax = best_index_;
  events_.push_back(event);
  while (events_.size() > options_.event_capacity) {
    events_.pop_front();
    ++events_dropped_;
  }
  return Status::OK();
}

void LeakageIndex::ResetLocked(uint64_t epoch) {
  leak_.clear();
  exact_.clear();
  top_.clear();
  best_ = 0.0;
  best_index_ = -1;
  epoch_ = epoch;
  poisoned_ = false;
  poison_ = Status::OK();
  // The event ring survives: old-epoch events stay readable until evicted,
  // and the rebuild re-delivers the same ids under the new epoch (CDC
  // replay semantics after a source reset).
}

void LeakageIndex::OnAppend(const AppendDelta& delta) {
  std::lock_guard lock(mu_);
  if (poisoned_) return;
  // Only the contiguous next record applies directly; a gap means the index
  // is mid-rebuild (or was registered late) and catch-up covers it later.
  if (delta.id != covered()) return;
  (void)ApplyOneLocked(*delta.rows, *delta.symbols);
}

void LeakageIndex::OnEpochBump(uint64_t epoch, std::string_view /*reason*/) {
  std::lock_guard lock(mu_);
  ResetLocked(epoch);
}

bool LeakageIndex::BackgroundMaintain() {
  if (!maintainer_) return true;
  RebuildChunksCounter().Inc();
  return maintainer_(*this);
}

Result<IndexAnswer> LeakageIndex::QueryLocked(
    const InternedRows& rows, const Symbols& symbols,
    const std::function<bool()>& cancel, obs::RequestContext* ctx) {
  obs::TraceSpan span("inc/query");
  std::unique_lock lock(mu_);
  if (poisoned_) return poison_;
  if (covered() > rows.size()) {
    return Status::Internal(
        "leakage index covers " + std::to_string(covered()) +
        " records but the store has only " + std::to_string(rows.size()) +
        "; the index was built against a different store");
  }
  const std::size_t behind = rows.size() - covered();
  if (behind > options_.inline_catchup_max) {
    if (feed_ != nullptr) feed_->RequestMaintenance(weak_from_this());
    return Status::FailedPrecondition(
        "leakage index " + std::to_string(behind) +
        " records behind; background rebuild scheduled");
  }
  if (ctx != nullptr) ctx->set_kernel_variant(kern::Active().name);
  if (behind > 0) {
    // The delta is real evaluation work (each new record runs the columnar
    // kernel), so it is charged to the eval phase like a scan would be; a
    // steady-state hit charges nothing.
    obs::PhaseTimer eval_phase(ctx, obs::Phase::kEval);
    std::size_t evaluated = 0;
    while (covered() < rows.size()) {
      if (cancel && evaluated % 64 == 0 && cancel()) {
        return Status::DeadlineExceeded(
            "index catch-up cancelled after " + std::to_string(evaluated) +
            " of " + std::to_string(behind) + " records");
      }
      ++evaluated;
      INFOLEAK_RETURN_IF_ERROR(ApplyOneLocked(rows, symbols));
    }
  }
  if (ctx != nullptr) ctx->AddRecordsScanned(behind);
  IndexAnswer ans;
  ans.leakage = best_index_ < 0 ? 0.0 : best_;
  ans.argmax = best_index_;
  ans.records = covered();
  return ans;
}

bool LeakageIndex::MaintainChunkLocked(const InternedRows& rows,
                                       const Symbols& symbols) {
  std::lock_guard lock(mu_);
  if (poisoned_) return true;  // nothing more maintenance can do
  if (covered() >= rows.size()) return true;
  const std::size_t end =
      std::min(rows.size(), covered() + options_.maintenance_chunk);
  while (covered() < end) {
    if (!ApplyOneLocked(rows, symbols).ok()) return true;
  }
  return covered() >= rows.size();
}

LeakageIndex::EventBatch LeakageIndex::EventsAfter(
    uint64_t after_seq, std::size_t max_events) const {
  std::lock_guard lock(mu_);
  EventBatch batch;
  batch.epoch = epoch_;
  batch.covered = covered();
  batch.dropped = events_dropped_;
  for (const DeltaEvent& e : events_) {
    if (e.seq <= after_seq) continue;
    batch.events.push_back(e);
    if (batch.events.size() >= max_events) break;
  }
  return batch;
}

IndexStats LeakageIndex::Stats() const {
  std::lock_guard lock(mu_);
  IndexStats s;
  s.epoch = epoch_;
  s.covered = covered();
  s.poisoned = poisoned_;
  if (poisoned_) s.poison_detail = poison_.message();
  s.applied = applied_;
  s.bound_skips = bound_skips_;
  s.events_dropped = events_dropped_;
  s.best = best_index_ < 0 ? 0.0 : best_;
  s.best_index = best_index_;
  s.bytes = leak_.size() * sizeof(double) + exact_.size() * sizeof(uint8_t) +
            top_.capacity() * sizeof(TopEntry) +
            events_.size() * sizeof(DeltaEvent) + translation_.bytes() +
            scratch_.conf.capacity() * sizeof(double) +
            scratch_.weight.capacity() * sizeof(double) +
            scratch_.match_pos.capacity() * sizeof(uint32_t);
  return s;
}

}  // namespace infoleak::inc

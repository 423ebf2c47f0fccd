#include "inc/leakage_index.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

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
      // A record matching nothing in p evaluates to +0.0 under these
      // engines: their sums add matched terms only, and the only other
      // failure, non-finite arithmetic, needs a NaN confidence (rows the
      // catch-up visits anyway). Its bounds are (0, 0) too unless W(p) is
      // NaN, which finite non-negative weights rule out; a reference whose
      // weight model bypassed that check walks every id.
      posting_driven_(skip_eligible_ &&
                      !std::isnan(prepared_.total_weight())),
      maintainer_(std::move(maintainer)),
      translation_(prepared_) {}

Status LeakageIndex::ApplyOneLocked(const InternedRows& rows,
                                    const Symbols& symbols) {
  scratch_.clear();
  const RecordWeightSummary summary =
      translation_.AppendRow(rows, covered_, symbols, &scratch_);
  const ColumnRecordView view = scratch_.view(
      0, scratch_.conf.size(), summary.uniform, summary.common);
  // A NaN confidence can fail an evaluation while the bounds stay finite
  // (an unmatched attribute enters only moments the bounds never read), so
  // such a row is always evaluated.
  if (skip_eligible_ && options_.bound_skip && top_.size() >= options_.top_k &&
      best_index_ >= 0 &&
      !std::binary_search(rows.nan_rows.begin(), rows.nan_rows.end(),
                          static_cast<RecordId>(covered_))) {
    const LeakageBounds b = BoundRecordLeakageView(view, prepared_, &ws_);
    // `upper <= kth` is safe under the scan's first-strictly-greater rule:
    // a value that cannot exceed the k-th (hence cannot exceed the max)
    // can never replace an earlier argmax, even on an exact tie.
    if (std::isfinite(b.lower) && std::isfinite(b.upper) &&
        b.upper <= top_.back().value) {
      ++bound_skips_;
      SkipCounter().Inc();
      AccountLocked(b.upper, /*skipped=*/true);
      return Status::OK();
    }
  }
  Result<double> l = ViewRecordLeakage(view, prepared_, *engine_, &ws_);
  if (!l.ok()) {
    // Poison: records apply in id order and none that could fail is
    // skipped, so this is the scan's first error; queries return it
    // unchanged until an epoch bump resets the index.
    ++covered_;
    poisoned_ = true;
    poison_ = l.status();
    return poison_;
  }
  AccountLocked(*l, /*skipped=*/false);
  return Status::OK();
}

void LeakageIndex::ApplyZerosLocked(std::size_t n) {
  // Until the top-k fills, a zero enters it like any evaluated value (and
  // the first becomes the argmax of an empty view).
  for (; n > 0 && top_.size() < options_.top_k; --n) {
    AccountLocked(0.0, /*skipped=*/false);
  }
  if (n == 0) return;
  // Past that, every retained value is >= 0, so a zero changes neither the
  // top-k nor the argmax, and its bounds (0, 0) prove it: each is a bound
  // skip, or an exact zero when the skip is off. Only the run's last
  // event_capacity events would survive in the ring; the rest are counted
  // as sent and dropped.
  const bool skipped = options_.bound_skip;
  applied_ += n;
  if (skipped) {
    bound_skips_ += n;
    SkipCounter().Inc(n);
  }
  const std::size_t kept = std::min(n, options_.event_capacity);
  next_event_seq_ += n - kept;
  events_dropped_ += n - kept;
  covered_ += n - kept;
  for (std::size_t j = 0; j < kept; ++j) {
    PushEventLocked(static_cast<RecordId>(covered_++), 0.0, skipped);
  }
}

void LeakageIndex::AccountLocked(double value, bool skipped) {
  const auto i = static_cast<std::ptrdiff_t>(covered_++);
  if (!skipped) {
    if (best_index_ < 0 || value > best_) {
      best_ = value;
      best_index_ = i;
    }
    if (top_.size() < options_.top_k || value > top_.back().value) {
      // Insert before the first strictly-smaller entry: equal values keep
      // arrival (= id) order, matching the argmax tie rule.
      auto pos = std::find_if(
          top_.begin(), top_.end(),
          [value](const TopEntry& e) { return e.value < value; });
      top_.insert(pos, TopEntry{value, i});
      if (top_.size() > options_.top_k) top_.pop_back();
    }
  }
  ++applied_;
  PushEventLocked(static_cast<RecordId>(i), value, skipped);
}

void LeakageIndex::PushEventLocked(RecordId record_id, double value,
                                   bool skipped) {
  DeltaEvent event;
  event.seq = next_event_seq_++;
  event.epoch = epoch_;
  event.record_id = record_id;
  event.leakage = value;
  event.skipped = skipped;
  event.set_leakage = best_index_ < 0 ? 0.0 : best_;
  event.argmax = best_index_;
  const std::size_t capacity = options_.event_capacity;
  if (events_.size() < capacity) {
    events_.push_back(event);
    return;
  }
  ++events_dropped_;
  if (capacity == 0) return;
  events_[events_head_] = event;
  events_head_ = (events_head_ + 1) % capacity;
}

void LeakageIndex::ResetLocked(uint64_t epoch) {
  covered_ = 0;
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
  if (delta.id != covered_) return;
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

Status LeakageIndex::CatchUpLocked(const InternedRows& rows,
                                   const PairPostings& postings,
                                   std::size_t end,
                                   const std::function<bool()>& cancel) {
  const std::size_t start = covered_;
  std::size_t polls = 0;
  // The record-at-a-time step, polling `cancel` first.
  auto apply_next = [&]() -> Status {
    if (cancel && polls++ % 64 == 0 && cancel()) {
      return Status::DeadlineExceeded(
          "index catch-up cancelled after " +
          std::to_string(covered_ - start) + " of " +
          std::to_string(end - start) + " records");
    }
    return ApplyOneLocked(rows, postings.symbols());
  };
  if (!posting_driven_) {
    while (covered_ < end) INFOLEAK_RETURN_IF_ERROR(apply_next());
    return Status::OK();
  }

  // Rows p could match are exactly those on the posting lists of p's pairs
  // the store has interned (Sync picks up pairs interned since the last
  // catch-up), plus the NaN-confidence rows. One cursor per list.
  struct Cursor {
    const RecordId* next;  // first id of the list not yet merged
    const RecordId* last;
    RecordId head;         // *next, or kExhausted once next == last
  };
  constexpr RecordId kExhausted = std::numeric_limits<RecordId>::max();
  translation_.Sync(postings.symbols());
  std::vector<Cursor> cursors;
  cursors.reserve(translation_.resolved_pairs().size() + 1);
  auto open = [&](const std::vector<RecordId>& list) {
    const RecordId* last = list.data() + list.size();
    const RecordId* next =
        std::lower_bound(list.data(), last, static_cast<RecordId>(covered_));
    if (next != last) cursors.push_back(Cursor{next, last, *next});
  };
  for (const uint64_t pair : translation_.resolved_pairs()) {
    if (const std::vector<RecordId>* list = postings.FindPair(pair)) {
      open(*list);
    }
  }
  open(rows.nan_rows);

  for (;;) {
    // Everything before the smallest head matches nothing.
    std::size_t base = end;
    for (const Cursor& c : cursors) base = std::min<std::size_t>(base, c.head);
    ApplyZerosLocked(base - covered_);
    if (base == end) return Status::OK();
    // Merge the next 64 ids of every list into one bit mask, then apply its
    // records in id order and account the zeros between them. A window
    // costs one step per posting in it, so a dense store (every record on
    // several lists) pays a few cycles per record for the merge.
    const std::size_t limit = std::min(end, base + 64);
    uint64_t window = 0;
    for (Cursor& c : cursors) {
      for (; c.head < limit;
           c.head = ++c.next != c.last ? *c.next : kExhausted) {
        window |= uint64_t{1} << (c.head - base);
      }
    }
    for (; window != 0; window &= window - 1) {
      ApplyZerosLocked(base + std::countr_zero(window) - covered_);
      INFOLEAK_RETURN_IF_ERROR(apply_next());
    }
  }
}

Result<IndexAnswer> LeakageIndex::QueryLocked(
    const InternedRows& rows, const PairPostings& postings,
    const std::function<bool()>& cancel, obs::RequestContext* ctx) {
  obs::TraceSpan span("inc/query");
  std::unique_lock lock(mu_);
  if (poisoned_) return poison_;
  if (covered_ > rows.size()) {
    return Status::Internal(
        "leakage index covers " + std::to_string(covered_) +
        " records but the store has only " + std::to_string(rows.size()) +
        "; the index was built against a different store");
  }
  const std::size_t behind = rows.size() - covered_;
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
    INFOLEAK_RETURN_IF_ERROR(
        CatchUpLocked(rows, postings, rows.size(), cancel));
  }
  if (ctx != nullptr) ctx->AddRecordsScanned(behind);
  IndexAnswer ans;
  ans.leakage = best_index_ < 0 ? 0.0 : best_;
  ans.argmax = best_index_;
  ans.records = covered_;
  return ans;
}

bool LeakageIndex::MaintainChunkLocked(const InternedRows& rows,
                                       const PairPostings& postings) {
  std::lock_guard lock(mu_);
  if (poisoned_) return true;  // nothing more maintenance can do
  if (covered_ >= rows.size()) return true;
  const std::size_t end =
      std::min(rows.size(), covered_ + options_.maintenance_chunk);
  if (!CatchUpLocked(rows, postings, end, {}).ok()) return true;
  return covered_ >= rows.size();
}

LeakageIndex::EventBatch LeakageIndex::EventsAfter(
    uint64_t after_seq, std::size_t max_events) const {
  std::lock_guard lock(mu_);
  EventBatch batch;
  batch.epoch = epoch_;
  batch.covered = covered_;
  batch.dropped = events_dropped_;
  for (std::size_t k = 0; k < events_.size(); ++k) {
    const DeltaEvent& e = events_[(events_head_ + k) % events_.size()];
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
  s.covered = covered_;
  s.poisoned = poisoned_;
  if (poisoned_) s.poison_detail = poison_.message();
  s.applied = applied_;
  s.bound_skips = bound_skips_;
  s.events_dropped = events_dropped_;
  s.best = best_index_ < 0 ? 0.0 : best_;
  s.best_index = best_index_;
  s.bytes = top_.capacity() * sizeof(TopEntry) +
            events_.capacity() * sizeof(DeltaEvent) + translation_.bytes() +
            scratch_.conf.capacity() * sizeof(double) +
            scratch_.weight.capacity() * sizeof(double) +
            scratch_.match_pos.capacity() * sizeof(uint32_t);
  return s;
}

}  // namespace infoleak::inc

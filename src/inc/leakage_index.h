#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/leakage.h"
#include "core/prepared.h"
#include "inc/change_feed.h"
#include "util/result.h"

namespace infoleak::obs {
class RequestContext;
}

namespace infoleak::inc {

struct IndexOptions {
  /// Retained top-k structure (k largest per-record leakages with their
  /// ids). k >= 1; the k-th value is the bound-skip threshold.
  std::size_t top_k = 8;
  /// Largest store-vs-index gap a query will close inline (charged to the
  /// eval phase). Unbounded by default: a cold or far-behind index catches
  /// up on the query that needs it. A finite cap makes a query beyond it
  /// fail with FailedPrecondition and schedule a background rebuild.
  std::size_t inline_catchup_max = std::numeric_limits<std::size_t>::max();
  /// Records applied per background-maintenance chunk. The store's writer
  /// gate is held per chunk, so this bounds append stalls during rebuild.
  std::size_t maintenance_chunk = 2048;
  /// Delta events retained for `subscribe` consumers.
  std::size_t event_capacity = 1024;
  /// Enables the bounds-based skip (see ApplyOneLocked).
  bool bound_skip = true;
};

/// What an index-backed set-leak query returns: bit-identical to a cold
/// columnar scan of the same store snapshot.
struct IndexAnswer {
  double leakage = 0.0;
  std::ptrdiff_t argmax = -1;
  std::size_t records = 0;  ///< store records covered by the answer
};

/// One maintained append, as streamed to `subscribe` consumers. `seq` is a
/// per-index monotonic cursor that survives epoch bumps (after a rebuild
/// the same record ids are re-delivered under the new epoch with fresh
/// sequence numbers — honest CDC replay semantics).
struct DeltaEvent {
  uint64_t seq = 0;
  uint64_t epoch = 0;
  RecordId record_id = 0;
  double leakage = 0.0;       ///< exact value, or the proven upper bound
  bool skipped = false;       ///< true when `leakage` is a bound, not exact
  double set_leakage = 0.0;   ///< running L0 after this record
  std::ptrdiff_t argmax = -1; ///< running argmax after this record
};

/// Point-in-time observability snapshot of one index.
struct IndexStats {
  uint64_t epoch = 0;
  std::size_t covered = 0;
  bool poisoned = false;
  std::string poison_detail;
  uint64_t applied = 0;
  uint64_t bound_skips = 0;
  uint64_t events_dropped = 0;
  double best = 0.0;
  std::ptrdiff_t best_index = -1;
  /// Bytes the index retains, by capacity: the top-k, the event ring, the
  /// translation tables and the one-record scratch row. Independent of how
  /// many records the index covers once the ring is full.
  std::size_t bytes = 0;
};

/// \brief A materialized leakage view of the store against one prepared
/// reference: the per-record leakage column, the running set-leakage
/// maximum with its argmax, and a sorted top-k of the largest per-record
/// leakages. Maintained incrementally from the change feed — each append
/// resolves the store's interned row for that record through the index's
/// `RowTranslation` into a reusable one-record scratch row and evaluates
/// just that record through the engine's columnar kernel — so an
/// index-backed set-leak answers from the maintained maximum plus a
/// catch-up delta, instead of rescanning |R| records. It is the service's
/// only set-leak path: a cold index catches up over the whole store on its
/// first query. The index keeps no columns of the store and nothing per
/// record: per reference it holds the translation (store label id →
/// weight, store (label, value) pair → position in p), the top-k and the
/// event ring, so the store's rows are shared by every reference.
///
/// Catch-up is posting-driven for the skip-eligible engines (below): a
/// record that shares no (label, value) pair with p has overlap 0 in every
/// world, so its leakage is exactly +0.0 with bounds (0, 0). Catch-up
/// therefore evaluates only the records on p's posting lists in the store
/// and accounts each run of other records in O(1) — with the answer,
/// argmax, top-k, events and counters the record-at-a-time walk would
/// produce. Engines with structural errors walk every id.
///
/// Bit-identity contract: every answer — value, argmax or error — equals
/// what a cold `SetLeakageColumnar` over the same records returns, bit for
/// bit. The maintainer reproduces the scan's first-strictly-greater argmax
/// rule, and the bounds-based skip only ever suppresses evaluations that
/// provably cannot enter the top-k (upper bound ≤ current k-th value — and
/// since the k-th value never exceeds the maximum, cannot change the
/// answer). The skip is restricted to engines whose only failure mode is
/// non-finite arithmetic (auto, approx) — such failures surface as
/// non-finite bounds and force the exact evaluation, and a row with a NaN
/// confidence, whose bounds can stay finite, is never skipped — never to
/// engines with structural errors invisible to the bounds (naive's
/// record-size cap, exact's uniform-weight requirement). So records are
/// evaluated in id order and none that could fail is skipped: the first
/// evaluation error is the scan's first error. It poisons the index until the next epoch
/// bump, and every query returns that status unchanged, whatever has been
/// appended since.
///
/// The index owns private copies of the reference, weight model, and
/// prepared form, so its lifetime is independent of the svc cache entry
/// that created it. The engine and change feed are borrowed and must
/// outlive the index's last callback (the service guarantees this by
/// shutting the feed down before the engines die).
///
/// Thread safety: all public methods are safe under concurrent use; one
/// internal mutex serializes maintenance and queries. Epoch invalidation
/// (`OnEpochBump`) clears the materialized state without blocking readers
/// beyond that mutex hold, and the rebuild happens in background chunks on
/// the feed's maintenance thread.
class LeakageIndex final : public DeltaSink,
                           public std::enable_shared_from_this<LeakageIndex> {
 public:
  /// Background-maintenance hook: performs one bounded catch-up chunk under
  /// the store's reader lock and returns true when fully caught up. The
  /// serving layer installs `store.MaintainIndex(...)` here; the indirection
  /// keeps this library free of a dependency on the store layer.
  using Maintainer = std::function<bool(LeakageIndex&)>;

  LeakageIndex(Record reference, WeightModel weights,
               const LeakageEngine* engine, ChangeFeed* feed,
               IndexOptions options = {}, Maintainer maintainer = {});

  LeakageIndex(const LeakageIndex&) = delete;
  LeakageIndex& operator=(const LeakageIndex&) = delete;

  const PreparedReference& prepared() const { return prepared_; }
  const LeakageEngine& engine() const { return *engine_; }

  // ----- DeltaSink (called by the change feed) -----------------------------
  void OnAppend(const AppendDelta& delta) override;
  void OnEpochBump(uint64_t epoch, std::string_view reason) override;
  bool BackgroundMaintain() override;

  // ----- Store-called entry points (store reader lock held) ----------------

  // `rows` are the store's interned rows and `postings` its posting lists
  // over the symbol tables those rows' ids index (RecordStore::rows() and
  // index()); neither may change during the call.

  /// Answers set-leak from the materialized view, closing any gap inline
  /// first (charged to the eval phase of `ctx` — the delta is real kernel
  /// work). Failure modes, each what a cold `SetLeakageColumnar` over the
  /// same records would return: the poison status, unchanged, once an
  /// evaluation has failed; DeadlineExceeded when `cancel` fires
  /// mid-catch-up. Only a finite `inline_catchup_max` adds one more:
  /// FailedPrecondition when the gap exceeds it (a background rebuild is
  /// then scheduled).
  Result<IndexAnswer> QueryLocked(const InternedRows& rows,
                                  const PairPostings& postings,
                                  const std::function<bool()>& cancel = {},
                                  obs::RequestContext* ctx = nullptr);

  /// One background catch-up chunk (at most `options.maintenance_chunk`
  /// records). Returns true when the index covers all of `rows` (or is
  /// poisoned — there is nothing more maintenance can do).
  bool MaintainChunkLocked(const InternedRows& rows,
                           const PairPostings& postings);

  // ----- Subscribe support -------------------------------------------------

  struct EventBatch {
    std::vector<DeltaEvent> events;
    uint64_t epoch = 0;
    std::size_t covered = 0;
    uint64_t dropped = 0;  ///< events evicted from the ring, ever
  };

  /// Events with seq > `after_seq`, oldest first, at most `max_events`.
  EventBatch EventsAfter(uint64_t after_seq, std::size_t max_events) const;

  IndexStats Stats() const;

 private:
  /// Extends the view over rows [covered, end): the one catch-up loop
  /// behind QueryLocked and MaintainChunkLocked. Posting-driven indexes
  /// merge p's posting lists (and the rows with a NaN confidence) 64 ids
  /// at a time, with one cursor per list, apply every record they name
  /// through ApplyOneLocked and every run between them through
  /// ApplyZerosLocked; the others apply every id. Polls `cancel` before every 64th applied record. Returns the
  /// poison status, or DeadlineExceeded when cancelled.
  Status CatchUpLocked(const InternedRows& rows, const PairPostings& postings,
                       std::size_t end, const std::function<bool()>& cancel);

  /// Extends the materialized view by the next uncovered row of `rows`:
  /// resolves it into the scratch row, either proves it cannot enter the
  /// top-k (bounds skip) or evaluates it exactly, and accounts it. Must
  /// mirror ScanColumnRange's accumulation exactly. On evaluation error:
  /// poisons the index and returns the error.
  Status ApplyOneLocked(const InternedRows& rows, const Symbols& symbols);

  /// Accounts the next `n` rows as records that match nothing in p, each
  /// an exact +0.0 — in O(top_k + event_capacity), whatever `n` is.
  void ApplyZerosLocked(std::size_t n);

  /// Accounts the next row as applied with `value` (an upper bound when
  /// `skipped`): repairs the running max / argmax / top-k and records the
  /// delta event.
  void AccountLocked(double value, bool skipped);
  void PushEventLocked(RecordId record_id, double value, bool skipped);
  void ResetLocked(uint64_t epoch);

  struct TopEntry {
    double value = 0.0;
    std::ptrdiff_t index = -1;
  };

  const Record reference_;
  const WeightModel weights_;
  const PreparedReference prepared_;
  const LeakageEngine* const engine_;  // borrowed
  ChangeFeed* const feed_;             // borrowed; may be null in tests
  const IndexOptions options_;
  const bool skip_eligible_;
  const bool posting_driven_;
  const Maintainer maintainer_;

  mutable std::mutex mu_;
  RowTranslation translation_;  // store ids -> p; borrows prepared_
  RecordColumns scratch_;       // the row being applied, resolved
  std::size_t covered_ = 0;     // rows applied since the last reset
  std::vector<TopEntry> top_;   // sorted by (value desc, index asc)
  double best_ = 0.0;
  std::ptrdiff_t best_index_ = -1;
  uint64_t epoch_ = 0;
  bool poisoned_ = false;
  Status poison_ = Status::OK();
  // Ring of the last event_capacity events; once full, events_[events_head_]
  // is the oldest.
  std::vector<DeltaEvent> events_;
  std::size_t events_head_ = 0;
  uint64_t next_event_seq_ = 1;
  uint64_t events_dropped_ = 0;
  uint64_t applied_ = 0;
  uint64_t bound_skips_ = 0;
  LeakageWorkspace ws_;
};

}  // namespace infoleak::inc

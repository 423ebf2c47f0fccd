#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "core/prepared.h"
#include "core/record.h"

namespace infoleak::obs {
class RequestContext;
}

namespace infoleak::inc {

/// \brief One append, as published to the feed: the id the store assigned,
/// the store's interned rows (row `id` is the new record) and the symbol
/// tables their ids index. Both are borrowed for the duration of the
/// publish call only.
struct AppendDelta {
  RecordId id = 0;
  const InternedRows* rows = nullptr;
  const Symbols* symbols = nullptr;
};

/// \brief A consumer of store change events — in practice a `LeakageIndex`.
/// Both callbacks run synchronously inside the publisher:
///
///   - `OnAppend` runs under the store's writer lock, so deltas arrive in
///     exactly the order ids were assigned, with no gaps and no reordering.
///     Implementations must be fast (one record's worth of work) and must
///     not call back into the store.
///   - `OnEpochBump` runs on WAL rotation (`Compact`): the log this feed
///     mirrors was reset, so any state derived from the old sequence must
///     be fenced off and rebuilt.
///   - `BackgroundMaintain` runs on the feed's maintenance thread with no
///     feed locks held; it should perform one bounded chunk of catch-up
///     work and return whether more remains.
class DeltaSink {
 public:
  virtual ~DeltaSink() = default;
  virtual void OnAppend(const AppendDelta& delta) = 0;
  virtual void OnEpochBump(uint64_t epoch, std::string_view reason) = 0;
  /// Returns true when fully caught up (no more chunks needed).
  virtual bool BackgroundMaintain() = 0;
};

/// \brief The change-data-capture spine of the incremental plane: a fan-out
/// point fed by the same append path that writes the WAL, so subscribing to
/// the feed is logically subscribing to the log. `RecordStore::Append`
/// publishes every insert; `DurableStore::Compact` publishes an epoch bump
/// when it resets the WAL (the CDC source restarted, derived state must
/// re-fence). Registered sinks are held weakly — an index dropped by its
/// owner simply stops receiving deltas; expired registrations are pruned
/// on the next publish or registration, so the registry stays bounded by
/// the live sinks even when nothing is appended.
///
/// The feed also owns the maintenance thread that performs background
/// rebuilds: sinks enqueue themselves (`RequestMaintenance`) and the thread
/// drives `BackgroundMaintain` in bounded chunks, so invalidation never
/// blocks readers or the append path.
///
/// Lock order (deadlock discipline, established store → sinks → sink
/// internals): `PublishAppend` is called with the store's writer lock held
/// and takes `sinks_mu_` then each sink's internal lock. The maintenance
/// thread pops work under `queue_mu_`, then *releases it* before touching
/// the sink (which will itself take the store's reader lock) — the queue
/// mutex is never held across sink work.
class ChangeFeed {
 public:
  ChangeFeed();
  ~ChangeFeed();

  ChangeFeed(const ChangeFeed&) = delete;
  ChangeFeed& operator=(const ChangeFeed&) = delete;

  /// Registers a sink (weak), pruning expired registrations. The sink
  /// starts receiving deltas immediately.
  void Register(const std::shared_ptr<DeltaSink>& sink);

  /// Fans one append out to every live sink, prunes expired ones, and wakes
  /// subscribers. Called by the store while holding its writer lock, so the
  /// per-sink `OnAppend` ordering matches id order exactly.
  void PublishAppend(const AppendDelta& delta);

  /// Fences every sink: bumps the epoch, invokes `OnEpochBump`, schedules
  /// each live sink for background rebuild, and wakes subscribers. Returns
  /// the new epoch. Called on WAL reset (compaction).
  uint64_t PublishEpochBump(std::string_view reason);

  /// Enqueues a sink for the maintenance thread. Duplicate enqueues are
  /// fine — a caught-up sink's chunk is a cheap no-op.
  void RequestMaintenance(std::weak_ptr<DeltaSink> sink);

  /// Monotonic count of appends published; subscribers long-poll on it.
  uint64_t sequence() const {
    return sequence_.load(std::memory_order_acquire);
  }
  /// Current fence epoch (starts at 0, bumps on every WAL reset).
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Blocks until `sequence()` advances past `seq`, the epoch changes, the
  /// timeout elapses, `cancel` returns true, or the feed shuts down —
  /// whichever comes first. Returns the sequence at wake-up. `cancel` is
  /// polled roughly every 50 ms.
  uint64_t WaitForSequence(uint64_t seq, int timeout_ms,
                           const std::function<bool()>& cancel = {}) const;

  /// Live registered sinks (expired registrations excluded).
  std::size_t registered() const;

  /// Stops the maintenance thread and detaches every sink. Idempotent;
  /// call before destroying anything the sinks borrow (store, engines).
  void Shutdown();

 private:
  void MaintenanceLoop();

  mutable std::mutex sinks_mu_;
  std::vector<std::weak_ptr<DeltaSink>> sinks_;

  std::atomic<uint64_t> sequence_{0};
  std::atomic<uint64_t> epoch_{0};

  mutable std::mutex wait_mu_;
  mutable std::condition_variable wait_cv_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::weak_ptr<DeltaSink>> queue_;
  bool stop_ = false;
  std::thread maintenance_;
};

}  // namespace infoleak::inc

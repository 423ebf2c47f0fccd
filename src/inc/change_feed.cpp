#include "inc/change_feed.h"

#include <algorithm>
#include <chrono>

#include "obs/metrics.h"

namespace infoleak::inc {
namespace {

obs::Counter& AppendsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "infoleak_inc_appends_total", {},
      "Append deltas published through the change feed");
  return c;
}

obs::Counter& InvalidationsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "infoleak_inc_invalidations_total", {},
      "Epoch bumps published through the change feed (WAL resets)");
  return c;
}

}  // namespace

ChangeFeed::ChangeFeed() {
  maintenance_ = std::thread([this] { MaintenanceLoop(); });
}

ChangeFeed::~ChangeFeed() { Shutdown(); }

void ChangeFeed::Shutdown() {
  {
    std::lock_guard lock(queue_mu_);
    if (stop_) return;
    stop_ = true;
  }
  queue_cv_.notify_all();
  if (maintenance_.joinable()) maintenance_.join();
  {
    std::lock_guard lock(sinks_mu_);
    sinks_.clear();
  }
  wait_cv_.notify_all();
}

void ChangeFeed::Register(const std::shared_ptr<DeltaSink>& sink) {
  std::lock_guard lock(sinks_mu_);
  // Prune here as well as on publish: a weak_ptr keeps its sink's control
  // block (and, with make_shared, the sink's storage) allocated, so on a
  // store that sees no appends every evicted index would otherwise stay
  // resident behind its registration.
  std::erase_if(sinks_, [](const std::weak_ptr<DeltaSink>& weak) {
    return weak.expired();
  });
  sinks_.push_back(sink);
}

void ChangeFeed::PublishAppend(const AppendDelta& delta) {
  AppendsCounter().Inc();
  {
    std::lock_guard lock(sinks_mu_);
    std::size_t live = 0;
    for (std::size_t i = 0; i < sinks_.size(); ++i) {
      if (auto sink = sinks_[i].lock()) {
        sink->OnAppend(delta);
        // Guard the self-move: `w = std::move(w)` empties a weak_ptr.
        if (live != i) sinks_[live] = std::move(sinks_[i]);
        ++live;
      }
    }
    sinks_.resize(live);
  }
  sequence_.fetch_add(1, std::memory_order_acq_rel);
  // The lock pairs the store with cv waiters: a subscriber that checked the
  // sequence before this publish is guaranteed to see the notify.
  { std::lock_guard lock(wait_mu_); }
  wait_cv_.notify_all();
}

uint64_t ChangeFeed::PublishEpochBump(std::string_view reason) {
  InvalidationsCounter().Inc();
  const uint64_t epoch = epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  {
    std::lock_guard lock(sinks_mu_);
    std::size_t live = 0;
    for (std::size_t i = 0; i < sinks_.size(); ++i) {
      if (auto sink = sinks_[i].lock()) {
        sink->OnEpochBump(epoch, reason);
        RequestMaintenance(sinks_[i]);
        if (live != i) sinks_[live] = std::move(sinks_[i]);
        ++live;
      }
    }
    sinks_.resize(live);
  }
  { std::lock_guard lock(wait_mu_); }
  wait_cv_.notify_all();
  return epoch;
}

void ChangeFeed::RequestMaintenance(std::weak_ptr<DeltaSink> sink) {
  {
    std::lock_guard lock(queue_mu_);
    if (stop_) return;
    queue_.push_back(std::move(sink));
  }
  queue_cv_.notify_one();
}

uint64_t ChangeFeed::WaitForSequence(
    uint64_t seq, int timeout_ms, const std::function<bool()>& cancel) const {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(std::max(0, timeout_ms));
  std::unique_lock lock(wait_mu_);
  for (;;) {
    const uint64_t now_seq = sequence();
    if (now_seq > seq) return now_seq;
    if (cancel && cancel()) return now_seq;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return now_seq;
    // Wake in slices so a cancel (server deadline) is honored promptly even
    // when no append ever arrives.
    const auto slice = std::min(deadline - now,
                                std::chrono::steady_clock::duration(
                                    std::chrono::milliseconds(50)));
    wait_cv_.wait_for(lock, slice);
  }
}

std::size_t ChangeFeed::registered() const {
  std::lock_guard lock(sinks_mu_);
  std::size_t live = 0;
  for (const auto& weak : sinks_) {
    if (!weak.expired()) ++live;
  }
  return live;
}

void ChangeFeed::MaintenanceLoop() {
  for (;;) {
    std::weak_ptr<DeltaSink> work;
    {
      std::unique_lock lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_) return;
      work = std::move(queue_.front());
      queue_.pop_front();
    }
    // The queue mutex is released before the sink runs: the sink's chunk
    // takes the store's reader lock, which must never nest inside feed
    // locks (the append path holds the store lock while publishing).
    auto sink = work.lock();
    if (sink == nullptr) continue;
    const bool done = sink->BackgroundMaintain();
    if (!done) RequestMaintenance(std::move(work));
  }
}

}  // namespace infoleak::inc

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "stats.h"

namespace perfbench {

/// One timed call at a layer boundary. Spans of one replayed request share
/// `request`; `parent` is the span whose layer made (or, in the layered
/// replay, logically contains) this call; 0 for a root.
struct Span {
  std::string_view name;  ///< static-lifetime layer name
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  int64_t start_ns = 0;   ///< from the log's origin
  int64_t end_ns = 0;

  double micros() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

/// In-memory span store, written out once when the benchmark ends. Not
/// thread-safe: use one per thread and merge.
class SpanLog {
 public:
  /// Span times count from `origin`; ids continue from `first_id`, so logs
  /// of several threads can be merged without id clashes.
  explicit SpanLog(Clock::time_point origin, uint64_t first_id = 0)
      : origin_(origin), next_id_(first_id) {}

  /// Runs `fn` and records it as a span; returns the span id.
  template <class Fn>
  uint64_t Time(std::string_view name, uint64_t parent, uint64_t request,
                Fn&& fn) {
    const Clock::time_point start = Clock::now();
    fn();
    const Clock::time_point end = Clock::now();
    return Add(name, parent, request, start, end);
  }

  uint64_t Add(std::string_view name, uint64_t parent, uint64_t request,
               Clock::time_point start, Clock::time_point end) {
    Span s;
    s.name = name;
    s.id = ++next_id_;
    s.parent = parent;
    s.request = request;
    s.start_ns = Nanos(start);
    s.end_ns = Nanos(end);
    spans_.push_back(s);
    return s.id;
  }

  const std::vector<Span>& spans() const { return spans_; }


 private:
  int64_t Nanos(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  Clock::time_point origin_;
  uint64_t next_id_ = 0;
  std::vector<Span> spans_;
};

/// JSON lines, one span each: {"workload":..,"name":..,"id":..,"parent":..,
/// "request":..,"start_ns":..,"end_ns":..}
std::string SpansJsonl(std::string_view workload,
                       const std::vector<Span>& spans);

}  // namespace perfbench

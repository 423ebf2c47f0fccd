#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "persist/durable_store.h"
#include "spans.h"
#include "svc/loopback.h"
#include "workload.h"

namespace perfbench {

/// WAL fsync policy of the ingest-mix store. Every append is still written
/// to the log before it is acknowledged; fsync is left to the OS because on
/// a shared disk a background fsync (interval mode) stalled whole runs: two
/// of ten 20 s runs lost half their read throughput. The fsync cost is
/// measured on its own in the layered replay (persist.wal.sync_ms).
constexpr infoleak::persist::FsyncMode kServedFsync =
    infoleak::persist::FsyncMode::kNever;

/// Load shape shared by every workload: `connections` client threads in
/// this process, a server with `workers` workers.
struct LoadShape {
  std::size_t connections = 4;
  std::size_t workers = 4;
};

/// A running system under test: the generated inputs, the store (durable
/// for ingest-mix, in a directory of its own), and a loopback server over
/// a LeakageService, warmed up and ready to measure.
class Fixture {
 public:
  ~Fixture();

  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;

  /// Generates, loads, starts and warms up one workload. `data_dir` is used
  /// (created, then removed by the destructor) only by ingest-mix.
  static infoleak::Result<std::unique_ptr<Fixture>> SetUp(
      Kind kind, uint64_t seed, const LoadShape& shape,
      const std::string& data_dir);

  const Inputs& inputs() const { return in_; }
  const LoadShape& shape() const { return shape_; }
  infoleak::svc::LoopbackServer& server() { return *server_; }
  infoleak::svc::LeakageService& service() { return server_->service(); }
  infoleak::RecordStore& store() { return service().store(); }

  /// The wire line for `op`, from a table rendered at set-up for set-leak
  /// (the client side then costs a lookup, not a JSON quote).
  const std::string& Line(const Op& op, std::string* buffer) const;

 private:
  Fixture() = default;
  infoleak::Status WarmUp();

  Inputs in_;
  LoadShape shape_;
  std::string data_dir_;
  std::unique_ptr<infoleak::persist::DurableStore> durable_;
  std::unique_ptr<infoleak::svc::LoopbackServer> server_;  // after durable_
  std::vector<std::string> set_leak_line_;           // per ref
  std::vector<std::string> weighted_set_leak_line_;  // per ref (cold-refs)
};

/// A response kept for checking after the window.
struct SampledResponse {
  Op op;
  std::string response;
};

struct VerbCounts {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  std::vector<double> latency_ms;
  std::vector<double> done_s;  ///< completion of each sample, from start
};

/// One measured window of served traffic.
struct WindowResult {
  Clock::time_point start;        ///< when the window opened
  double planned_seconds = 0.0;  ///< the window as scheduled
  double seconds = 0.0;          ///< to the last completion
  uint64_t completed = 0;
  double throughput_rps = 0.0;
  std::array<VerbCounts, kNumVerbs> verbs;
  std::vector<SampledResponse> samples;
  /// ingest-mix: ids the server acknowledged, with the record text sent.
  std::vector<std::pair<uint64_t, std::string>> acked;
  std::vector<OpenLoopSample> open_loop;
  std::size_t appends_due = 0;
  /// CPU time over the window: the whole process, and the benchmark's own
  /// client threads; the difference is what serving the traffic cost.
  double process_cpu_s = 0.0;
  double client_cpu_s = 0.0;
  /// Traced windows only: client spans, server queue waits from `tail`
  /// events, and index catch-up (growth of `records` between a reader's
  /// consecutive set-leak answers).
  std::vector<Span> spans;
  std::vector<double> queue_us;
  std::vector<double> catchup_records;
};

/// Drives `seconds` of the workload's traffic: closed-loop readers on
/// every connection but one appender connection in ingest-mix, which sends
/// on an open-loop schedule. `window` selects disjoint request streams, so
/// two windows in one run never send the same appended records.
WindowResult RunWindow(Fixture& fx, double seconds, bool traced, int window);

/// `stats` counters the report records beside the timings.
struct ServiceStats {
  double records = 0, cached_references = 0, wal_offset = 0;
  double index_hits = 0, index_fallbacks = 0, index_bound_skips = 0;
  double index_registered = 0, index_appends = 0;
  std::string simd;
  std::string fsync;
};

infoleak::Result<ServiceStats> FetchStats(Fixture& fx);

/// Outcome of the correctness checks.
struct CheckResult {
  uint64_t checked = 0;
  uint64_t mismatches = 0;
  std::vector<std::string> problems;  ///< first few, for the report
};

/// Checks the window's sampled answers, the final quiescent answers and
/// (ingest-mix) every acknowledged append against the in-process library.
CheckResult CheckWindow(Fixture& fx, const WindowResult& window);

}  // namespace perfbench

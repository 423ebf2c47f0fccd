#pragma once

#include <string>
#include <vector>

#include "report.h"
#include "served.h"
#include "spans.h"

namespace perfbench {

/// What the traced run hands the layered replay.
struct ReplayInput {
  ServiceStats stats_before;  ///< `stats` just before the traced window
  ServiceStats stats_after;   ///< and just after it
  const WindowResult* traced = nullptr;
  /// Traced minus untraced set-leak p50, the tracing overhead (µs).
  double tracing_overhead_us = 0.0;
  std::string work_dir;  ///< working directory of the replay's durable store
};

struct ReplayResult {
  std::vector<Metric> metrics;  ///< every per-layer metric, by name
  uint64_t checked = 0;         ///< replay answers compared with the library
  uint64_t mismatches = 0;
};

/// The layered replay: a seeded sample of the workload's requests goes
/// through each layer's public entry point in turn — Client::CallRaw,
/// ParseRequest, LeakageService::Handle, the RecordStore call the verb
/// reaches, SetLeakageColumnar, BankRecordLeakage and the kern::Active()
/// table — plus DurableStore::Append / Sync, each call recorded as a span
/// in `spans`. A layer's self time is its time minus its child layer's.
/// Runs on the quiescent fixture after the traced window; the counts it
/// reports (kernel calls, records scanned, WAL bytes per record) depend on
/// the seed alone.
infoleak::Result<ReplayResult> LayeredReplay(Fixture& fx,
                                             const ReplayInput& input,
                                             SpanLog* spans, Report* report);

}  // namespace perfbench

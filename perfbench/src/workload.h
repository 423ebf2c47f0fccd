#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/database.h"
#include "core/leakage.h"
#include "core/record.h"
#include "core/weights.h"
#include "gen/generator.h"
#include "util/result.h"
#include "util/rng.h"

namespace perfbench {

/// The three served workloads. Each stresses a different layer:
///  * hot-index  — one resident reference answered from the warm
///    incremental index, so the time is spent in svc (wire, parse, cache
///    lock, worker hand-off, serialize);
///  * cold-refs  — references drawn from 500 people, more than the
///    64-entry prepared-reference cache holds, so misses pay reference
///    preparation, a column-bank build and a full columnar scan;
///  * ingest-mix — a durable store taking open-loop appends beside
///    closed-loop index readers: WAL, change-feed publish and index delta
///    maintenance against the store writer lock.
enum class Kind { kHotIndex, kColdRefs, kIngestMix };

infoleak::Result<Kind> ParseKind(std::string_view name);
std::string_view KindName(Kind kind);

enum class Verb { kSetLeak = 0, kLeak = 1, kAppend = 2 };
constexpr int kNumVerbs = 3;
std::string_view VerbName(Verb verb);

// Fixed workload sizes (the report restates them as provenance).
constexpr std::size_t kAttributes = 20;        ///< n: attributes per reference
constexpr std::size_t kRecords = 10000;        ///< loaded before timing
constexpr std::size_t kPeople = 500;           ///< cold-refs, ingest-mix people
constexpr std::size_t kRecordsPerPerson = 20;  ///< kPeople · this = kRecords
constexpr double kZipfExponent = 1.0;          ///< cold-refs person popularity
constexpr double kWeightedShare = 0.25;        ///< cold-refs weighted requests
constexpr std::size_t kHotRefs = 4;            ///< ingest-mix hot references
constexpr double kAppendRate = 200.0;          ///< ingest-mix appends/second

/// Everything one workload feeds the system, generated from (kind, seed)
/// alone. The system under test only ever sees request lines built from
/// this and the records in `db`.
struct Inputs {
  Kind kind = Kind::kHotIndex;
  uint64_t seed = 0;
  infoleak::GeneratorConfig config;     ///< generator of every record
  infoleak::Database db;                ///< records loaded before timing
  std::vector<infoleak::Record> refs;   ///< candidate references
  std::vector<std::string> ref_text;    ///< FormatRecord(refs[i])
  std::vector<std::string> weight_spec; ///< weights a weighted request carries
  std::vector<std::size_t> hot;         ///< ingest-mix: references readers use
  std::vector<std::size_t> rank_to_ref; ///< cold-refs: popularity rank → ref
};

infoleak::Result<Inputs> MakeInputs(Kind kind, uint64_t seed);

/// One generated request.
struct Op {
  Verb verb = Verb::kSetLeak;
  std::size_t ref = 0;         ///< index into Inputs::refs
  bool weighted = false;       ///< carries Inputs::weight_spec[ref]
  std::size_t record_id = 0;   ///< leak: stored record id
  std::string record_text;     ///< append: the record, formatted
};

/// The wire line for `op` (no trailing newline). Weighted requests name the
/// approx (Taylor) engine: under `auto`, per-label weights send every record
/// of at most 16 attributes to the 2^|r| naive enumeration, which would
/// turn one scan into hundreds of milliseconds.
std::string RequestLine(const Inputs& in, const Op& op);

/// The engine and weights the service evaluates `op` with: weighted requests
/// name the approx engine, the rest use the default `auto`.
const infoleak::LeakageEngine& EngineFor(const Op& op);
infoleak::WeightModel WeightsFor(const Inputs& in, const Op& op);

/// Zipf(s) draw over ranks [0, n): P(k) ∝ 1/(k+1)^s, by inverse CDF.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);
  std::size_t Draw(infoleak::Rng* rng) const;
  double Probability(std::size_t rank) const;

 private:
  std::vector<double> cdf_;
};

/// The request sequence one closed-loop reader connection sends: a pure
/// function of (inputs, connection). hot-index mixes set-leak and point
/// leak 3:1; cold-refs sends set-leak for zipf-drawn people, a seeded
/// quarter of them weighted; ingest-mix readers send set-leak over the hot
/// references.
class OpStream {
 public:
  OpStream(const Inputs& in, std::size_t conn);
  Op Next();

 private:
  const Inputs* in_;
  infoleak::Rng rng_;
  ZipfSampler zipf_;
  uint64_t count_ = 0;
};

/// The i-th record the ingest-mix appender sends (seeded per index).
infoleak::Record AppendRecord(const Inputs& in, std::size_t i);

/// One open-loop send: when it was due, when the generator actually sent
/// it, and when its acknowledgement arrived (seconds from the schedule
/// start).
struct OpenLoopSample {
  double due_s = 0.0;
  double sent_s = 0.0;
  double acked_s = 0.0;
};

/// Latency of an open-loop request is timed from its due time, so a stall
/// charges every request queued behind it; lateness is how far behind
/// schedule the generator sent.
struct OpenLoopReport {
  std::vector<double> latency_ms;
  std::vector<double> lateness_ms;
  double max_lateness_ms = 0.0;
};

OpenLoopReport AccountOpenLoop(const std::vector<OpenLoopSample>& samples);

/// Due time of the i-th send at `rate` per second.
inline double DueSeconds(std::size_t i, double rate) {
  return static_cast<double>(i) / rate;
}

}  // namespace perfbench

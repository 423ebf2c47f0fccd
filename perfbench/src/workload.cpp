#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/record_io.h"
#include "gen/population.h"
#include "stats.h"
#include "svc/json.h"

namespace perfbench {

using infoleak::Result;
using infoleak::Status;

namespace {

// Seed streams: each generated input draws from its own stream, so adding
// an input never reshuffles the others.
constexpr uint64_t kStreamStore = 1;
constexpr uint64_t kStreamRanks = 2;
constexpr uint64_t kStreamHot = 3;
constexpr uint64_t kStreamWeights = 1000;
constexpr uint64_t kStreamReader = 100;
constexpr uint64_t kStreamAppend = uint64_t{1} << 32;

std::string WeightSpec(uint64_t seed) {
  infoleak::Rng rng(seed);
  std::string spec;
  for (std::size_t i = 0; i < kAttributes; ++i) {
    // Two decimals keep the spec short and exactly re-parseable.
    const int centi = 50 + static_cast<int>(rng.NextBounded(151));
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%sL%zu=%d.%02d", i == 0 ? "" : ",", i,
                  centi / 100, centi % 100);
    spec += buf;
  }
  return spec;
}

}  // namespace

Result<Kind> ParseKind(std::string_view name) {
  if (name == "hot-index") return Kind::kHotIndex;
  if (name == "cold-refs") return Kind::kColdRefs;
  if (name == "ingest-mix") return Kind::kIngestMix;
  return Status::InvalidArgument("unknown workload '" + std::string(name) +
                                 "' (hot-index|cold-refs|ingest-mix)");
}

std::string_view KindName(Kind kind) {
  switch (kind) {
    case Kind::kHotIndex: return "hot-index";
    case Kind::kColdRefs: return "cold-refs";
    case Kind::kIngestMix: return "ingest-mix";
  }
  return "unknown";
}

std::string_view VerbName(Verb verb) {
  switch (verb) {
    case Verb::kSetLeak: return "set-leak";
    case Verb::kLeak: return "leak";
    case Verb::kAppend: return "append";
  }
  return "unknown";
}

Result<Inputs> MakeInputs(Kind kind, uint64_t seed) {
  Inputs in;
  in.kind = kind;
  in.seed = seed;
  in.config = infoleak::GeneratorConfig::Basic();
  in.config.n = kAttributes;
  in.config.num_records = kRecords;
  in.config.seed = SubSeed(seed, kStreamStore);
  if (kind == Kind::kHotIndex) {
    auto data = infoleak::GenerateDataset(in.config);
    if (!data.ok()) return data.status();
    in.db = std::move(data->records);
    in.refs.push_back(std::move(data->reference));
  } else {
    auto data = infoleak::GeneratePopulation(in.config, kPeople,
                                             kRecordsPerPerson);
    if (!data.ok()) return data.status();
    in.db = std::move(data->records);
    in.refs = std::move(data->references);
  }
  for (const infoleak::Record& ref : in.refs) {
    in.ref_text.push_back(infoleak::FormatRecord(ref));
  }
  in.weight_spec.assign(in.refs.size(), "");
  if (kind == Kind::kColdRefs) {
    for (std::size_t p = 0; p < in.refs.size(); ++p) {
      in.weight_spec[p] = WeightSpec(SubSeed(seed, kStreamWeights + p));
    }
    in.rank_to_ref.resize(in.refs.size());
    for (std::size_t i = 0; i < in.refs.size(); ++i) in.rank_to_ref[i] = i;
    infoleak::Rng rng(SubSeed(seed, kStreamRanks));
    rng.Shuffle(&in.rank_to_ref);
  }
  if (kind == Kind::kIngestMix) {
    infoleak::Rng rng(SubSeed(seed, kStreamHot));
    std::vector<std::size_t> people(in.refs.size());
    for (std::size_t i = 0; i < people.size(); ++i) people[i] = i;
    rng.Shuffle(&people);
    in.hot.assign(people.begin(), people.begin() + kHotRefs);
  }
  return in;
}

std::string RequestLine(const Inputs& in, const Op& op) {
  std::string line;
  switch (op.verb) {
    case Verb::kSetLeak:
      line = R"({"verb":"set-leak","reference":)" +
             infoleak::svc::JsonQuote(in.ref_text[op.ref]);
      break;
    case Verb::kLeak:
      line = R"({"verb":"leak","record_id":)" + std::to_string(op.record_id) +
             R"(,"reference":)" + infoleak::svc::JsonQuote(in.ref_text[op.ref]);
      break;
    case Verb::kAppend:
      return R"({"verb":"append","record":)" +
             infoleak::svc::JsonQuote(op.record_text) + "}";
  }
  if (op.weighted) {
    line += R"(,"engine":"approx","weights":)" +
            infoleak::svc::JsonQuote(in.weight_spec[op.ref]);
  }
  return line + "}";
}

const infoleak::LeakageEngine& EngineFor(const Op& op) {
  static const infoleak::AutoLeakage auto_engine;
  static const infoleak::ApproxLeakage approx_engine;
  if (op.weighted) return approx_engine;
  return auto_engine;
}

infoleak::WeightModel WeightsFor(const Inputs& in, const Op& op) {
  if (!op.weighted) return infoleak::WeightModel();
  return infoleak::WeightModel::Parse(in.weight_spec[op.ref]).value();
}

ZipfSampler::ZipfSampler(std::size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t ZipfSampler::Draw(infoleak::Rng* rng) const {
  const double u = rng->NextDouble();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

double ZipfSampler::Probability(std::size_t rank) const {
  return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

OpStream::OpStream(const Inputs& in, std::size_t conn)
    : in_(&in),
      rng_(SubSeed(in.seed, kStreamReader + conn)),
      zipf_(in.refs.size(), kZipfExponent) {}

Op OpStream::Next() {
  Op op;
  const uint64_t i = count_++;
  switch (in_->kind) {
    case Kind::kHotIndex:
      if (i % 4 == 3) {
        op.verb = Verb::kLeak;
        op.record_id = rng_.NextBounded(in_->db.size());
      }
      break;
    case Kind::kColdRefs:
      op.ref = in_->rank_to_ref[zipf_.Draw(&rng_)];
      op.weighted = rng_.NextDouble() < kWeightedShare;
      break;
    case Kind::kIngestMix:
      op.ref = in_->hot[rng_.NextBounded(in_->hot.size())];
      break;
  }
  return op;
}

infoleak::Record AppendRecord(const Inputs& in, std::size_t i) {
  infoleak::Rng rng(SubSeed(in.seed, kStreamAppend + i));
  const std::size_t person = rng.NextBounded(in.refs.size());
  return infoleak::GenerateRecord(in.refs[person], in.config, &rng);
}

OpenLoopReport AccountOpenLoop(const std::vector<OpenLoopSample>& samples) {
  OpenLoopReport report;
  for (const OpenLoopSample& s : samples) {
    report.latency_ms.push_back((s.acked_s - s.due_s) * 1000.0);
    const double late = std::max(0.0, s.sent_s - s.due_s) * 1000.0;
    report.lateness_ms.push_back(late);
    report.max_lateness_ms = std::max(report.max_lateness_ms, late);
  }
  return report;
}

}  // namespace perfbench

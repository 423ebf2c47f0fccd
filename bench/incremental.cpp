// Append->query latency for the incremental leakage index vs the columnar
// rescan, swept over store size |R| in {1k, 10k, 100k}. Each round appends
// one record through the service and then asks for the set leakage of the
// same reference. In index mode the query is a served set-leak: a lookup
// plus a one-record delta (flat in |R|). In rescan mode it is
// RecordStore::SetLeakColumnar over a bank the bench owns: the bank is
// extended by the new record and the whole store is scanned (linear in
// |R|). Both modes must land on identical bits.
//
// The cold modes time what a cache miss costs at the store layer: the
// first query of a fresh LeakageIndex (RecordStore::SetLeakIndexed, the
// whole store owed as catch-up). cold-population queries one person of a
// population store (|R|/10 people, ten records each), so only that
// person's records share a pair with the reference; cold-single queries the
// Table-4 store, where every record derives from the reference. Each cold
// answer must equal the columnar rescan's bits. Writes the
// BENCH_incremental.json sidecar for CI.

#include <algorithm>
#include <cstdio>
#include <chrono>
#include <shared_mutex>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "core/column_bank.h"
#include "core/record_io.h"
#include "gen/generator.h"
#include "gen/population.h"
#include "inc/leakage_index.h"
#include "store/record_store.h"
#include "svc/json.h"
#include "svc/protocol.h"
#include "svc/service.h"

namespace infoleak::bench {
namespace {

using Clock = std::chrono::steady_clock;

struct ModePoint {
  uint64_t queries = 0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double leakage = 0.0;
  double argmax = -1.0;
};

double PercentileUs(std::vector<double>& sorted_us, double q) {
  if (sorted_us.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted_us.size() - 1) + 0.5);
  return sorted_us[std::min(rank, sorted_us.size() - 1)];
}

/// One append->query round trip per iteration, service.Handle directly (no
/// sockets: this measures the evaluation plane, not the network).
Result<ModePoint> RunMode(const SyntheticDataset& data, std::size_t base,
                          const std::vector<std::string>& appends,
                          bool index_on) {
  Database db;
  for (std::size_t i = 0; i < base; ++i) db.Add(data.records[i]);
  svc::LeakageService service(RecordStore::FromDatabase(db));

  const std::string set_leak =
      std::string(R"({"verb":"set-leak","reference":)") +
      svc::JsonQuote(FormatRecord(data.reference)) + "}";
  auto set_leak_req = svc::ParseRequest(set_leak);
  if (!set_leak_req.ok()) return set_leak_req.status();

  // Rescan mode never sends a set-leak, so no index is registered and
  // appends publish to an empty feed. Unit weights, like the request.
  const WeightModel unit;
  const PreparedReference prepared(data.reference, unit);
  ColumnBank bank(prepared);
  std::shared_mutex bank_mu;
  AutoLeakage engine;
  ModePoint point;
  std::string last;  // index mode's latest response, parsed after timing
  auto query = [&]() -> Status {
    if (index_on) {
      std::string wire_code;
      last = service.Handle(*set_leak_req, {}, &wire_code);
      if (!wire_code.empty()) return Status::Internal("set-leak: " + last);
      return Status::OK();
    }
    std::ptrdiff_t argmax = -1;
    auto leakage =
        service.store().SetLeakColumnar(bank, bank_mu, engine, &argmax);
    if (!leakage.ok()) return leakage.status();
    point.leakage = *leakage;
    point.argmax = static_cast<double>(argmax);
    return Status::OK();
  };

  // Warm-up outside the timed region: index mode registers the reference
  // and pays the one-time catch-up over the base records; rescan mode
  // builds its bank over them.
  INFOLEAK_RETURN_IF_ERROR(query());

  std::vector<double> micros;
  micros.reserve(appends.size());
  for (const std::string& append_line : appends) {
    auto append_req = svc::ParseRequest(append_line);
    if (!append_req.ok()) return append_req.status();
    const Clock::time_point t0 = Clock::now();
    std::string wire_code;
    service.Handle(*append_req, {}, &wire_code);
    if (!wire_code.empty()) return Status::Internal("append: " + wire_code);
    INFOLEAK_RETURN_IF_ERROR(query());
    micros.push_back(std::chrono::duration<double, std::micro>(Clock::now() -
                                                               t0)
                         .count());
  }

  if (index_on) {
    auto parsed = svc::ParseJson(last);
    if (!parsed.ok()) return parsed.status();
    point.leakage = parsed->GetNumber("leakage", -1.0);
    point.argmax = parsed->GetNumber("argmax", -2.0);
  }
  point.queries = micros.size();
  double sum = 0.0;
  for (double us : micros) sum += us;
  point.mean_us = micros.empty() ? 0.0 : sum / static_cast<double>(micros.size());
  std::sort(micros.begin(), micros.end());
  point.p50_us = PercentileUs(micros, 0.50);
  point.p99_us = PercentileUs(micros, 0.99);
  return point;
}

/// Times `queries` first queries, each of a fresh index over `db` for
/// `reference` (unit weights, the auto engine — the service's defaults),
/// and checks the answer against a columnar rescan.
Result<ModePoint> RunCold(const Database& db, const Record& reference,
                          int queries) {
  const RecordStore store = RecordStore::FromDatabase(db);
  const WeightModel unit;
  AutoLeakage engine;
  ModePoint point;
  std::vector<double> micros;
  for (int q = 0; q < queries; ++q) {
    inc::LeakageIndex index(reference, unit, &engine, /*feed=*/nullptr);
    const Clock::time_point t0 = Clock::now();
    auto answer = store.SetLeakIndexed(index);
    micros.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    if (!answer.ok()) return answer.status();
    point.leakage = answer->leakage;
    point.argmax = static_cast<double>(answer->argmax);
  }
  const PreparedReference prepared(reference, unit);
  ColumnBank bank(prepared);
  std::shared_mutex bank_mu;
  std::ptrdiff_t argmax = -1;
  auto want = store.SetLeakColumnar(bank, bank_mu, engine, &argmax);
  if (!want.ok()) return want.status();
  if (*want != point.leakage || static_cast<double>(argmax) != point.argmax) {
    return Status::Internal("cold index and rescan disagree");
  }
  point.queries = micros.size();
  double sum = 0.0;
  for (double us : micros) sum += us;
  point.mean_us = sum / static_cast<double>(micros.size());
  std::sort(micros.begin(), micros.end());
  point.p50_us = PercentileUs(micros, 0.50);
  point.p99_us = PercentileUs(micros, 0.99);
  return point;
}

int Main() {
  const std::vector<std::size_t> sizes{1000, 10000, 100000};
  const int rounds = 64;

  GeneratorConfig config = GeneratorConfig::Basic();
  config.n = 20;
  config.num_records = sizes.back() + static_cast<std::size_t>(rounds);
  auto data = GenerateDataset(config);
  if (!data.ok()) {
    std::fprintf(stderr, "generate: %s\n", data.status().ToString().c_str());
    return 1;
  }

  const int cold_queries = 16;
  const std::string cold_config =
      " cold: " + std::to_string(cold_queries) +
      " first queries; population of |R|/10 people x 10 records";
  PrintTitle("bench_incremental: append->query latency, index vs rescan; "
             "cold first-query cost",
             config.ToString() + " rounds=" + std::to_string(rounds) +
                 cold_config);
  BenchReport report("incremental", config.ToString() + cold_config,
                     {"records", "mode", "queries", "mean_us", "p50_us",
                      "p99_us"});
  RowPrinter rows(
      {"records", "mode", "queries", "mean_us", "p50_us", "p99_us"}, 12,
      &report);
  for (std::size_t base : sizes) {
    // The appended records come from past the base prefix so both modes
    // see the same fresh rows.
    std::vector<std::string> appends;
    for (int i = 0; i < rounds; ++i) {
      appends.push_back(
          std::string(R"({"verb":"append","record":)") +
          svc::JsonQuote(FormatRecord(
              data->records[base + static_cast<std::size_t>(i)])) +
          "}");
    }
    ModePoint got[2];
    const bool modes[2] = {true, false};
    const char* names[2] = {"index", "rescan"};
    for (int m = 0; m < 2; ++m) {
      auto point = RunMode(*data, base, appends, modes[m]);
      if (!point.ok()) {
        std::fprintf(stderr, "records=%zu mode=%s: %s\n", base, names[m],
                     point.status().ToString().c_str());
        return 1;
      }
      got[m] = *point;
      rows.Row({std::to_string(base), names[m],
                std::to_string(point->queries), Fmt(point->mean_us, 6),
                Fmt(point->p50_us, 6), Fmt(point->p99_us, 6)});
    }
    // The speedup is only meaningful if both modes answered identically.
    if (got[0].leakage != got[1].leakage || got[0].argmax != got[1].argmax) {
      std::fprintf(stderr,
                   "index/rescan disagree at records=%zu: "
                   "leakage %.17g vs %.17g, argmax %g vs %g\n",
                   base, got[0].leakage, got[1].leakage, got[0].argmax,
                   got[1].argmax);
      return 1;
    }
  }
  for (std::size_t base : sizes) {
    GeneratorConfig pop_config = GeneratorConfig::Basic();
    pop_config.n = config.n;
    auto population = GeneratePopulation(pop_config, base / 10, 10);
    if (!population.ok()) {
      std::fprintf(stderr, "population: %s\n",
                   population.status().ToString().c_str());
      return 1;
    }
    Database single;
    for (std::size_t i = 0; i < base; ++i) single.Add(data->records[i]);
    const struct {
      const char* name;
      const Database* db;
      const Record* reference;
    } stores[] = {
        {"cold-population", &population->records,
         &population->references[population->references.size() / 2]},
        {"cold-single", &single, &data->reference},
    };
    for (const auto& cold : stores) {
      auto point = RunCold(*cold.db, *cold.reference, cold_queries);
      if (!point.ok()) {
        std::fprintf(stderr, "records=%zu mode=%s: %s\n", base, cold.name,
                     point.status().ToString().c_str());
        return 1;
      }
      rows.Row({std::to_string(base), cold.name,
                std::to_string(point->queries), Fmt(point->mean_us, 6),
                Fmt(point->p50_us, 6), Fmt(point->p99_us, 6)});
    }
  }
  Status written = report.WriteFile(".");
  if (!written.ok()) {
    std::fprintf(stderr, "write: %s\n", written.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace infoleak::bench

int main() { return infoleak::bench::Main(); }

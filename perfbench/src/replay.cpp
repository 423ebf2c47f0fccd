#include "replay.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <shared_mutex>
#include <thread>

#include "core/column_bank.h"
#include "core/kernels.h"
#include "core/leakage.h"
#include "core/record_io.h"
#include "inc/change_feed.h"
#include "inc/leakage_index.h"
#include "persist/durable_store.h"
#include "svc/json.h"
#include "svc/protocol.h"

namespace perfbench {

using infoleak::Result;
using infoleak::Status;
namespace svc = infoleak::svc;

namespace {

// Replay sizes. The counts are fixed so that kernel calls, records scanned
// and WAL bytes per record repeat exactly for a given seed.
constexpr std::size_t kReplayRequests = 96;  // from the workload stream
constexpr std::size_t kExtraPerVerb = 32;    // for verbs the workload lacks
constexpr int kPasses = 4;                   // timed passes over the sample
constexpr std::size_t kCoreRefs = 4;         // references the core block scans
constexpr int kCoreRepeats = 3;              // warm scans per reference
constexpr std::size_t kWriteRecords = 1000;  // appends per write-path store
constexpr std::size_t kReplayStream = 5000;  // OpStream number of the sample

double Us(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

bool ServedAnswer(const std::string& response, double* leakage,
                  double* argmax) {
  auto parsed = svc::ParseJson(response);
  if (!parsed.ok() || !parsed->GetBool("ok", false)) return false;
  *leakage = parsed->GetNumber("leakage", -1);
  *argmax = parsed->GetNumber("argmax", -1);
  return true;
}

/// Polls a set-leak line until the service answers it from the index, so
/// every timed set-leak below takes the same (warm) path.
Status WaitForIndex(svc::Client& client, const std::string& line) {
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(20);
  while (true) {
    auto response = client.CallRaw(line);
    if (!response.ok()) return response.status();
    if (response->find("\"ok\":true") == std::string::npos) {
      return Status::Internal("replay warm-up failed: " + *response);
    }
    if (response->find("\"path\":\"index\"") != std::string::npos) {
      return Status::OK();
    }
    if (Clock::now() > give_up) {
      return Status::DeadlineExceeded("index never became ready");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// Which kernel the columnar engine dispatches a bank record to.
enum class Dispatch { kExact, kApprox, kNaive };

Dispatch Classify(const Op& op, const infoleak::ColumnRecordView& v,
                  const infoleak::PreparedReference& p) {
  if (op.weighted) return Dispatch::kApprox;  // the approx engine, always
  if (infoleak::UniformWeightOver(v, p)) return Dispatch::kExact;
  return v.size <= 16 ? Dispatch::kNaive : Dispatch::kApprox;
}

/// One reference as the core block sees it: its own prepared form and bank
/// over the workload's loaded records.
struct CoreRef {
  Op op;
  infoleak::WeightModel weights;
  std::unique_ptr<infoleak::PreparedReference> prepared;
  std::unique_ptr<infoleak::ColumnBank> bank;
  std::shared_mutex bank_mu;
  double leakage = 0.0;
  std::ptrdiff_t argmax = -1;
};

}  // namespace

Result<ReplayResult> LayeredReplay(Fixture& fx, const ReplayInput& input,
                                   SpanLog* spans, Report* report) {
  const Inputs& in = fx.inputs();
  ReplayResult out;
  auto add = [&](const std::string& name, double value,
                 const std::string& unit, std::size_t n) {
    out.metrics.push_back({name, value, unit, n});
  };
  auto mismatch = [&](const std::string& what) {
    ++out.mismatches;
    report->Note("MISMATCH replay " + what);
  };

  // ---- Served-run counters (traced window deltas) ---------------------------
  const ServiceStats& s0 = input.stats_before;
  const ServiceStats& s1 = input.stats_after;
  const WindowResult& traced = *input.traced;
  {
    std::vector<double> queue = traced.queue_us;
    LatencySummary q = Summarize(&queue);
    add("svc.server.queue_us.p50", q.p50, "us", q.n);
    add("svc.server.queue_us.p99", q.p99, "us", q.n);
    if (!q.p99_supported) {
      report->Note("svc.server.queue_us.p99 rests on fewer than 10 samples "
                   "beyond it (n=" + std::to_string(q.n) + ")");
    }
    add("svc.cache.cached_references", s1.cached_references, "count", 1);
    const double hits = s1.index_hits - s0.index_hits;
    const double fallbacks = s1.index_fallbacks - s0.index_fallbacks;
    add("inc.index.hit_ratio",
        hits + fallbacks > 0 ? hits / (hits + fallbacks) : 0.0, "ratio",
        static_cast<std::size_t>(hits + fallbacks));
    const double appends = s1.index_appends - s0.index_appends;
    const double skips = s1.index_bound_skips - s0.index_bound_skips;
    add("inc.index.bound_skip_ratio",
        appends * s1.index_registered > 0
            ? skips / (appends * s1.index_registered)
            : 0.0,
        "ratio", static_cast<std::size_t>(appends));
    add("inc.index.catchup_records", Mean(traced.catchup_records), "count",
        traced.catchup_records.size());
    report->Note("stats traced-window: hits=" + std::to_string(hits) +
                 " fallbacks=" + std::to_string(fallbacks) +
                 " bound_skips=" + std::to_string(skips) +
                 " appends=" + std::to_string(appends) +
                 " registered=" + std::to_string(s1.index_registered) +
                 " cached_references=" + std::to_string(s1.cached_references));
  }

  // ---- The sample: the workload's own requests, plus verbs it lacks --------
  std::vector<Op> sample;
  OpStream stream(in, kReplayStream);
  for (std::size_t i = 0; i < kReplayRequests; ++i) {
    sample.push_back(stream.Next());
  }
  bool has[kNumVerbs] = {false, false, false};
  for (const Op& op : sample) has[static_cast<int>(op.verb)] = true;
  const Op first_set_leak = [&] {
    for (const Op& op : sample) {
      if (op.verb == Verb::kSetLeak) return op;
    }
    return Op{};
  }();
  infoleak::Rng extra_rng(SubSeed(in.seed, kReplayStream + 1));
  if (!has[static_cast<int>(Verb::kLeak)]) {
    for (std::size_t i = 0; i < kExtraPerVerb; ++i) {
      Op op = first_set_leak;
      op.verb = Verb::kLeak;
      op.record_id = extra_rng.NextBounded(in.db.size());
      sample.push_back(op);
    }
  }
  // Appends go last: they change the store every other layer reads.
  for (std::size_t i = 0; i < kExtraPerVerb; ++i) {
    Op op;
    op.verb = Verb::kAppend;
    op.record_text = infoleak::FormatRecord(AppendRecord(in, 2000000 + i));
    sample.push_back(op);
  }

  // A store holding exactly the loaded records: the store-level calls
  // read it, so their work depends on the seed alone.
  infoleak::RecordStore replay_store =
      infoleak::RecordStore::FromDatabase(in.db);

  // Per-reference replay indexes (no feed: built inline on first query).
  std::map<std::size_t, std::shared_ptr<infoleak::inc::LeakageIndex>> indexes;
  // A PreparedReference borrows its reference and weight model, so each
  // entry keeps its weights alive beside it.
  struct LeakRef {
    infoleak::WeightModel weights;
    std::unique_ptr<infoleak::PreparedReference> prepared;
  };
  std::map<std::size_t, LeakRef> prepared;
  auto key_of = [](const Op& op) { return op.ref * 2 + (op.weighted ? 1 : 0); };
  infoleak::inc::IndexOptions index_options;
  index_options.inline_catchup_max = static_cast<std::size_t>(-1);

  auto client = fx.server().NewClient();
  if (!client.ok()) return client.status();

  struct RequestTimes {
    Verb verb;
    double rtt = 0, parse = 0, handle = 0, child = 0;
  };
  std::vector<RequestTimes> times;
  uint64_t request = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const Op& op : sample) {
      if (op.verb == Verb::kAppend && pass > 0) continue;  // append once each
      ++request;
      std::string line_buffer;
      const std::string line = fx.Line(op, &line_buffer);
      const std::size_t key = key_of(op);
      if (op.verb == Verb::kSetLeak) {
        if (Status s = WaitForIndex(*client, line); !s.ok()) return s;
        if (indexes.find(key) == indexes.end()) {
          auto index = std::make_shared<infoleak::inc::LeakageIndex>(
              in.refs[op.ref], WeightsFor(in, op), &EngineFor(op), nullptr,
              index_options);
          if (auto built = replay_store.SetLeakIndexed(*index); !built.ok()) {
            return built.status();
          }
          indexes[key] = index;
        }
      }
      if (op.verb == Verb::kLeak && prepared.find(key) == prepared.end()) {
        LeakRef& entry = prepared[key];
        entry.weights = WeightsFor(in, op);
        entry.prepared = std::make_unique<infoleak::PreparedReference>(
            in.refs[op.ref], entry.weights);
      }
      RequestTimes t;
      t.verb = op.verb;
      Result<std::string> wire = std::string();
      const uint64_t root = spans->Time("svc.client.call_raw", 0, request,
                                        [&] { wire = client->CallRaw(line); });
      t.rtt = spans->spans().back().micros();
      Result<svc::Request> req = Status::Internal("unparsed");
      spans->Time("svc.protocol.parse_request", root, request,
                  [&] { req = svc::ParseRequest(line); });
      t.parse = spans->spans().back().micros();
      if (!wire.ok() || !req.ok()) {
        return Status::Internal("replay request failed");
      }
      std::string handled;
      const uint64_t handle = spans->Time(
          "svc.service.handle", root, request,
          [&] { handled = fx.service().Handle(*req); });
      t.handle = spans->spans().back().micros();
      ++out.checked;
      if (handled.find("\"ok\":true") == std::string::npos ||
          wire->find("\"ok\":true") == std::string::npos) {
        mismatch("request failed: " + handled.substr(0, 120));
      } else if (op.verb != Verb::kAppend) {
        double wl = 0, wa = 0, hl = 0, ha = 0;
        if (!ServedAnswer(*wire, &wl, &wa) ||
            !ServedAnswer(handled, &hl, &ha) || wl != hl || wa != ha) {
          mismatch("wire and in-process answers differ");
        }
      }
      if (op.verb == Verb::kSetLeak) {
        spans->Time("inc.index.set_leak_indexed", handle, request, [&] {
          (void)replay_store.SetLeakIndexed(*indexes[key]);
        });
        t.child = spans->spans().back().micros();
      } else if (op.verb == Verb::kLeak) {
        spans->Time("store.record_leak", handle, request, [&] {
          (void)replay_store.RecordLeak(
              static_cast<infoleak::RecordId>(op.record_id),
              *prepared[key].prepared, EngineFor(op));
        });
        t.child = spans->spans().back().micros();
      }
      times.push_back(t);
    }
  }
  auto median_of = [&](Verb verb, double RequestTimes::*field) {
    std::vector<double> v;
    for (const RequestTimes& t : times) {
      if (t.verb == verb) v.push_back(t.*field);
    }
    return Median(v);
  };
  auto count_of = [&](Verb verb) {
    return static_cast<std::size_t>(std::count_if(
        times.begin(), times.end(),
        [&](const RequestTimes& t) { return t.verb == verb; }));
  };
  std::vector<double> wire_us, parse_us;
  for (const RequestTimes& t : times) {
    parse_us.push_back(t.parse);
    if (t.verb == Verb::kSetLeak) wire_us.push_back(t.rtt - t.handle);
  }
  const double rtt = median_of(Verb::kSetLeak, &RequestTimes::rtt);
  const double wire = Median(wire_us);
  const double handle_set_leak =
      median_of(Verb::kSetLeak, &RequestTimes::handle);
  const double index_query = median_of(Verb::kSetLeak, &RequestTimes::child);
  add("svc.client.rtt_us", rtt, "us", count_of(Verb::kSetLeak));
  add("svc.server.wire_us", wire, "us", wire_us.size());
  add("svc.protocol.parse_us", Median(parse_us), "us", parse_us.size());
  add("svc.service.handle_us.set-leak", handle_set_leak, "us",
      count_of(Verb::kSetLeak));
  add("svc.service.handle_us.leak",
      median_of(Verb::kLeak, &RequestTimes::handle), "us",
      count_of(Verb::kLeak));
  add("svc.service.handle_us.append",
      median_of(Verb::kAppend, &RequestTimes::handle), "us",
      count_of(Verb::kAppend));
  add("inc.index.query_us", index_query, "us", count_of(Verb::kSetLeak));
  add("store.record_leak_us", median_of(Verb::kLeak, &RequestTimes::child),
      "us", count_of(Verb::kLeak));

  // Self times along the warm set-leak chain: wire = rtt − handle,
  // handle self = handle − index query. Medians of the parts need not sum to
  // the median round trip; the gap is reported next to the tracing overhead.
  {
    const double handle_self = handle_set_leak - index_query;
    const double sum = wire + handle_self + index_query;
    const double overhead_us = input.tracing_overhead_us;
    char line[320];
    std::snprintf(line, sizeof(line),
                  "chain set-leak(index): wire=%.3fus handle_self=%.3fus "
                  "index_query=%.3fus sum=%.3fus rtt=%.3fus gap=%.3fus "
                  "tracing_overhead=%.3fus within=%s",
                  wire, handle_self, index_query, sum, rtt, sum - rtt,
                  overhead_us,
                  std::fabs(sum - rtt) <= std::fabs(overhead_us) ? "yes"
                                                                 : "no");
    report->Note(line);
  }

  // ---- Core block: store → scan → engine → kernels on a cold bank --------
  std::vector<std::unique_ptr<CoreRef>> core;
  {
    // Distinct references in sample order, at most half of them weighted
    // (cold-refs), so both the exact and the Taylor dispatch are scanned.
    std::vector<std::size_t> seen;
    const std::size_t cap =
        in.kind == Kind::kColdRefs ? kCoreRefs / 2 : kCoreRefs;
    std::size_t per_class[2] = {0, 0};
    for (const Op& op : sample) {
      if (op.verb != Verb::kSetLeak || core.size() >= kCoreRefs) continue;
      if (std::find(seen.begin(), seen.end(), key_of(op)) != seen.end()) {
        continue;
      }
      if (per_class[op.weighted ? 1 : 0] >= cap) continue;
      ++per_class[op.weighted ? 1 : 0];
      seen.push_back(key_of(op));
      auto c = std::make_unique<CoreRef>();
      c->op = op;
      c->weights = WeightsFor(in, op);
      c->prepared = std::make_unique<infoleak::PreparedReference>(
          in.refs[op.ref], c->weights);
      c->bank = std::make_unique<infoleak::ColumnBank>(*c->prepared);
      core.push_back(std::move(c));
    }
  }
  std::vector<double> extend_ms, columnar_ms, scan_ms;
  double exact_engine_ns = 0, approx_engine_ns = 0;
  double exact_kernel_ns = 0, approx_kernel_ns = 0;
  double exact_evals = 0, approx_evals = 0;
  const infoleak::ExactLeakage exact_engine;
  const infoleak::ApproxLeakage approx_engine;
  std::size_t exact_records = 0, approx_records = 0, naive_records = 0;
  std::size_t records_scanned = 0;
  double bank_bytes = 0;
  const infoleak::kern::KernelTable& kernels = infoleak::kern::Active();
  for (std::size_t ci = 0; ci < core.size(); ++ci) {
    CoreRef& c = *core[ci];
    const infoleak::LeakageEngine& engine = EngineFor(c.op);
    const uint64_t req = ++request;
    std::ptrdiff_t argmax = -1;
    Result<double> cold = 0.0;
    spans->Time("store.set_leak_columnar.cold", 0, req, [&] {
      cold = replay_store.SetLeakColumnar(*c.bank, c.bank_mu, engine, &argmax);
    });
    const double cold_ms = spans->spans().back().micros() / 1e3;
    std::vector<double> warm;
    for (int r = 0; r < kCoreRepeats; ++r) {
      spans->Time("store.set_leak_columnar", 0, req, [&] {
        (void)replay_store.SetLeakColumnar(*c.bank, c.bank_mu, engine, &argmax);
      });
      warm.push_back(spans->spans().back().micros() / 1e3);
    }
    const double warm_ms = Median(warm);
    columnar_ms.push_back(warm_ms);
    extend_ms.push_back(cold_ms - warm_ms);
    std::vector<double> scans;
    Result<double> scanned = 0.0;
    std::ptrdiff_t scan_argmax = -1;
    for (int r = 0; r < kCoreRepeats; ++r) {
      spans->Time("core.scan.set_leakage_columnar", 0, req, [&] {
        scanned = infoleak::SetLeakageColumnar(*c.bank, engine, &scan_argmax);
      });
      scans.push_back(spans->spans().back().micros() / 1e3);
    }
    scan_ms.push_back(Median(scans));
    // The library answer the served path must reproduce bit for bit.
    auto library = infoleak::SetLeakageArgMax(in.db, in.refs[c.op.ref],
                                              c.weights, engine, &c.argmax);
    out.checked += 2;
    if (!cold.ok() || !scanned.ok() || !library.ok() || *cold != *library ||
        *scanned != *library || argmax != c.argmax || scan_argmax != c.argmax) {
      mismatch("columnar scan differs from SetLeakageArgMax");
      continue;
    }
    c.leakage = *library;

    // Kernel calls the served scan makes, by the engine's dispatch.
    const infoleak::ColumnBank& bank = *c.bank;
    const infoleak::PreparedReference& p = *c.prepared;
    for (std::size_t i = 0; i < bank.size(); ++i) {
      switch (Classify(c.op, bank.view(i), p)) {
        case Dispatch::kExact: ++exact_records; break;
        case Dispatch::kApprox: ++approx_records; break;
        case Dispatch::kNaive: ++naive_records; break;
      }
    }
    records_scanned += bank.size();
    if (ci == 0) {
      bank_bytes = static_cast<double>(bank.attributes()) *
                       (2 * sizeof(double) + 2 * sizeof(uint32_t)) +
                   static_cast<double>(bank.size()) *
                       (sizeof(uint64_t) + sizeof(uint8_t) + sizeof(double)) +
                   sizeof(uint64_t);
    }

    // Per-record engine and kernel costs over the whole bank: the Taylor
    // path for every reference, Algorithm 1 where the weights allow it
    // (one weight across labels), so both are measured on every workload.
    infoleak::LeakageWorkspace ws;
    ws.ReserveFor(bank.max_record_size(), p.size());
    std::vector<double> engine_values(bank.size(), 0.0);
    auto engine_loop = [&](const infoleak::LeakageEngine& e,
                           std::string_view name) {
      spans->Time(name, 0, req, [&] {
        for (std::size_t i = 0; i < bank.size(); ++i) {
          auto l = infoleak::BankRecordLeakage(bank, i, e, &ws);
          engine_values[i] = l.ok() ? *l : -1.0;
        }
      });
      return spans->spans().back().micros() * 1e3;
    };
    // Kernel time = (FillMatchColumns + table call) − FillMatchColumns alone.
    auto fill_loop = [&] {
      const Clock::time_point t0 = Clock::now();
      for (std::size_t i = 0; i < bank.size(); ++i) {
        infoleak::FillMatchColumns(bank.view(i), p.size(), &ws);
      }
      return Us(t0, Clock::now()) * 1e3;
    };
    bool agrees = true;
    auto kernel_loop = [&](bool exact, std::string_view name) {
      spans->Time(name, 0, req, [&] {
        for (std::size_t i = 0; i < bank.size(); ++i) {
          const infoleak::ColumnRecordView v = bank.view(i);
          infoleak::FillMatchColumns(v, p.size(), &ws);
          double k;
          if (exact) {
            ws.poly.resize(v.size + 1);
            k = kernels.exact_sum(v.conf, v.size, ws.match_conf.data(),
                                  ws.match_rpos.data(), p.size(),
                                  static_cast<double>(p.size()), 2.0,
                                  ws.poly.data());
          } else {
            k = kernels.approx_sum(v.conf, v.weight, v.size,
                                   ws.match_conf.data(), ws.match_rpos.data(),
                                   p.attr_weights().data(), p.size(),
                                   p.total_weight(), 2.0, 2);
          }
          // The table call plus the engine's clamp reproduces the engine.
          if (std::clamp(k, 0.0, 1.0) != engine_values[i]) agrees = false;
        }
      });
      return std::max(0.0, spans->spans().back().micros() * 1e3 - fill_loop());
    };
    const double n = static_cast<double>(bank.size());
    if (!c.op.weighted) {
      exact_engine_ns +=
          engine_loop(exact_engine, "core.engine.bank_record_leakage.exact");
      exact_kernel_ns += kernel_loop(true, "core.kernels.exact_sum");
      exact_evals += n;
    }
    approx_engine_ns +=
        engine_loop(approx_engine, "core.engine.bank_record_leakage.approx");
    approx_kernel_ns += kernel_loop(false, "core.kernels.approx_sum");
    approx_evals += n;
    ++out.checked;
    if (!agrees) mismatch("kernel table call differs from BankRecordLeakage");
  }
  auto per = [](double total, double n) { return n == 0 ? 0.0 : total / n; };
  add("store.bank_extend_ms", Median(extend_ms), "ms", extend_ms.size());
  add("store.set_leak_columnar_ms", Median(columnar_ms), "ms",
      columnar_ms.size());
  add("core.scan.set_leakage_columnar_ms", Median(scan_ms), "ms",
      scan_ms.size());
  const auto exact_n = static_cast<std::size_t>(exact_evals);
  const auto approx_n = static_cast<std::size_t>(approx_evals);
  add("core.engine.record_leakage_ns.exact", per(exact_engine_ns, exact_evals),
      "ns", exact_n);
  add("core.engine.record_leakage_ns.approx",
      per(approx_engine_ns, approx_evals), "ns", approx_n);
  add("core.kernels.exact_sum_ns", per(exact_kernel_ns, exact_evals), "ns",
      exact_n);
  add("core.kernels.approx_sum_ns", per(approx_kernel_ns, approx_evals), "ns",
      approx_n);
  add("core.kernels.calls", static_cast<double>(exact_records + approx_records),
      "count", core.size());
  add("store.records_scanned", static_cast<double>(records_scanned), "count",
      core.size());
  add("core.column_bank.bytes", bank_bytes, "bytes", 1);
  report->Note("core.column_bank.bytes is computed from the bank's column "
               "sizes, not measured");
  if (naive_records > 0) {
    report->Note("core: " + std::to_string(naive_records) +
                 " records dispatched to the naive enumeration (not timed)");
  }

  // ---- Miss and hit through Handle, on a fresh service ---------------------
  {
    // The same fresh service gives the memory one cached reference costs:
    // RSS growth across the misses, once every index is built.
    svc::LeakageService fresh(infoleak::RecordStore::FromDatabase(in.db));
    const double rss_before = CurrentRssMb();
    std::vector<double> miss_ms, hit_ms;
    for (const auto& c : core) {
      std::string line_buffer;
      auto req = svc::ParseRequest(fx.Line(c->op, &line_buffer));
      if (!req.ok()) return req.status();
      const uint64_t r = ++request;
      std::string missed;
      spans->Time("svc.service.handle.miss", 0, r,
                  [&] { missed = fresh.Handle(*req); });
      miss_ms.push_back(spans->spans().back().micros() / 1e3);
      double l = 0, a = 0;
      ++out.checked;
      if (!ServedAnswer(missed, &l, &a) || l != c->leakage ||
          a != static_cast<double>(c->argmax)) {
        mismatch("miss answer differs from SetLeakageArgMax");
      }
      // A hit is the steady state: the entry is cached and its index built.
      const Clock::time_point give_up = Clock::now() + std::chrono::seconds(20);
      while (fresh.Handle(*req).find("\"path\":\"index\"") ==
             std::string::npos) {
        if (Clock::now() > give_up) {
          return Status::DeadlineExceeded("index never ready");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      std::string hit;
      spans->Time("svc.service.handle.hit", 0, r,
                  [&] { hit = fresh.Handle(*req); });
      hit_ms.push_back(spans->spans().back().micros() / 1e3);
    }
    add("svc.cache.rss_per_ref_mb",
        (CurrentRssMb() - rss_before) / static_cast<double>(core.size()), "MiB",
        core.size());
    add("svc.service.miss_ms", Median(miss_ms), "ms", miss_ms.size());
    add("svc.service.hit_ms", Median(hit_ms), "ms", hit_ms.size());
  }

  // ---- Write path: store append, feed publish, WAL append and sync ---------
  {
    std::vector<infoleak::Record> records;
    for (std::size_t i = 0; i < kWriteRecords; ++i) {
      records.push_back(AppendRecord(in, 3000000 + i));
    }
    std::vector<double> plain_us, feed_us, durable_us, sync_ms;
    {
      infoleak::RecordStore plain = infoleak::RecordStore::FromDatabase(in.db);
      for (const infoleak::Record& r : records) {
        const Clock::time_point t0 = Clock::now();
        plain.Append(r);
        const Clock::time_point t1 = Clock::now();
        spans->Add("store.append", 0, ++request, t0, t1);
        plain_us.push_back(Us(t0, t1));
      }
    }
    {
      // The workload's set-leak references, each with a live index on the
      // store's change feed: every append fans out to all of them.
      infoleak::inc::ChangeFeed feed;
      infoleak::RecordStore fed = infoleak::RecordStore::FromDatabase(in.db);
      fed.SetChangeFeed(&feed);
      std::vector<std::shared_ptr<infoleak::inc::LeakageIndex>> live;
      for (const auto& c : core) {
        auto index = std::make_shared<infoleak::inc::LeakageIndex>(
            in.refs[c->op.ref], c->weights, &EngineFor(c->op), &feed,
            index_options,
            [store = &fed](infoleak::inc::LeakageIndex& idx) {
              return store->MaintainIndex(idx);
            });
        if (auto built = fed.SetLeakIndexed(*index); !built.ok()) {
          fed.SetChangeFeed(nullptr);
          feed.Shutdown();
          return built.status();
        }
        feed.Register(index);
        live.push_back(index);
      }
      for (const infoleak::Record& r : records) {
        const Clock::time_point t0 = Clock::now();
        fed.Append(r);
        const Clock::time_point t1 = Clock::now();
        spans->Add("store.append.with_feed", 0, ++request, t0, t1);
        feed_us.push_back(Us(t0, t1));
      }
      fed.SetChangeFeed(nullptr);
      feed.Shutdown();
    }
    const std::string dir = input.work_dir + "/replay-durable";
    {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
      std::filesystem::create_directories(dir, ec);
      infoleak::persist::DurableStore::Options options;
      options.fsync = kServedFsync;  // Sync() below is the only fsync
      auto durable = infoleak::persist::DurableStore::Open(dir, options);
      if (!durable.ok()) return durable.status();
      const uint64_t offset0 = (*durable)->wal_offset();
      for (const infoleak::Record& r : records) {
        const uint64_t req = ++request;
        const Clock::time_point t0 = Clock::now();
        auto appended = (*durable)->Append(r);
        const Clock::time_point t1 = Clock::now();
        Status synced = (*durable)->Sync();
        const Clock::time_point t2 = Clock::now();
        spans->Add("persist.durable_store.append", 0, req, t0, t1);
        spans->Add("persist.durable_store.sync", 0, req, t1, t2);
        if (!appended.ok() || !synced.ok()) {
          return Status::Internal("replay durable append/sync failed");
        }
        durable_us.push_back(Us(t0, t1));
        sync_ms.push_back(Us(t1, t2) / 1e3);
      }
      const uint64_t offset1 = (*durable)->wal_offset();
      add("persist.wal.bytes_per_record",
          static_cast<double>(offset1 - offset0) /
              static_cast<double>(records.size()),
          "bytes", records.size());
      durable->reset();
      std::filesystem::remove_all(dir, ec);
    }
    const double append_us = Median(plain_us);
    add("store.append_us", append_us, "us", plain_us.size());
    add("inc.feed.publish_us", Median(feed_us) - append_us, "us",
        feed_us.size());
    add("persist.durable.append_us", Median(durable_us) - append_us, "us",
        durable_us.size());
    LatencySummary sync = Summarize(&sync_ms);
    add("persist.wal.sync_ms.p50", sync.p50, "ms", sync.n);
    add("persist.wal.sync_ms.p99", sync.p99, "ms", sync.n);
  }
  return out;
}

}  // namespace perfbench

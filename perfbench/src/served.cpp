#include "served.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <latch>
#include <map>
#include <mutex>
#include <thread>

#include "core/leakage.h"
#include "core/record_io.h"
#include "svc/json.h"

namespace perfbench {

using infoleak::Result;
using infoleak::Status;
namespace svc = infoleak::svc;

namespace {

constexpr const char* kOkMarker = "\"ok\":true";
constexpr std::size_t kSampleEvery = 16;        // per-connection sampling
constexpr std::size_t kMaxSamplesPerConn = 256;
constexpr std::size_t kCheckedKeys = 16;  // distinct (ref, weighted) checked
constexpr int kTailPollMs = 200;
// Sample capacity reserved per verb and reader.
constexpr std::size_t kReservedSamples = std::size_t{1} << 22;

double Millis(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Warm-up requests per connection: enough for caches to fill and the
/// index to serve, counted (not timed) so set-up time measures real work.
std::size_t WarmOps(Kind kind) { return kind == Kind::kColdRefs ? 32 : 500; }

/// Stream numbers: measured windows use [window·64, window·64 + 64), the
/// warm-up uses 1000+.
constexpr std::size_t kWarmStream = 1000;

std::string_view FieldText(const std::string& response, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const std::size_t at = response.find(needle);
  if (at == std::string::npos) return {};
  const std::size_t begin = at + needle.size();
  std::size_t end = begin;
  while (end < response.size() && response[end] != ',' &&
         response[end] != '}') {
    ++end;
  }
  return std::string_view(response).substr(begin, end - begin);
}

double NumberField(const svc::JsonValue& v, std::string_view key) {
  const svc::JsonValue* f = v.Find(key);
  return f != nullptr && f->is_number() ? f->as_number() : 0.0;
}

struct Expected {
  double leakage = 0.0;
  std::ptrdiff_t argmax = -1;
};

/// Running (max, first argmax) over every prefix of per-record leakages:
/// prefix[k] is the set-leak answer over the first k records.
std::vector<Expected> PrefixAnswers(const std::vector<double>& values) {
  std::vector<Expected> prefix(values.size() + 1);
  for (std::size_t i = 0; i < values.size(); ++i) {
    prefix[i + 1] = prefix[i];
    if (prefix[i].argmax < 0 || values[i] > prefix[i].leakage) {
      prefix[i + 1].leakage = values[i];
      prefix[i + 1].argmax = static_cast<std::ptrdiff_t>(i);
    }
  }
  return prefix;
}

/// Adds the CPU time the calling thread uses during its lifetime to `*total`.
class ThreadCpuTally {
 public:
  ThreadCpuTally(std::mutex* mu, double* total)
      : mu_(mu), total_(total), since_(ThreadCpuSeconds()) {}
  ~ThreadCpuTally() {
    const double used = ThreadCpuSeconds() - since_;
    std::lock_guard<std::mutex> lock(*mu_);
    *total_ += used;
  }
  ThreadCpuTally(const ThreadCpuTally&) = delete;
  ThreadCpuTally& operator=(const ThreadCpuTally&) = delete;

 private:
  std::mutex* mu_;
  double* total_;
  double since_;
};

void Problem(CheckResult* check, std::string text) {
  ++check->mismatches;
  if (check->problems.size() < 5) check->problems.push_back(std::move(text));
}

}  // namespace

Fixture::~Fixture() {
  if (server_ != nullptr) (void)server_->Stop();
  server_.reset();
  durable_.reset();
  if (!data_dir_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(data_dir_, ec);
  }
}

Result<std::unique_ptr<Fixture>> Fixture::SetUp(Kind kind, uint64_t seed,
                                                const LoadShape& shape,
                                                const std::string& data_dir) {
  std::unique_ptr<Fixture> fx(new Fixture());
  fx->shape_ = shape;
  auto in = MakeInputs(kind, seed);
  if (!in.ok()) return in.status();
  fx->in_ = std::move(in).value();
  const Inputs& inputs = fx->in_;

  svc::ServerConfig server_config;
  server_config.port = 0;
  server_config.workers = shape.workers;
  if (kind == Kind::kIngestMix) {
    std::error_code ec;
    std::filesystem::remove_all(data_dir, ec);
    std::filesystem::create_directories(data_dir, ec);
    if (ec) return Status::Internal("cannot create " + data_dir);
    fx->data_dir_ = data_dir;
    infoleak::persist::DurableStore::Options options;
    options.fsync = kServedFsync;
    auto durable = infoleak::persist::DurableStore::Open(data_dir, options);
    if (!durable.ok()) return durable.status();
    fx->durable_ = std::move(durable).value();
    for (const infoleak::Record& r : inputs.db) {
      auto appended = fx->durable_->Append(r);
      if (!appended.ok()) return appended.status();
    }
    fx->server_ = std::make_unique<svc::LoopbackServer>(fx->durable_.get(),
                                                        server_config);
  } else {
    fx->server_ = std::make_unique<svc::LoopbackServer>(
        infoleak::RecordStore::FromDatabase(inputs.db), server_config);
  }
  for (std::size_t r = 0; r < inputs.refs.size(); ++r) {
    Op op;
    op.ref = r;
    fx->set_leak_line_.push_back(RequestLine(inputs, op));
    if (kind == Kind::kColdRefs) {
      op.weighted = true;
      fx->weighted_set_leak_line_.push_back(RequestLine(inputs, op));
    }
  }
  if (Status s = fx->server_->Start(); !s.ok()) return s;
  if (Status s = fx->WarmUp(); !s.ok()) return s;
  return fx;
}

const std::string& Fixture::Line(const Op& op, std::string* buffer) const {
  if (op.verb == Verb::kSetLeak) {
    return op.weighted ? weighted_set_leak_line_[op.ref]
                       : set_leak_line_[op.ref];
  }
  *buffer = RequestLine(in_, op);
  return *buffer;
}

Status Fixture::WarmUp() {
  // The index serves only once its background build has covered the store:
  // poll each index-served reference until an answer comes off the index.
  std::vector<std::size_t> index_refs;
  if (in_.kind == Kind::kHotIndex) index_refs.push_back(0);
  if (in_.kind == Kind::kIngestMix) index_refs = in_.hot;
  {
    auto client = server_->NewClient();
    if (!client.ok()) return client.status();
    for (std::size_t ref : index_refs) {
      const Clock::time_point give_up = Clock::now() + std::chrono::seconds(30);
      while (true) {
        auto response = client->CallRaw(set_leak_line_[ref]);
        if (!response.ok()) return response.status();
        if (response->find(kOkMarker) == std::string::npos) {
          return Status::Internal("warm-up set-leak failed: " + *response);
        }
        if (response->find("\"path\":\"index\"") != std::string::npos) break;
        if (Clock::now() > give_up) {
          return Status::DeadlineExceeded("index never became ready");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }
  const std::size_t readers =
      in_.kind == Kind::kIngestMix
          ? std::max<std::size_t>(1, shape_.connections - 1)
          : shape_.connections;
  std::vector<Status> status(readers);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < readers; ++c) {
    threads.emplace_back([&, c] {
      auto client = server_->NewClient();
      if (!client.ok()) {
        status[c] = client.status();
        return;
      }
      OpStream stream(in_, kWarmStream + c);
      std::string line_buffer;
      for (std::size_t i = 0; i < WarmOps(in_.kind); ++i) {
        auto response = client->CallRaw(Line(stream.Next(), &line_buffer));
        if (!response.ok()) {
          status[c] = response.status();
          return;
        }
        if (response->find(kOkMarker) == std::string::npos) {
          status[c] = Status::Internal("warm-up request failed: " + *response);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Status& s : status) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

WindowResult RunWindow(Fixture& fx, double seconds, bool traced, int window) {
  const Inputs& in = fx.inputs();
  const bool ingest = in.kind == Kind::kIngestMix;
  const std::size_t readers =
      ingest ? std::max<std::size_t>(1, fx.shape().connections - 1)
             : fx.shape().connections;

  std::vector<std::string> append_line;
  std::vector<std::string> append_text;
  if (ingest) {
    const auto due = static_cast<std::size_t>(std::ceil(seconds * kAppendRate));
    for (std::size_t i = 0; i < due; ++i) {
      Op op;
      op.verb = Verb::kAppend;
      op.record_text = infoleak::FormatRecord(
          AppendRecord(in, static_cast<std::size_t>(window) * 1000000 + i));
      append_line.push_back(RequestLine(in, op));
      append_text.push_back(std::move(op.record_text));
    }
  }

  struct ReaderOut {
    std::array<VerbCounts, kNumVerbs> verbs;
    std::vector<SampledResponse> samples;
    std::vector<Span> spans;
    std::vector<double> catchup;
    Clock::time_point last_done;
  };
  std::vector<ReaderOut> outs(readers);
  WindowResult result;

  const std::size_t threads_total =
      readers + (ingest ? 1 : 0) + (traced ? 1 : 0);
  std::latch connected(static_cast<std::ptrdiff_t>(threads_total));
  std::latch gate(1);
  std::mutex client_cpu_mu;
  Clock::time_point start;
  Clock::time_point end;
  std::vector<std::thread> threads;

  for (std::size_t c = 0; c < readers; ++c) {
    threads.emplace_back([&, c] {
      ReaderOut& out = outs[c];
      auto client = fx.server().NewClient();
      connected.count_down();
      gate.wait();
      ThreadCpuTally tally(&client_cpu_mu, &result.client_cpu_s);
      out.last_done = start;
      if (!client.ok()) {
        ++out.verbs[0].attempted;
        ++out.verbs[0].failed;
        return;
      }
      // Reserve (address space only) past any plausible sample count, so
      // the samples never reallocate and the process's peak RSS grows with
      // the samples actually taken, not with vector doubling.
      for (VerbCounts& v : out.verbs) {
        v.latency_ms.reserve(kReservedSamples);
        v.done_s.reserve(kReservedSamples);
      }
      OpStream stream(in, static_cast<std::size_t>(window) * 64 + c);
      SpanLog spans(start, uint64_t{c + 1} << 40);
      std::string line_buffer;
      double last_records = -1;
      for (uint64_t i = 0;; ++i) {
        if (Clock::now() >= end) break;
        Op op = stream.Next();
        const std::string& line = fx.Line(op, &line_buffer);
        const Clock::time_point t0 = Clock::now();
        auto response = client->CallRaw(line);
        const Clock::time_point t1 = Clock::now();
        out.last_done = t1;
        VerbCounts& v = out.verbs[static_cast<int>(op.verb)];
        ++v.attempted;
        const bool ok =
            response.ok() && response->find(kOkMarker) != std::string::npos;
        if (!ok) {
          ++v.failed;
          if (!response.ok()) {
            auto again = fx.server().NewClient();
            if (!again.ok()) break;
            *client = std::move(again).value();
          }
          continue;
        }
        ++v.ok;
        v.latency_ms.push_back(Millis(t0, t1));
        v.done_s.push_back(Seconds(start, t1));
        if (i % kSampleEvery == 0 && out.samples.size() < kMaxSamplesPerConn) {
          out.samples.push_back({op, *response});
        }
        if (traced) {
          spans.Add("svc.client.call_raw", 0, (uint64_t{c} << 40) | i, t0, t1);
          if (op.verb == Verb::kSetLeak) {
            const double records = std::strtod(
                std::string(FieldText(*response, "records")).c_str(), nullptr);
            if (last_records >= 0) {
              out.catchup.push_back(records - last_records);
            }
            last_records = records;
          }
        }
      }
      out.spans = spans.spans();
    });
  }

  if (ingest) {
    threads.emplace_back([&] {
      auto client = fx.server().NewClient();
      connected.count_down();
      gate.wait();
      ThreadCpuTally tally(&client_cpu_mu, &result.client_cpu_s);
      VerbCounts& v = result.verbs[static_cast<int>(Verb::kAppend)];
      if (!client.ok()) {
        ++v.attempted;
        ++v.failed;
        return;
      }
      for (std::size_t i = 0; i < append_line.size(); ++i) {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            DueSeconds(i, kAppendRate)));
        if (due >= end) break;
        std::this_thread::sleep_until(due);
        const Clock::time_point sent = Clock::now();
        auto response = client->CallRaw(append_line[i]);
        const Clock::time_point acked = Clock::now();
        ++v.attempted;
        ++result.appends_due;
        if (!response.ok() ||
            response->find(kOkMarker) == std::string::npos) {
          ++v.failed;
          continue;
        }
        ++v.ok;
        result.open_loop.push_back(
            {Seconds(start, due), Seconds(start, sent), Seconds(start, acked)});
        const double id = std::strtod(
            std::string(FieldText(*response, "appended")).c_str(), nullptr);
        result.acked.emplace_back(static_cast<uint64_t>(id), append_text[i]);
      }
    });
  }

  if (traced) {
    threads.emplace_back([&] {
      auto client = fx.server().NewClient();
      double cursor = 0;
      if (client.ok()) {
        // Start the cursor at the newest event so earlier traffic is skipped.
        auto newest = client->CallRaw(R"({"verb":"tail","count":1})");
        if (newest.ok()) {
          auto parsed = svc::ParseJson(*newest);
          if (parsed.ok()) {
            if (const svc::JsonValue* ev = parsed->Find("events");
                ev != nullptr && !ev->items().empty()) {
              cursor = NumberField(ev->items().back(), "id");
            }
          }
        }
      }
      connected.count_down();
      gate.wait();
      ThreadCpuTally tally(&client_cpu_mu, &result.client_cpu_s);
      if (!client.ok()) return;
      while (Clock::now() < end) {
        std::this_thread::sleep_for(std::chrono::milliseconds(kTailPollMs));
        auto response = client->CallRaw(
            R"({"verb":"tail","count":1000,"after_id":)" +
            svc::JsonNumber(cursor) + "}");
        if (!response.ok()) return;
        auto parsed = svc::ParseJson(*response);
        if (!parsed.ok()) continue;
        const svc::JsonValue* events = parsed->Find("events");
        if (events == nullptr) continue;
        for (const svc::JsonValue& e : events->items()) {
          cursor = std::max(cursor, NumberField(e, "id"));
          const std::string verb = e.GetString("verb");
          if (verb != "set-leak" && verb != "leak" && verb != "append") {
            continue;
          }
          const svc::JsonValue* phases = e.Find("phases");
          result.queue_us.push_back(
              phases != nullptr ? NumberField(*phases, "queue") : 0.0);
        }
      }
    });
  }

  connected.wait();
  const double process_cpu0 = ProcessCpuSeconds();
  start = Clock::now();
  end = start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
  gate.count_down();
  for (std::thread& t : threads) t.join();
  result.process_cpu_s = ProcessCpuSeconds() - process_cpu0;

  Clock::time_point last = end;
  for (ReaderOut& out : outs) {
    last = std::max(last, out.last_done);
    for (int v = 0; v < kNumVerbs; ++v) {
      VerbCounts& dst = result.verbs[v];
      const VerbCounts& src = out.verbs[v];
      dst.attempted += src.attempted;
      dst.ok += src.ok;
      dst.failed += src.failed;
      dst.latency_ms.insert(dst.latency_ms.end(), src.latency_ms.begin(),
                            src.latency_ms.end());
      dst.done_s.insert(dst.done_s.end(), src.done_s.begin(), src.done_s.end());
    }
    result.samples.insert(result.samples.end(), out.samples.begin(),
                          out.samples.end());
    result.spans.insert(result.spans.end(), out.spans.begin(), out.spans.end());
    result.catchup_records.insert(result.catchup_records.end(),
                                  out.catchup.begin(), out.catchup.end());
  }
  if (!result.open_loop.empty()) {
    last = std::max(last, start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(
                                          result.open_loop.back().acked_s)));
  }
  OpenLoopReport report = AccountOpenLoop(result.open_loop);
  VerbCounts& appends = result.verbs[static_cast<int>(Verb::kAppend)];
  appends.latency_ms = std::move(report.latency_ms);
  for (const OpenLoopSample& s : result.open_loop) {
    appends.done_s.push_back(s.acked_s);
  }
  result.start = start;
  result.planned_seconds = seconds;
  result.seconds = Seconds(start, last);
  for (const VerbCounts& v : result.verbs) result.completed += v.ok;
  result.throughput_rps =
      static_cast<double>(result.completed) / result.seconds;
  return result;
}

Result<ServiceStats> FetchStats(Fixture& fx) {
  auto client = fx.server().NewClient();
  if (!client.ok()) return client.status();
  auto response = client->CallRaw(R"({"verb":"stats"})");
  if (!response.ok()) return response.status();
  auto parsed = svc::ParseJson(*response);
  if (!parsed.ok()) return parsed.status();
  ServiceStats s;
  s.records = NumberField(*parsed, "records");
  s.cached_references = NumberField(*parsed, "cached_references");
  s.wal_offset = NumberField(*parsed, "wal_offset");
  s.fsync = parsed->GetString("fsync", "none");
  if (const svc::JsonValue* index = parsed->Find("index"); index != nullptr) {
    s.index_hits = NumberField(*index, "hits");
    s.index_fallbacks = NumberField(*index, "fallbacks");
    s.index_bound_skips = NumberField(*index, "bound_skips");
    s.index_registered = NumberField(*index, "registered");
    s.index_appends = NumberField(*index, "appends");
  }
  if (const svc::JsonValue* build = parsed->Find("build"); build != nullptr) {
    s.simd = build->GetString("simd");
  }
  return s;
}

CheckResult CheckWindow(Fixture& fx, const WindowResult& window) {
  const Inputs& in = fx.inputs();
  CheckResult check;

  // Served answers, parsed back from the wire (numbers render with
  // round-trip digits, so equality here is bit equality).
  auto served = [&](const std::string& response, Expected* got) -> bool {
    auto parsed = svc::ParseJson(response);
    if (!parsed.ok() || !parsed->GetBool("ok", false)) return false;
    got->leakage = NumberField(*parsed, "leakage");
    got->argmax = static_cast<std::ptrdiff_t>(
        parsed->Find("argmax") != nullptr ? NumberField(*parsed, "argmax")
                                          : -1);
    return true;
  };
  auto set_leak_key = [](const Op& op) {
    return op.ref * 2 + (op.weighted ? 1 : 0);
  };

  if (in.kind != Kind::kIngestMix) {
    // Static store: one library answer per (reference, weights).
    std::map<std::size_t, Expected> expected;
    auto expect = [&](const Op& op) -> const Expected* {
      const std::size_t key = set_leak_key(op);
      auto it = expected.find(key);
      if (it != expected.end()) return &it->second;
      if (expected.size() >= kCheckedKeys) return nullptr;
      Expected e;
      auto l = infoleak::SetLeakageArgMax(in.db, in.refs[op.ref],
                                          WeightsFor(in, op), EngineFor(op),
                                          &e.argmax);
      if (!l.ok()) {
        Problem(&check, "library set-leak failed: " + l.status().ToString());
        return nullptr;
      }
      e.leakage = *l;
      return &expected.emplace(key, e).first->second;
    };
    for (const SampledResponse& s : window.samples) {
      Expected got;
      if (!served(s.response, &got)) {
        Problem(&check, "unparseable response: " + s.response.substr(0, 120));
        continue;
      }
      if (s.op.verb == Verb::kSetLeak) {
        const Expected* want = expect(s.op);
        if (want == nullptr) continue;
        ++check.checked;
        if (got.leakage != want->leakage || got.argmax != want->argmax) {
          Problem(&check, "set-leak mismatch: " + s.response.substr(0, 120));
        }
      } else if (s.op.verb == Verb::kLeak) {
        auto want = EngineFor(s.op).RecordLeakage(in.db[s.op.record_id],
                                                  in.refs[s.op.ref],
                                                  WeightsFor(in, s.op));
        ++check.checked;
        if (!want.ok() || got.leakage != *want) {
          Problem(&check, "leak mismatch: " + s.response.substr(0, 120));
        }
      }
    }
    // Final quiescent state: ask again for every checked key.
    auto client = fx.server().NewClient();
    if (!client.ok()) {
      Problem(&check, "connect: " + client.status().ToString());
      return check;
    }
    for (const auto& [key, want] : expected) {
      Op op;
      op.ref = key / 2;
      op.weighted = key % 2 == 1;
      std::string line_buffer;
      auto response = client->CallRaw(fx.Line(op, &line_buffer));
      Expected got;
      ++check.checked;
      if (!response.ok() || !served(*response, &got) ||
          got.leakage != want.leakage || got.argmax != want.argmax) {
        Problem(&check, "quiescent set-leak mismatch for reference " +
                            std::to_string(op.ref));
      }
    }
    return check;
  }

  // ingest-mix: the store grew during the window. Every acknowledged append
  // must read back as the record sent ...
  infoleak::RecordStore& store = fx.store();
  for (const auto& [id, text] : window.acked) {
    ++check.checked;
    auto stored = store.Get(static_cast<infoleak::RecordId>(id));
    auto sent = infoleak::ParseRecord(text);
    if (!stored.ok() || !sent.ok() || !(*stored == *sent)) {
      Problem(&check,
              "acked append " + std::to_string(id) + " reads back wrong");
    }
  }
  // ... and every sampled answer must equal the library answer over some
  // prefix of the final store that the response's `records` count allows
  // (the count is read just after the answer, so a concurrent append can
  // make it run ahead by a few records).
  const infoleak::Database db = store.SnapshotDatabase();
  std::vector<const infoleak::Record*> rows;
  for (const infoleak::Record& r : db) rows.push_back(&r);
  std::map<std::size_t, std::vector<Expected>> prefix;
  for (std::size_t ref : in.hot) {
    Op op;
    op.ref = ref;
    auto values = infoleak::BatchLeakage(rows, in.refs[ref], WeightsFor(in, op),
                                         EngineFor(op));
    if (!values.ok()) {
      Problem(&check, "library batch failed: " + values.status().ToString());
      return check;
    }
    prefix[ref] = PrefixAnswers(*values);
    // Cross-check the prefix table against the set-leak library call.
    Expected full;
    auto l = infoleak::SetLeakageArgMax(db, in.refs[ref], WeightsFor(in, op),
                                        EngineFor(op), &full.argmax);
    ++check.checked;
    if (!l.ok() || *l != prefix[ref].back().leakage ||
        full.argmax != prefix[ref].back().argmax) {
      Problem(&check, "library prefix table disagrees with SetLeakageArgMax");
    }
  }
  for (const SampledResponse& s : window.samples) {
    if (s.op.verb != Verb::kSetLeak) continue;
    Expected got;
    ++check.checked;
    if (!served(s.response, &got)) {
      Problem(&check, "unparseable response: " + s.response.substr(0, 120));
      continue;
    }
    const auto records = static_cast<std::size_t>(
        std::strtod(std::string(FieldText(s.response, "records")).c_str(),
                    nullptr));
    const std::vector<Expected>& table = prefix[s.op.ref];
    bool matched = false;
    for (std::size_t n = std::min(records, table.size() - 1) + 1;
         n-- > (records > 64 ? records - 64 : 0);) {
      if (table[n].leakage == got.leakage && table[n].argmax == got.argmax) {
        matched = true;
        break;
      }
    }
    if (!matched) {
      Problem(&check, "set-leak matches no store prefix: " +
                          s.response.substr(0, 120));
    }
  }
  auto client = fx.server().NewClient();
  if (!client.ok()) {
    Problem(&check, "connect: " + client.status().ToString());
    return check;
  }
  for (std::size_t ref : in.hot) {
    Op op;
    op.ref = ref;
    std::string line_buffer;
    auto response = client->CallRaw(fx.Line(op, &line_buffer));
    Expected got;
    ++check.checked;
    const Expected& want = prefix[ref].back();
    if (!response.ok() || !served(*response, &got) ||
        got.leakage != want.leakage || got.argmax != want.argmax) {
      Problem(&check, "quiescent set-leak mismatch for reference " +
                          std::to_string(ref));
    }
  }
  return check;
}

}  // namespace perfbench

// The repository benchmark: drives the leakage query service end to end
// over loopback TCP on three seeded workloads, checks every answer against
// the in-process library, and prints every figure by name and unit. The
// last line of standard output is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// carrying the end-to-end metrics (--trace 0) or the per-layer metrics of
// the traced run and the layered replay (--trace 1).
//
//   perfbench --workload hot-index|cold-refs|ingest-mix --seed N
//             --seconds S --trace 0|1 --work-dir DIR [--out DIR]

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "replay.h"
#include "report.h"
#include "served.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {
namespace {

using infoleak::Status;

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string work_dir = ".perfbench-work";
  std::string out_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else if (key == "--out") {
      args->out_dir = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return false;
    }
  }
  if (argc % 2 != 1 || args->workload.empty() || args->seconds <= 0 ||
      (args->trace != 0 && args->trace != 1)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] [--out DIR]\n");
    return false;
  }
  return true;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string SliceText(const SlicedValue& v) {
  std::string text = "median of " + std::to_string(v.slices) + " slices";
  if (v.per_slice.empty()) return text;
  text += " [";
  for (std::size_t i = 0; i < v.per_slice.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.4g", i == 0 ? "" : " ",
                  v.per_slice[i]);
    text += buf;
  }
  return text + "]";
}

/// End-to-end figures of one window. Percentiles follow the reporting rule
/// (at least ten samples beyond); an unsupported one is reported as such.
void AddEndToEnd(Report& report, const std::string& phase, Kind kind,
                 WindowResult& w, double setup_s, double peak_rss_mb,
                 uint64_t failed, uint64_t attempted) {
  report.Add(phase, {"setup_s", setup_s, "s", kSetups});
  std::vector<double> done;
  for (const VerbCounts& v : w.verbs) {
    done.insert(done.end(), v.done_s.begin(), v.done_s.end());
  }
  const SlicedValue rate = SlicedRate(done, w.planned_seconds);
  report.Add(phase, {"throughput_rps", rate.value, "req/s", rate.n});
  report.Note(phase + " throughput_rps: whole window " +
              std::to_string(w.throughput_rps) + " req/s; " + SliceText(rate));
  auto latency = [&](Verb verb, const std::string& prefix) {
    const VerbCounts& v = w.verbs[static_cast<int>(verb)];
    for (double q : {0.5, 0.99}) {
      const std::string name = prefix + (q == 0.5 ? ".p50_ms" : ".p99_ms");
      if (!PercentileSupported(v.latency_ms.size(), q)) {
        const std::size_t n = v.latency_ms.size();
        report.Note(phase + " " + name + " unsupported: n=" +
                    std::to_string(n) + ", highest supported percentile " +
                    std::to_string(HighestSupportedPercentile(n)));
        continue;
      }
      const SlicedValue s =
          SlicedPercentile(v.done_s, v.latency_ms, w.planned_seconds, q);
      report.Add(phase, {name, s.value, "ms", s.n});
      report.Note(phase + " " + name + ": " + SliceText(s));
    }
  };
  latency(Verb::kSetLeak, "set_leak");
  if (kind == Kind::kHotIndex) latency(Verb::kLeak, "leak");
  if (kind == Kind::kIngestMix) {
    latency(Verb::kAppend, "append");
    OpenLoopReport open = AccountOpenLoop(w.open_loop);
    LatencySummary late = Summarize(&open.lateness_ms);
    report.Add(phase, {"append.lateness.p50_ms", late.p50, "ms", late.n});
    report.Add(phase,
               {"append.lateness.max_ms", open.max_lateness_ms, "ms", late.n});
    report.Add(phase, {"append.rate_per_s", kAppendRate, "1/s", w.appends_due});
  }
  // CPU time per completed request: the server's is the process's CPU time
  // over the window less that of the benchmark's own client threads. The
  // scheduler clock leaves out time the host steals, so on a shared host
  // these repeat where wall-clock latency does not.
  const double completed =
      static_cast<double>(std::max<uint64_t>(1, w.completed));
  report.Add(phase, {"server_cpu_us_per_req",
                     (w.process_cpu_s - w.client_cpu_s) * 1e6 / completed,
                     "us", w.completed});
  report.Add(phase, {"client_cpu_us_per_req", w.client_cpu_s * 1e6 / completed,
                     "us", w.completed});
  report.Add(phase, {"peak_rss_mb", peak_rss_mb, "MiB", 1});
  report.Add(phase, {"failed_frac",
                     attempted == 0 ? 1.0
                                    : static_cast<double>(failed) /
                                          static_cast<double>(attempted),
                     "ratio", attempted});
  for (int v = 0; v < kNumVerbs; ++v) {
    const VerbCounts& c = w.verbs[v];
    if (c.attempted == 0) continue;
    report.Note(phase + " verb " + std::string(VerbName(static_cast<Verb>(v))) +
                " attempted=" + std::to_string(c.attempted) +
                " ok=" + std::to_string(c.ok) +
                " failed=" + std::to_string(c.failed));
  }
}

int Main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "perfbench: refusing to measure a non-Release build "
               "(assertions are on); configure with "
               "-DCMAKE_BUILD_TYPE=Release\n");
  return 2;
#endif
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  auto kind = ParseKind(args.workload);
  if (!kind.ok()) {
    std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
    return 2;
  }
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  LoadShape shape;
  shape.connections = nproc;
  shape.workers = nproc;
  Report report(args.workload);
  const std::string data_dir = args.work_dir + "/durable";

  // Set up several times and keep the last fixture: setup_s is the median.
  std::vector<double> setups;
  std::unique_ptr<Fixture> fx;
  for (int k = 0; k < kSetups; ++k) {
    // Tear the previous set-up down and hand its freed heap back to the OS,
    // so each set-up starts from a process as close to fresh as possible.
    fx.reset();
    malloc_trim(0);
    const Clock::time_point t0 = Clock::now();
    auto made = Fixture::SetUp(*kind, args.seed, shape, data_dir);
    if (!made.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   made.status().ToString().c_str());
      return 1;
    }
    setups.push_back(Seconds(t0, Clock::now()));
    fx = std::move(made).value();
  }
  const double setup_s = Median(setups);

  auto stats_before = FetchStats(*fx);
  if (!stats_before.ok()) {
    std::fprintf(stderr, "stats: %s\n",
                 stats_before.status().ToString().c_str());
    return 1;
  }
  // Provenance: everything needed to reproduce or compare this result.
  {
    char line[1024];
    std::snprintf(
        line, sizeof(line),
        "provenance {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
        "\"trace\":%d,\"nproc\":%zu,\"connections\":%zu,\"workers\":%zu,"
        "\"kernel\":\"%s\",\"build_type\":\"Release\",\"compiler\":\"%s\","
        "\"fsync\":\"%s\",\"records\":%zu,"
        "\"references\":%zu,\"attributes\":%zu,\"append_rate_per_s\":%g,"
        "\"setups\":%d}",
        args.workload.c_str(), static_cast<unsigned long long>(args.seed),
        args.seconds, args.trace, nproc, shape.connections, shape.workers,
        stats_before->simd.c_str(), JsonEscape(__VERSION__).c_str(),
        stats_before->fsync.c_str(),
        fx->inputs().db.size(), fx->inputs().refs.size(), kAttributes,
        *kind == Kind::kIngestMix ? kAppendRate : 0.0, kSetups);
    report.Note(line);
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  auto account = [&](const WindowResult& w, const CheckResult& check) {
    for (const VerbCounts& v : w.verbs) {
      attempted += v.attempted;
      failed += v.failed;
    }
    attempted += check.checked;
    failed += check.mismatches;
    for (const std::string& p : check.problems) report.Note("MISMATCH " + p);
  };

  // The untraced window gives the end-to-end metrics. A traced run splits
  // its time between an untraced and a traced window of the same traffic,
  // so their difference is the tracing overhead.
  const double window_s = args.trace == 1 ? args.seconds / 2 : args.seconds;
  WindowResult plain = RunWindow(*fx, window_s, /*traced=*/false, 0);
  const double peak_rss_mb = PeakRssMb();
  if (auto after = FetchStats(*fx); after.ok()) {
    const ServiceStats& b = *stats_before;
    report.Note(
        "stats untraced-window: index hits=" +
        std::to_string(after->index_hits - b.index_hits) +
        " fallbacks=" +
        std::to_string(after->index_fallbacks - b.index_fallbacks) +
        " bound_skips=" +
        std::to_string(after->index_bound_skips - b.index_bound_skips) +
        " appends=" + std::to_string(after->index_appends - b.index_appends) +
        " registered=" + std::to_string(after->index_registered) +
        " cached_references=" + std::to_string(after->cached_references));
  }
  CheckResult plain_check = CheckWindow(*fx, plain);
  account(plain, plain_check);
  report.Note("checks untraced: checked=" +
              std::to_string(plain_check.checked) +
              " mismatches=" + std::to_string(plain_check.mismatches));
  uint64_t plain_failed = 0;
  uint64_t plain_attempted = 0;
  for (const VerbCounts& v : plain.verbs) {
    plain_failed += v.failed;
    plain_attempted += v.attempted;
  }
  Report untraced(args.workload);
  AddEndToEnd(untraced, "untraced", *kind, plain, setup_s, peak_rss_mb,
              plain_failed + plain_check.mismatches,
              plain_attempted + plain_check.checked);

  std::vector<Metric> result_metrics;
  // The gated end-to-end metrics (BENCHMARK.json). Wall-clock figures
  // (throughput_rps, the p50s and p99s) are printed above but not gated: on
  // a shared 4-vCPU host, time stolen by other guests moved whole runs and
  // they did not repeat within a tenth across runs (see CHANGES.md).
  const std::vector<std::string> end_to_end = {
      "setup_s", "server_cpu_us_per_req", "peak_rss_mb"};

  if (args.trace == 0) {
    for (const std::string& name : end_to_end) {
      const Metric* m = untraced.Find(name);
      if (m == nullptr) {
        std::fprintf(stderr, "metric %s could not be reported\n", name.c_str());
        return 1;
      }
      result_metrics.push_back(*m);
    }
  } else {
    // The traced run: the same traffic with client spans and server `tail`
    // polling, then the layered replay on the quiescent system.
    auto before = FetchStats(*fx);
    WindowResult traced = RunWindow(*fx, window_s, /*traced=*/true, 1);
    auto after = FetchStats(*fx);
    CheckResult traced_check = CheckWindow(*fx, traced);
    account(traced, traced_check);
    report.Note("checks traced: checked=" +
                std::to_string(traced_check.checked) +
                " mismatches=" + std::to_string(traced_check.mismatches));
    Report traced_e2e(args.workload);
    uint64_t t_failed = traced_check.mismatches;
    uint64_t t_attempted = traced_check.checked;
    for (const VerbCounts& v : traced.verbs) {
      t_failed += v.failed;
      t_attempted += v.attempted;
    }
    AddEndToEnd(traced_e2e, "traced", *kind, traced, setup_s, PeakRssMb(),
                t_failed, t_attempted);
    // Tracing overhead: traced minus untraced, per end-to-end metric.
    for (const Metric& m : traced_e2e.metrics()) {
      const Metric* base = untraced.Find(m.name);
      if (base != nullptr && m.name != "setup_s") {
        report.Add("overhead", {m.name, m.value - base->value, m.unit, m.n});
      }
    }
    if (!before.ok() || !after.ok()) {
      std::fprintf(stderr, "stats failed\n");
      return 1;
    }
    ReplayInput input;
    input.stats_before = *before;
    input.stats_after = *after;
    input.traced = &traced;
    if (const Metric* t = traced_e2e.Find("set_leak.p50_ms"),
        *u = untraced.Find("set_leak.p50_ms");
        t != nullptr && u != nullptr) {
      input.tracing_overhead_us = (t->value - u->value) * 1000.0;
    }
    input.work_dir = args.work_dir;
    SpanLog spans(traced.start);
    auto layers = LayeredReplay(*fx, input, &spans, &report);
    if (!layers.ok()) {
      std::fprintf(stderr, "layered replay failed: %s\n",
                   layers.status().ToString().c_str());
      return 1;
    }
    attempted += layers->checked;
    failed += layers->mismatches;
    for (const Metric& m : layers->metrics) {
      report.Add("layer", m);
      result_metrics.push_back(m);
    }
    if (!args.out_dir.empty()) {
      std::filesystem::create_directories(args.out_dir);
      std::ofstream out(args.out_dir + "/spans-" + args.workload + "-" +
                        std::to_string(args.seed) + ".jsonl");
      out << SpansJsonl(args.workload, traced.spans)
          << SpansJsonl(args.workload, spans.spans());
    }
  }
  fx.reset();

  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < result_metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", result_metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + result_metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" +
            result_metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

// Tests of the benchmark's own machinery: the percentile reporting rule,
// open-loop due-time accounting, seeded request generation, and the exact
// repeatability of the layered replay's counts.

#include <chrono>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "replay.h"
#include "served.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {
namespace {

TEST(PercentileRule, NeedsTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_TRUE(PercentileSupported(1000, 0.99));
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_FALSE(PercentileSupported(999, 0.99));
  EXPECT_EQ(SamplesBeyond(0, 0.5), 0u);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(100), 0.9);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(200), 0.95);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(1000), 0.99);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(10000), 0.999);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(19), 0.0);
}

TEST(PercentileRule, NearestRankAndSampleCount) {
  std::vector<double> values;
  for (int i = 1000; i >= 1; --i) values.push_back(i);  // unsorted on purpose
  LatencySummary s = Summarize(&values);
  EXPECT_EQ(s.n, 1000u);
  EXPECT_DOUBLE_EQ(s.p50, 500.0);
  EXPECT_DOUBLE_EQ(s.p99, 990.0);
  EXPECT_TRUE(s.p99_supported);
  std::vector<double> few{3, 1, 2};
  LatencySummary f = Summarize(&few);
  EXPECT_EQ(f.n, 3u);
  EXPECT_DOUBLE_EQ(f.p50, 2.0);
  EXPECT_FALSE(f.p99_supported);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
}

TEST(OpenLoop, LatencyCountsFromDueTime) {
  // 200/s: sends due at 0, 5 and 10 ms. The first ack stalls until 20 ms,
  // so the second goes out 15 ms late; its latency counts that wait.
  EXPECT_DOUBLE_EQ(DueSeconds(2, 200.0), 0.010);
  std::vector<OpenLoopSample> samples = {
      {0.000, 0.000, 0.020},
      {0.005, 0.020, 0.021},
      {0.010, 0.021, 0.022},
  };
  OpenLoopReport r = AccountOpenLoop(samples);
  ASSERT_EQ(r.latency_ms.size(), 3u);
  EXPECT_NEAR(r.latency_ms[0], 20.0, 1e-9);
  EXPECT_NEAR(r.latency_ms[1], 16.0, 1e-9);
  EXPECT_NEAR(r.latency_ms[2], 12.0, 1e-9);
  EXPECT_NEAR(r.lateness_ms[0], 0.0, 1e-9);
  EXPECT_NEAR(r.lateness_ms[1], 15.0, 1e-9);
  EXPECT_NEAR(r.lateness_ms[2], 11.0, 1e-9);
  EXPECT_NEAR(r.max_lateness_ms, 15.0, 1e-9);
}

TEST(OpenLoop, EarlySendIsNotNegativeLateness) {
  OpenLoopReport r = AccountOpenLoop({{0.010, 0.009, 0.012}});
  EXPECT_DOUBLE_EQ(r.lateness_ms[0], 0.0);
  EXPECT_NEAR(r.latency_ms[0], 2.0, 1e-9);
}

TEST(CpuClocks, SleepCostsNoCpuAndWorkDoes) {
  const double process0 = ProcessCpuSeconds();
  const double thread0 = ThreadCpuSeconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_LT(ThreadCpuSeconds() - thread0, 0.025);
  volatile double sink = 0;
  const double busy0 = ThreadCpuSeconds();
  while (ThreadCpuSeconds() - busy0 < 0.02) sink = sink + 1;
  EXPECT_GE(ThreadCpuSeconds() - thread0, 0.02);
  // The process clock covers this thread and every other.
  EXPECT_GE(ProcessCpuSeconds() - process0, ThreadCpuSeconds() - thread0);
}

TEST(Generation, ZipfIsNormalizedAndDecreasing) {
  ZipfSampler zipf(kPeople, kZipfExponent);
  double total = 0;
  for (std::size_t k = 0; k < kPeople; ++k) total += zipf.Probability(k);
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_GT(zipf.Probability(0), zipf.Probability(1));
  EXPECT_GT(zipf.Probability(1), zipf.Probability(kPeople - 1));
}

std::vector<std::pair<std::size_t, bool>> Draws(const Inputs& in,
                                                std::size_t conn, int n) {
  OpStream stream(in, conn);
  std::vector<std::pair<std::size_t, bool>> out;
  for (int i = 0; i < n; ++i) {
    Op op = stream.Next();
    out.emplace_back(op.ref, op.weighted);
  }
  return out;
}

TEST(Generation, ColdRefsDrawsArePureFunctionsOfTheSeed) {
  auto a = MakeInputs(Kind::kColdRefs, 7);
  auto b = MakeInputs(Kind::kColdRefs, 7);
  auto c = MakeInputs(Kind::kColdRefs, 8);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(a->db.size(), kRecords);
  EXPECT_EQ(a->refs.size(), kPeople);
  EXPECT_EQ(a->ref_text, b->ref_text);
  EXPECT_EQ(a->weight_spec, b->weight_spec);
  EXPECT_NE(a->ref_text, c->ref_text);

  const auto da = Draws(*a, 0, 20000);
  EXPECT_EQ(da, Draws(*b, 0, 20000));
  EXPECT_NE(da, Draws(*a, 1, 20000));
  EXPECT_NE(da, Draws(*c, 0, 20000));

  // The weighted share is a seeded quarter; the popular people are many
  // more than the 64-entry reference cache holds.
  std::size_t weighted = 0;
  std::map<std::size_t, int> people;
  for (const auto& [ref, w] : da) {
    weighted += w ? 1 : 0;
    ++people[ref];
  }
  EXPECT_NEAR(static_cast<double>(weighted) / da.size(), kWeightedShare, 0.02);
  EXPECT_GT(people.size(), 300u);
  // Weighted requests carry a parseable spec and name the Taylor engine.
  Op op;
  op.ref = 3;
  op.weighted = true;
  const std::string line = RequestLine(*a, op);
  EXPECT_NE(line.find("\"engine\":\"approx\""), std::string::npos);
  EXPECT_TRUE(infoleak::WeightModel::Parse(a->weight_spec[3]).ok());
}

TEST(Generation, HotIndexMixIsThreeToOne) {
  auto in = MakeInputs(Kind::kHotIndex, 3);
  ASSERT_TRUE(in.ok());
  OpStream stream(*in, 0);
  int leak = 0;
  for (int i = 0; i < 400; ++i) leak += stream.Next().verb == Verb::kLeak;
  EXPECT_EQ(leak, 100);
}

TEST(Generation, AppendRecordsAreSeeded) {
  auto in = MakeInputs(Kind::kIngestMix, 5);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(in->hot.size(), kHotRefs);
  EXPECT_TRUE(AppendRecord(*in, 17) == AppendRecord(*in, 17));
  EXPECT_FALSE(AppendRecord(*in, 17) == AppendRecord(*in, 18));
}

/// Runs one short traced window and the layered replay on a fresh fixture.
std::map<std::string, double> ReplayCounts(Kind kind, uint64_t seed) {
  const std::string work = "perfbench-test-work";
  LoadShape shape;
  shape.connections = 2;
  shape.workers = 2;
  auto fx = Fixture::SetUp(kind, seed, shape, work + "/durable");
  EXPECT_TRUE(fx.ok()) << fx.status().ToString();
  if (!fx.ok()) return {};
  auto before = FetchStats(**fx);
  WindowResult traced = RunWindow(**fx, 0.3, /*traced=*/true, 1);
  auto after = FetchStats(**fx);
  EXPECT_TRUE(before.ok() && after.ok());
  CheckResult check = CheckWindow(**fx, traced);
  EXPECT_EQ(check.mismatches, 0u);
  ReplayInput input;
  input.stats_before = *before;
  input.stats_after = *after;
  input.traced = &traced;
  input.work_dir = work;
  SpanLog spans(traced.start);
  Report report("test");
  auto result = LayeredReplay(**fx, input, &spans, &report);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return {};
  EXPECT_EQ(result->mismatches, 0u);
  EXPECT_GT(spans.spans().size(), 0u);
  std::map<std::string, double> counts;
  for (const Metric& m : result->metrics) {
    if (m.name == "core.kernels.calls" || m.name == "store.records_scanned" ||
        m.name == "persist.wal.bytes_per_record") {
      counts[m.name] = m.value;
    }
  }
  fx->reset();
  std::filesystem::remove_all(work);
  return counts;
}

TEST(LayeredReplay, CountsRepeatExactly) {
  for (Kind kind : {Kind::kHotIndex, Kind::kIngestMix}) {
    const auto first = ReplayCounts(kind, 11);
    const auto second = ReplayCounts(kind, 11);
    ASSERT_EQ(first.size(), 3u) << KindName(kind);
    EXPECT_EQ(first, second) << KindName(kind);
    EXPECT_GT(first.at("core.kernels.calls"), 0);
    EXPECT_EQ(first.at("store.records_scanned"),
              static_cast<double>(kRecords) *
                  (kind == Kind::kHotIndex ? 1 : kHotRefs));
  }
}

}  // namespace
}  // namespace perfbench

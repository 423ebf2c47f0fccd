// Posting-driven catch-up equivalence: a cold LeakageIndex that walks only
// the records on its reference's posting lists (accounting every other
// record as an exact zero) must end in exactly the state record-by-record
// maintenance reaches — answer, argmax, events, counters and errors — and
// both must equal a cold columnar scan.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/column_bank.h"
#include "core/database.h"
#include "core/leakage.h"
#include "core/record_io.h"
#include "inc/change_feed.h"
#include "inc/leakage_index.h"
#include "obs/metrics.h"
#include "store/record_store.h"
#include "util/rng.h"

namespace infoleak::inc {
namespace {

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

WeightModel Weights(const std::string& spec) {
  auto wm = WeightModel::Parse(spec);
  EXPECT_TRUE(wm.ok()) << wm.status().ToString();
  return std::move(wm).value();
}

Record Rec(const std::string& text) {
  auto r = ParseRecord(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

const char* const kLabels[] = {"N", "C", "P", "E"};

/// The reference: person 0, one value per label.
Record Reference() {
  return Rec("{<N, n0, 1>, <C, c0, 1>, <P, p0, 0.75>, <E, e0, 1>}");
}

/// How a seeded store is drawn.
struct Shape {
  const char* name;
  std::size_t records;
  /// Share of records describing person 0 (the reference) once
  /// `late_start` records have been drawn; none do before it.
  double match_rate;
  std::size_t late_start;
  /// Share of records that are empty.
  double empty_rate;
  /// Share of records carrying an extra NaN-confidence attribute.
  double nan_rate;
};

/// Person-specific values over the reference's labels (plus one label it
/// lacks), each present with probability 0.7 and a confidence drawn from
/// {0, 0.25, 0.5, 1} — so person 0 contributes zero-confidence matches too.
Database SeededStore(const Shape& shape, uint64_t seed) {
  Rng rng(seed);
  Database db;
  const double confs[] = {0.0, 0.25, 0.5, 1.0};
  for (std::size_t i = 0; i < shape.records; ++i) {
    Record r;
    if (rng.Uniform(0.0, 1.0) < shape.empty_rate) {
      db.Add(std::move(r));
      continue;
    }
    const bool is_p =
        i >= shape.late_start && rng.Uniform(0.0, 1.0) < shape.match_rate;
    const std::size_t person = is_p ? 0 : 1 + rng.NextBounded(400);
    for (const char* label : kLabels) {
      if (rng.NextBounded(10) >= 7) continue;
      // Person 0 sometimes carries a stranger's value: a partial match.
      const std::size_t who =
          is_p && rng.NextBounded(4) == 0 ? 1 + rng.NextBounded(400) : person;
      const std::string value =
          std::string(1, static_cast<char>(label[0] + 32)) +
          std::to_string(who);
      r.Insert(Attribute(label, value, confs[rng.NextBounded(4)]));
    }
    r.Insert(Attribute("X", "x" + std::to_string(rng.NextBounded(50)),
                       confs[rng.NextBounded(4)]));
    if (rng.Uniform(0.0, 1.0) < shape.nan_rate) {
      r.Insert(Attribute("Q", "q" + std::to_string(i),
                         std::numeric_limits<double>::quiet_NaN()));
    }
    db.Add(std::move(r));
  }
  return db;
}

/// Every observable of two indexes: stats, the whole event ring (every
/// field, doubles bit for bit) and the ring's counters.
void ExpectSameIndex(const LeakageIndex& got, const LeakageIndex& want,
                     const std::string& what) {
  const IndexStats g = got.Stats();
  const IndexStats w = want.Stats();
  EXPECT_EQ(g.epoch, w.epoch) << what;
  EXPECT_EQ(g.covered, w.covered) << what;
  EXPECT_EQ(g.poisoned, w.poisoned) << what;
  EXPECT_EQ(g.poison_detail, w.poison_detail) << what;
  EXPECT_EQ(g.applied, w.applied) << what;
  EXPECT_EQ(g.bound_skips, w.bound_skips) << what;
  EXPECT_EQ(g.events_dropped, w.events_dropped) << what;
  EXPECT_EQ(Bits(g.best), Bits(w.best)) << what;
  EXPECT_EQ(g.best_index, w.best_index) << what;

  const std::size_t all = std::numeric_limits<std::size_t>::max();
  const LeakageIndex::EventBatch ge = got.EventsAfter(0, all);
  const LeakageIndex::EventBatch we = want.EventsAfter(0, all);
  EXPECT_EQ(ge.epoch, we.epoch) << what;
  EXPECT_EQ(ge.covered, we.covered) << what;
  EXPECT_EQ(ge.dropped, we.dropped) << what;
  ASSERT_EQ(ge.events.size(), we.events.size()) << what;
  for (std::size_t k = 0; k < ge.events.size(); ++k) {
    const DeltaEvent& a = ge.events[k];
    const DeltaEvent& b = we.events[k];
    const std::string at = what + " event " + std::to_string(k);
    EXPECT_EQ(a.seq, b.seq) << at;
    EXPECT_EQ(a.epoch, b.epoch) << at;
    EXPECT_EQ(a.record_id, b.record_id) << at;
    EXPECT_EQ(Bits(a.leakage), Bits(b.leakage)) << at;
    EXPECT_EQ(a.skipped, b.skipped) << at;
    EXPECT_EQ(Bits(a.set_leakage), Bits(b.set_leakage)) << at;
    EXPECT_EQ(a.argmax, b.argmax) << at;
  }
}

/// A cold scan of the store's records: the answer both indexes owe.
Result<double> ColdScan(const RecordStore& store, const Record& p,
                        const WeightModel& wm, const LeakageEngine& engine,
                        std::ptrdiff_t* argmax) {
  const PreparedReference prep(p, wm);
  const ColumnBank bank = ColumnBank::FromDatabase(store.database(), prep);
  ColumnScanOptions options;
  options.num_threads = 1;
  return SetLeakageColumnar(bank, engine, argmax, options);
}

void ExpectSameAnswer(const Result<IndexAnswer>& got,
                      const Result<double>& want, std::ptrdiff_t want_argmax,
                      const std::string& what) {
  ASSERT_EQ(got.ok(), want.ok())
      << what << ": " << (got.ok() ? want.status() : got.status()).ToString();
  if (!got.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << what;
    EXPECT_EQ(got.status().message(), want.status().message()) << what;
    return;
  }
  EXPECT_EQ(Bits(got->leakage), Bits(*want)) << what;
  EXPECT_EQ(got->argmax, want_argmax) << what;
}

/// Drives one case: `fed` is maintained record by record through the change
/// feed from the first append; `cold` sees no deltas and catches up from
/// the store's posting lists on its queries — once before the store has
/// interned any of p's values, once mid-way, once at the end. Then both
/// receive a tail of appends through the feed, whose bound skips depend on
/// the top-k each one retained.
void RunCase(const Database& db, std::size_t late_start, const Record& p,
             const WeightModel& wm, const LeakageEngine& engine,
             const IndexOptions& options, const std::string& what) {
  RecordStore store;
  ChangeFeed feed;
  store.SetChangeFeed(&feed);
  auto fed = std::make_shared<LeakageIndex>(p, wm, &engine, &feed, options);
  auto cold = std::make_shared<LeakageIndex>(p, wm, &engine, &feed, options);
  feed.Register(fed);

  const std::size_t body = db.size() - db.size() / 8;
  const std::size_t stops[] = {late_start, body * 3 / 4};
  for (std::size_t i = 0; i < body; ++i) {
    for (const std::size_t stop : stops) {
      if (i == stop) (void)store.SetLeakIndexed(*cold);
    }
    store.Append(db[i]);
  }
  auto got = store.SetLeakIndexed(*cold);
  auto want = store.SetLeakIndexed(*fed);
  ASSERT_EQ(got.ok(), want.ok()) << what;
  std::ptrdiff_t scan_argmax = -1;
  auto scan = ColdScan(store, p, wm, engine, &scan_argmax);
  ExpectSameAnswer(got, scan, scan_argmax, what + " (cold)");
  ExpectSameAnswer(want, scan, scan_argmax, what + " (fed)");
  ExpectSameIndex(*cold, *fed, what + " after catch-up");

  feed.Register(cold);
  for (std::size_t i = body; i < db.size(); ++i) store.Append(db[i]);
  got = store.SetLeakIndexed(*cold);
  scan = ColdScan(store, p, wm, engine, &scan_argmax);
  ExpectSameAnswer(got, scan, scan_argmax, what + " (tail)");
  ExpectSameIndex(*cold, *fed, what + " after tail");
  store.SetChangeFeed(nullptr);
  feed.Shutdown();
}

TEST(IncCatchupTest, PostingDrivenCatchupEqualsRecordByRecordMaintenance) {
  const Shape shapes[] = {
      // One person among hundreds: almost every record matches nothing.
      {"population", 1200, 0.03, 400, 0.0, 0.0},
      // Every record describes p's person.
      {"single-reference", 200, 1.0, 0, 0.0, 0.0},
      // Empty records and NaN-confidence rows among the zeros.
      {"empty+nan", 600, 0.1, 150, 0.1, 0.03},
  };
  const char* const weight_specs[] = {
      "",                                       // unit weights
      "N=2,C=1,P=3,E=0.5,X=1.5",                // skewed (auto picks naive)
      "N=0,C=0,P=0,E=0",                        // W(p) = 0
      "N=0,C=2",                                // some zero weights
      "N=1e308,C=1e308,P=1e308,E=1e308,X=1e308" // sums overflow to inf
  };
  struct Variant {
    const char* name;
    IndexOptions options;
  };
  std::vector<Variant> variants;
  variants.push_back({"default", IndexOptions{}});
  IndexOptions o;
  o.top_k = 1;
  variants.push_back({"top_k=1", o});
  o = IndexOptions{};
  o.top_k = 5000;  // larger than any store here
  variants.push_back({"top_k>|R|", o});
  o = IndexOptions{};
  o.bound_skip = false;
  variants.push_back({"no-skip", o});
  o = IndexOptions{};
  o.event_capacity = 3;
  variants.push_back({"ring=3", o});
  o = IndexOptions{};
  o.event_capacity = 0;
  o.top_k = 2;
  variants.push_back({"ring=0,top_k=2", o});

  AutoLeakage auto_engine;
  ApproxLeakage approx2(2);
  ApproxLeakage approx1(1);
  const LeakageEngine* engines[] = {&auto_engine, &approx2, &approx1};
  const Record p = Reference();
  uint64_t seed = 1;
  for (const Shape& shape : shapes) {
    const Database db = SeededStore(shape, seed++);
    for (const char* spec : weight_specs) {
      const WeightModel wm = Weights(spec);
      for (const Variant& v : variants) {
        for (const LeakageEngine* engine : engines) {
          const std::string what = std::string(shape.name) + " weights=\"" +
                                   spec + "\" " + v.name + " " +
                                   std::string(engine->name());
          RunCase(db, shape.late_start, p, wm, *engine, v.options, what);
        }
      }
    }
  }
}

/// NaN confidences fail naive enumeration even on records that match
/// nothing; auto picks naive for small records under non-uniform weights,
/// so the cold catch-up must still visit those rows and fail where the
/// scan does.
TEST(IncCatchupTest, NanConfidenceRowFailsWhereTheScanFails) {
  const Record p = Reference();
  const WeightModel wm = Weights("N=2,C=1,P=3,E=0.5");
  Database db;
  for (int i = 0; i < 50; ++i) db.Add(Rec("{<N, n7, 1>, <C, c7, 0.5>}"));
  db.Add(Rec("{<N, n0, 1>, <C, c0, 1>}"));
  Record bad = Rec("{<N, n9, 1>}");
  bad.Insert(Attribute("Q", "q", std::numeric_limits<double>::quiet_NaN()));
  db.Add(std::move(bad));
  for (int i = 0; i < 50; ++i) db.Add(Rec("{<N, n0, 0.5>}"));
  const RecordStore store = RecordStore::FromDatabase(db);
  AutoLeakage engine;
  LeakageIndex index(p, wm, &engine, nullptr);
  auto got = store.SetLeakIndexed(index);
  std::ptrdiff_t argmax = -1;
  auto scan = ColdScan(store, p, wm, engine, &argmax);
  ASSERT_FALSE(scan.ok());
  ExpectSameAnswer(got, scan, argmax, "nan row");
  EXPECT_EQ(index.Stats().covered, 52u);  // poisoned on record 51
}

/// naive and exact have structural errors that can arise on a record
/// matching nothing, so they walk every id and still fail at the scan's
/// first error — the same id the record-by-record walk stops at.
TEST(IncCatchupTest, StructuralErrorEnginesFailAtTheScansFirstErrorId) {
  const Record p = Reference();
  struct Case {
    const char* name;
    std::unique_ptr<LeakageEngine> engine;
    WeightModel wm;
    Record failing;  // matches nothing in p
  };
  std::vector<Case> cases;
  cases.push_back({"naive cap", std::make_unique<NaiveLeakage>(2), Weights(""),
                   Rec("{<X, a, 1>, <Y, b, 1>, <Z, c, 1>}")});
  cases.push_back({"exact weights", std::make_unique<ExactLeakage>(),
                   Weights("X=2"), Rec("{<X, a, 1>}")});
  for (const Case& c : cases) {
    Database db;
    for (int i = 0; i < 40; ++i) db.Add(Rec("{<N, n0, 0.5>}"));
    for (int i = 0; i < 30; ++i) db.Add(Rec("{<N, n3, 1>}"));
    db.Add(c.failing);
    for (int i = 0; i < 20; ++i) db.Add(Rec("{<N, n0, 1>, <C, c0, 1>}"));
    RecordStore store;
    ChangeFeed feed;
    store.SetChangeFeed(&feed);
    auto fed = std::make_shared<LeakageIndex>(p, c.wm, c.engine.get(), &feed);
    feed.Register(fed);
    for (const Record& r : db) store.Append(r);
    LeakageIndex cold(p, c.wm, c.engine.get(), nullptr);
    auto got = store.SetLeakIndexed(cold);
    std::ptrdiff_t argmax = -1;
    auto scan = ColdScan(store, p, c.wm, *c.engine, &argmax);
    ASSERT_FALSE(scan.ok()) << c.name;
    ExpectSameAnswer(got, scan, argmax, c.name);
    EXPECT_EQ(cold.Stats().covered, 71u) << c.name;  // failed on record 70
    ExpectSameIndex(cold, *fed, c.name);
    store.SetChangeFeed(nullptr);
    feed.Shutdown();
  }
}

TEST(IncCatchupTest, CancelledCatchupThenCompletedGivesTheColdScanAnswer) {
  const Shape shape{"population", 4000, 0.2, 0, 0.0, 0.0};
  const Database db = SeededStore(shape, 99);
  const Record p = Reference();
  const WeightModel wm = Weights("N=2,C=1,P=3,E=0.5,X=1.5");
  ApproxLeakage engine;
  RecordStore store;
  ChangeFeed feed;
  store.SetChangeFeed(&feed);
  auto fed = std::make_shared<LeakageIndex>(p, wm, &engine, &feed);
  feed.Register(fed);
  for (const Record& r : db) store.Append(r);

  LeakageIndex cold(p, wm, &engine, nullptr);
  int polls = 0;
  auto cancelled =
      store.SetLeakIndexed(cold, [&polls] { return ++polls > 3; });
  ASSERT_FALSE(cancelled.ok());
  EXPECT_TRUE(cancelled.status().IsDeadlineExceeded());
  const std::size_t partial = cold.Stats().covered;
  EXPECT_GT(partial, 0u);
  EXPECT_LT(partial, db.size());

  auto got = store.SetLeakIndexed(cold);
  std::ptrdiff_t argmax = -1;
  auto scan = ColdScan(store, p, wm, engine, &argmax);
  ASSERT_TRUE(scan.ok());
  ExpectSameAnswer(got, scan, argmax, "after cancel");
  ExpectSameIndex(cold, *fed, "after cancel");
  store.SetChangeFeed(nullptr);
  feed.Shutdown();
}

/// The point of the posting-driven walk: with the skip off, a cold catch-up
/// evaluates exactly the records that share a pair with p.
TEST(IncCatchupTest, ColdCatchupEvaluatesOnlyRecordsSharingAPair) {
  const Shape shape{"population", 3000, 0.01, 8, 0.0, 0.0};
  const Database db = SeededStore(shape, 7);
  const RecordStore store = RecordStore::FromDatabase(db);
  const Record p = Reference();
  std::size_t sharing = 0;
  for (std::size_t i = 0; i < db.size(); ++i) {
    bool shares = false;
    for (const Attribute& b : p) {
      shares = shares || db[i].Find(b.label, b.value) != nullptr;
    }
    if (shares) ++sharing;
  }
  ASSERT_GT(sharing, 0u);
  ASSERT_LT(sharing, db.size() / 10);

  IndexOptions options;
  options.bound_skip = false;
  ApproxLeakage engine;
  LeakageIndex index(p, Weights(""), &engine, nullptr, options);
  obs::Counter& path = obs::MetricsRegistry::Global().GetCounter(
      "infoleak_eval_path_total", {{"path", "columnar"}});
  const uint64_t before = path.Value();
  ASSERT_TRUE(store.SetLeakIndexed(index).ok());
  EXPECT_EQ(path.Value() - before, sharing);
  EXPECT_EQ(index.Stats().covered, db.size());
  EXPECT_EQ(index.Stats().applied, db.size());
}

}  // namespace
}  // namespace infoleak::inc

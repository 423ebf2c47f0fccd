#include "inc/leakage_index.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/column_bank.h"
#include "core/database.h"
#include "core/leakage.h"
#include "core/measure_family.h"
#include "core/record_io.h"
#include "inc/change_feed.h"
#include "obs/metrics.h"
#include "store/record_store.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace infoleak::inc {
namespace {

Record Rec(const std::string& text) {
  auto r = ParseRecord(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

WeightModel Weights(const std::string& spec = "") {
  auto wm = WeightModel::Parse(spec);
  EXPECT_TRUE(wm.ok()) << wm.status().ToString();
  return std::move(wm).value();
}

/// A deterministic database with a spread of leakage values against the
/// reference below: some full matches, partial matches, and misses.
Database SeededDb(std::size_t n, uint64_t seed = 42) {
  Rng rng(seed);
  Database db;
  for (std::size_t i = 0; i < n; ++i) {
    const int shape = static_cast<int>(rng.NextBounded(4));
    const double conf = 0.25 + 0.25 * static_cast<double>(rng.NextBounded(4));
    std::string text;
    switch (shape) {
      case 0:
        text = "{<N, alice, " + FormatDoubleRoundTrip(conf) + ">}";
        break;
      case 1:
        text = "{<N, alice, 1>, <C, rome, " + FormatDoubleRoundTrip(conf) +
               ">}";
        break;
      case 2:
        text = "{<N, bob" + std::to_string(rng.NextBounded(8)) + ", 1>}";
        break;
      default:
        text = "{<N, alice, 1>, <C, rome, 1>, <P, 123, " +
               FormatDoubleRoundTrip(conf) + ">}";
        break;
    }
    db.Add(Rec(text));
  }
  return db;
}

const char* kReference = "{<N, alice, 1>, <C, rome, 1>, <P, 123, 1>}";

/// Index answers must be bit-identical to a cold columnar scan of the same
/// records, whichever engine maintains them.
TEST(IncIndexTest, QueryMatchesColdRescanBitExactly) {
  const Database db = SeededDb(200);
  const RecordStore store = RecordStore::FromDatabase(db);
  const Record p = Rec(kReference);
  AutoLeakage auto_engine;
  ExactLeakage exact_engine;
  ApproxLeakage approx_engine;
  const LeakageEngine* engines[] = {&auto_engine, &exact_engine,
                                    &approx_engine};
  for (const LeakageEngine* engine : engines) {
    // exact only accepts uniform weights; the others get a skewed model so
    // the comparison covers weighted arithmetic too.
    const WeightModel wm =
        engine == &exact_engine ? Weights() : Weights("N=2,C=1,P=3");
    const PreparedReference prep(p, wm);
    ColumnBank bank(prep);
    bank.ExtendFrom(db);
    std::ptrdiff_t want_argmax = -1;
    auto want = SetLeakageColumnar(bank, *engine, &want_argmax);
    ASSERT_TRUE(want.ok()) << engine->name();

    LeakageIndex index(p, wm, engine, /*feed=*/nullptr);
    auto got = index.QueryLocked(store.rows(), store.index());
    ASSERT_TRUE(got.ok()) << engine->name() << ": " << got.status().ToString();
    EXPECT_EQ(got->leakage, *want) << engine->name();  // exact, not near
    EXPECT_EQ(got->argmax, want_argmax) << engine->name();
    EXPECT_EQ(got->records, db.size());
  }
}

/// The measure-family engines (core/measure_family.h) maintain indexes too:
/// per measure, the indexed answer must be bit-identical to a cold columnar
/// scan under the same engine — and never a stale default-measure value.
TEST(IncIndexTest, MeasureEngineQueriesMatchColdRescanBitExactly) {
  const Database db = SeededDb(200);
  const RecordStore store = RecordStore::FromDatabase(db);
  const Record p = Rec(kReference);
  const WeightModel wm = Weights("N=2,C=1,P=3");
  for (Measure m : {Measure::kPml, Measure::kGuesswork, Measure::kUnder,
                    Measure::kOver}) {
    const LeakageEngine* engine = MeasureEngineSingleton(m);
    ASSERT_NE(engine, nullptr);
    const PreparedReference prep(p, wm);
    ColumnBank bank(prep);
    bank.ExtendFrom(db);
    std::ptrdiff_t want_argmax = -1;
    auto want = SetLeakageColumnar(bank, *engine, &want_argmax);
    ASSERT_TRUE(want.ok()) << engine->name();

    LeakageIndex index(p, wm, engine, /*feed=*/nullptr);
    auto got = index.QueryLocked(store.rows(), store.index());
    ASSERT_TRUE(got.ok()) << engine->name() << ": " << got.status().ToString();
    EXPECT_EQ(got->leakage, *want) << engine->name();  // exact, not near
    EXPECT_EQ(got->argmax, want_argmax) << engine->name();
    EXPECT_EQ(got->records, db.size());
  }
}

/// Guards the engine-identity keying: an index maintained under pml must
/// not answer with the default measure's value. Every record here keeps a
/// partial confidence, so the world maximum strictly exceeds the
/// expectation and any cross-contamination shows up as a value mismatch.
TEST(IncIndexTest, MeasureIndexNeverServesStaleDefaultAnswers) {
  Database db;
  db.Add(Rec("{<N, alice, 0.5>, <C, rome, 0.5>}"));
  db.Add(Rec("{<N, alice, 0.75>, <P, 123, 0.25>}"));
  db.Add(Rec("{<C, rome, 0.5>}"));
  const RecordStore store = RecordStore::FromDatabase(db);
  const Record p = Rec(kReference);
  const WeightModel wm = Weights();
  AutoLeakage auto_engine;
  LeakageIndex default_index(p, wm, &auto_engine, nullptr);
  LeakageIndex pml_index(p, wm, MeasureEngineSingleton(Measure::kPml),
                         nullptr);
  auto expected =
      default_index.QueryLocked(store.rows(), store.index());
  auto pml = pml_index.QueryLocked(store.rows(), store.index());
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(pml.ok());
  EXPECT_NE(pml->leakage, expected->leakage)
      << "pml index returned the default measure's answer";
  EXPECT_GE(pml->leakage, expected->leakage);  // family ordering on the max
}

/// Record-at-a-time maintenance under a measure engine lands on the same
/// bits as the one-shot catch-up — the append path has no measure-specific
/// code, and this keeps it that way.
TEST(IncIndexTest, MeasureEngineAppendsMatchOneShotCatchup) {
  const Database db = SeededDb(120, 7);
  const RecordStore store = RecordStore::FromDatabase(db);
  const Record p = Rec(kReference);
  const WeightModel wm = Weights();
  const LeakageEngine* engine = MeasureEngineSingleton(Measure::kGuesswork);

  LeakageIndex one_shot(p, wm, engine, nullptr);
  auto want = one_shot.QueryLocked(store.rows(), store.index());
  ASSERT_TRUE(want.ok());

  LeakageIndex stepped(p, wm, engine, nullptr);
  for (std::size_t i = 0; i < db.size(); ++i) {
    AppendDelta delta{static_cast<RecordId>(i), &store.rows(),
                      &store.index().symbols()};
    stepped.OnAppend(delta);
  }
  auto got = stepped.QueryLocked(store.rows(), store.index());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->leakage, want->leakage);
  EXPECT_EQ(got->argmax, want->argmax);
  EXPECT_EQ(stepped.Stats().covered, db.size());
}

TEST(IncIndexTest, IncrementalAppendsMatchOneShotCatchup) {
  // Record-at-a-time maintenance (the OnAppend path) must land on the same
  // bits as one big catch-up, and as the cold scan.
  const Database db = SeededDb(120, 7);
  const RecordStore store = RecordStore::FromDatabase(db);
  const Record p = Rec(kReference);
  const WeightModel wm = Weights();
  AutoLeakage engine;

  LeakageIndex one_shot(p, wm, &engine, nullptr);
  auto want = one_shot.QueryLocked(store.rows(), store.index());
  ASSERT_TRUE(want.ok());

  LeakageIndex stepped(p, wm, &engine, nullptr);
  for (std::size_t i = 0; i < db.size(); ++i) {
    AppendDelta delta{static_cast<RecordId>(i), &store.rows(),
                      &store.index().symbols()};
    stepped.OnAppend(delta);
  }
  // No gap left: a pure lookup.
  auto got = stepped.QueryLocked(store.rows(), store.index());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->leakage, want->leakage);
  EXPECT_EQ(got->argmax, want->argmax);
  EXPECT_EQ(stepped.Stats().covered, db.size());
}

TEST(IncIndexTest, OutOfOrderAppendIsIgnoredAndCatchupHeals) {
  const Database db = SeededDb(30, 3);
  const RecordStore store = RecordStore::FromDatabase(db);
  const Record p = Rec(kReference);
  const WeightModel wm = Weights();
  AutoLeakage engine;
  LeakageIndex index(p, wm, &engine, nullptr);

  // A delta from the future (id 5 while the index covers 0) must not apply:
  // applying it would mint a wrong record_id -> leakage association.
  AppendDelta future{static_cast<RecordId>(5), &store.rows(),
                     &store.index().symbols()};
  index.OnAppend(future);
  EXPECT_EQ(index.Stats().covered, 0u);

  auto got = index.QueryLocked(store.rows(), store.index());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->records, db.size());
}

TEST(IncIndexTest, BoundSkipFiresAndNeverChangesTheAnswer) {
  // Strong matches first, then a long tail of weak records: once the top-k
  // fills with strong values, the tail's upper bounds prove it can't enter.
  const Record p = Rec(kReference);
  const WeightModel wm = Weights();
  Database db;
  for (int i = 0; i < 8; ++i) {
    db.Add(Rec("{<N, alice, 1>, <C, rome, 1>, <P, 123, 1>}"));
  }
  for (int i = 0; i < 200; ++i) {
    db.Add(Rec("{<N, alice, 0.25>}"));  // weak: one low-confidence attr
  }
  const RecordStore store = RecordStore::FromDatabase(db);
  ApproxLeakage engine;
  IndexOptions options;
  options.top_k = 4;
  LeakageIndex index(p, wm, &engine, nullptr, options);
  auto got = index.QueryLocked(store.rows(), store.index());
  ASSERT_TRUE(got.ok());
  const IndexStats stats = index.Stats();
  EXPECT_GT(stats.bound_skips, 0u) << "the skip never fired";
  // Process-wide proof the counter is wired up.
  EXPECT_GT(obs::MetricsRegistry::Global()
                .GetCounter("infoleak_inc_bound_skips_total")
                .Value(),
            0u);

  const PreparedReference prep(p, wm);
  ColumnBank bank(prep);
  bank.ExtendFrom(db);
  std::ptrdiff_t want_argmax = -1;
  auto want = SetLeakageColumnar(bank, engine, &want_argmax);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(got->leakage, *want);
  EXPECT_EQ(got->argmax, want_argmax);
}

TEST(IncIndexTest, StructuralErrorEnginesNeverSkip) {
  // naive's record-size cap errors are invisible to the bounds, so the
  // index must evaluate every record (and poison on the first error) —
  // exactly what a cold scan would report.
  const Record p = Rec(kReference);
  const WeightModel wm = Weights();
  Database db;
  db.Add(Rec("{<N, alice, 1>}"));
  db.Add(Rec("{<N, alice, 1>, <C, rome, 1>, <P, 123, 1>}"));  // over the cap
  RecordStore store = RecordStore::FromDatabase(db);
  NaiveLeakage tiny(/*max_attributes=*/2);
  LeakageIndex index(p, wm, &tiny, nullptr);
  auto got = index.QueryLocked(store.rows(), store.index());
  ASSERT_FALSE(got.ok());

  const IndexStats stats = index.Stats();
  EXPECT_TRUE(stats.poisoned);
  EXPECT_FALSE(stats.poison_detail.empty());
  EXPECT_EQ(stats.bound_skips, 0u);

  // The poisoned query returns the cold scan's own first error.
  const PreparedReference prep(p, wm);
  ColumnBank bank(prep);
  bank.ExtendFrom(db);
  auto scan = SetLeakageColumnar(bank, tiny, nullptr);
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(got.status().code(), scan.status().code());
  EXPECT_EQ(got.status().message(), scan.status().message());

  // Poison is permanent until an epoch bump: later queries, even over a
  // longer store whose new record fails differently, return the same
  // first error — as the scan does.
  db.Add(Rec("{<N, alice, 1>, <C, rome, 1>, <P, 123, 1>, <Z, 9, 1>}"));
  store.Append(db[db.size() - 1]);
  bank.ExtendFrom(db);
  auto later = index.QueryLocked(store.rows(), store.index());
  auto later_scan = SetLeakageColumnar(bank, tiny, nullptr);
  ASSERT_FALSE(later.ok());
  ASSERT_FALSE(later_scan.ok());
  EXPECT_EQ(later.status().code(), later_scan.status().code());
  EXPECT_EQ(later.status().message(), later_scan.status().message());
  EXPECT_EQ(later.status().message(), scan.status().message());
}

TEST(IncIndexTest, EpochBumpResetsAndRebuildRestoresTheAnswer) {
  const Database db = SeededDb(60, 11);
  const RecordStore store = RecordStore::FromDatabase(db);
  const Record p = Rec(kReference);
  const WeightModel wm = Weights();
  AutoLeakage engine;
  LeakageIndex index(p, wm, &engine, nullptr);
  auto before = index.QueryLocked(store.rows(), store.index());
  ASSERT_TRUE(before.ok());

  index.OnEpochBump(3, "compact");
  IndexStats stats = index.Stats();
  EXPECT_EQ(stats.epoch, 3u);
  EXPECT_EQ(stats.covered, 0u);

  // Background-style rebuild in chunks, then a pure-lookup query.
  while (!index.MaintainChunkLocked(store.rows(), store.index())) {
  }
  auto after = index.QueryLocked(store.rows(), store.index());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->leakage, before->leakage);
  EXPECT_EQ(after->argmax, before->argmax);
  EXPECT_EQ(index.Stats().epoch, 3u);
}

TEST(IncIndexTest, TooFarBehindRefusesInlineCatchup) {
  const Database db = SeededDb(50, 5);
  const RecordStore store = RecordStore::FromDatabase(db);
  const Record p = Rec(kReference);
  const WeightModel wm = Weights();
  AutoLeakage engine;
  IndexOptions options;
  options.inline_catchup_max = 10;
  LeakageIndex index(p, wm, &engine, nullptr, options);
  auto got = index.QueryLocked(store.rows(), store.index());
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsFailedPrecondition());

  // Maintenance closes the gap; the query then succeeds as a lookup.
  while (!index.MaintainChunkLocked(store.rows(), store.index())) {
  }
  EXPECT_TRUE(index.QueryLocked(store.rows(), store.index()).ok());
}

TEST(IncIndexTest, EventsAfterHonorsCursorAndRingCapacity) {
  const Database db = SeededDb(40, 9);
  const RecordStore store = RecordStore::FromDatabase(db);
  const Record p = Rec(kReference);
  const WeightModel wm = Weights();
  AutoLeakage engine;
  IndexOptions options;
  options.event_capacity = 16;
  LeakageIndex index(p, wm, &engine, nullptr, options);
  ASSERT_TRUE(index.QueryLocked(store.rows(), store.index()).ok());

  // 40 applies into a 16-slot ring: the oldest 24 are gone, and the batch
  // reports how many.
  auto batch = index.EventsAfter(/*after_seq=*/0, /*max_events=*/100);
  EXPECT_EQ(batch.events.size(), 16u);
  EXPECT_EQ(batch.dropped, 24u);
  EXPECT_EQ(batch.covered, db.size());
  ASSERT_FALSE(batch.events.empty());
  EXPECT_EQ(batch.events.front().seq, 25u);  // seq is 1-based

  // Cursor semantics: strictly-after, oldest first, capped count.
  auto tail = index.EventsAfter(/*after_seq=*/30, /*max_events=*/4);
  ASSERT_EQ(tail.events.size(), 4u);
  EXPECT_EQ(tail.events.front().seq, 31u);
  EXPECT_EQ(tail.events.back().seq, 34u);
  // Sequences keep climbing across the ring: monotonic per index.
  uint64_t prev = 0;
  for (const DeltaEvent& e : batch.events) {
    EXPECT_GT(e.seq, prev);
    prev = e.seq;
  }
}

TEST(IncIndexTest, EventsCarryTheRunningSetLeakage) {
  const Record p = Rec(kReference);
  const WeightModel wm = Weights();
  Database db;
  db.Add(Rec("{<N, alice, 0.5>}"));
  db.Add(Rec("{<N, alice, 1>, <C, rome, 1>, <P, 123, 1>}"));
  db.Add(Rec("{<N, alice, 0.25>}"));
  const RecordStore store = RecordStore::FromDatabase(db);
  AutoLeakage engine;
  LeakageIndex index(p, wm, &engine, nullptr);
  ASSERT_TRUE(index.QueryLocked(store.rows(), store.index()).ok());
  auto batch = index.EventsAfter(0, 10);
  ASSERT_EQ(batch.events.size(), 3u);
  EXPECT_EQ(batch.events[0].argmax, 0);
  EXPECT_EQ(batch.events[1].argmax, 1);  // the full match takes over
  EXPECT_EQ(batch.events[2].argmax, 1);  // and keeps the crown
  EXPECT_EQ(batch.events[2].set_leakage, batch.events[1].set_leakage);
  EXPECT_GE(batch.events[1].leakage, batch.events[0].leakage);
}

// ----- Translation and memory ----------------------------------------------

/// Expects `translation` to resolve every row of `store` from `first` on to
/// exactly the columns AppendRecordColumns builds from the stored record.
void ExpectRowsMatchStringResolution(RowTranslation* translation,
                                     const RecordStore& store,
                                     const PreparedReference& prep,
                                     std::size_t first) {
  for (std::size_t i = first; i < store.rows().size(); ++i) {
    RecordColumns got;
    RecordColumns want;
    const RecordWeightSummary g = translation->AppendRow(
        store.rows(), i, store.index().symbols(), &got);
    const RecordWeightSummary w =
        AppendRecordColumns(store.database()[i], prep, &want);
    EXPECT_EQ(g.uniform, w.uniform) << "record " << i;
    EXPECT_EQ(g.common, w.common) << "record " << i;
    EXPECT_EQ(got.conf, want.conf) << "record " << i;
    EXPECT_EQ(got.weight, want.weight) << "record " << i;
    EXPECT_EQ(got.match_pos, want.match_pos) << "record " << i;
  }
}

TEST(IncTranslationTest, ResolvedColumnsEqualAppendRecordColumns) {
  // p carries a label the store never sees (Z) and a value the store interns
  // only after the translation exists (rome); records carry labels p lacks,
  // one with an explicit weight (X) and one without (Y).
  const Record p = Rec("{<N, alice, 1>, <C, rome, 1>, <Z, zed, 1>}");
  const WeightModel wm = Weights("N=2,C=0.5,X=3");
  const PreparedReference prep(p, wm);
  RecordStore store;
  store.Append(Rec("{<N, alice, 0.5>, <X, x1, 0.75>}"));
  store.Append(Rec("{<N, bob, 1>}"));
  RowTranslation translation(prep);
  ExpectRowsMatchStringResolution(&translation, store, prep, 0);

  store.Append(Rec("{<C, rome, 0.5>, <N, alice, 1>, <X, x2, 0.25>}"));
  store.Append(Rec("{<Y, y, 0.5>, <C, rome, 1>}"));
  store.Append(Rec("{<C, rome, 1>}"));
  ExpectRowsMatchStringResolution(&translation, store, prep, 2);
  // The late pair resolved: record 4 matches p's rome.
  RecordColumns row;
  translation.AppendRow(store.rows(), 4, store.index().symbols(), &row);
  ASSERT_EQ(row.match_pos.size(), 1u);
  EXPECT_NE(row.match_pos[0], PreparedReference::kNoMatch);

  // A seeded store, resolved by a fresh translation under weights that
  // differ per label.
  const Database db = SeededDb(300, 17);
  const RecordStore seeded = RecordStore::FromDatabase(db);
  const PreparedReference seeded_prep(Rec(kReference), wm);
  RowTranslation fresh(seeded_prep);
  ExpectRowsMatchStringResolution(&fresh, seeded, seeded_prep, 0);
}

TEST(IncIndexTest, ReferenceValueInternedAfterTheIndexExists) {
  // The index is built (and caught up) before the store has ever seen
  // rome; the records carrying it must still match p when they arrive,
  // through the feed and through inline catch-up alike.
  const Record p = Rec(kReference);
  const WeightModel wm = Weights("N=2,C=1,P=3");
  RecordStore store;
  ChangeFeed feed;
  store.SetChangeFeed(&feed);
  store.Append(Rec("{<N, alice, 0.5>}"));
  ApproxLeakage engine;
  auto fed = std::make_shared<LeakageIndex>(p, wm, &engine, &feed);
  feed.Register(fed);
  LeakageIndex lagging(p, wm, &engine, nullptr);
  ASSERT_TRUE(store.SetLeakIndexed(*fed).ok());
  ASSERT_TRUE(store.SetLeakIndexed(lagging).ok());

  store.Append(Rec("{<N, alice, 1>, <C, rome, 1>, <P, 123, 0.75>}"));
  store.Append(Rec("{<N, carol, 1>, <Q, q, 1>}"));
  auto got_fed = store.SetLeakIndexed(*fed);
  auto got_lagging = store.SetLeakIndexed(lagging);
  ASSERT_TRUE(got_fed.ok());
  ASSERT_TRUE(got_lagging.ok());

  const PreparedReference prep(p, wm);
  const ColumnBank bank = ColumnBank::FromDatabase(store.database(), prep);
  std::ptrdiff_t want_argmax = -1;
  auto want = SetLeakageColumnar(bank, engine, &want_argmax);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(want_argmax, 1);  // the late full match
  EXPECT_EQ(got_fed->leakage, *want);
  EXPECT_EQ(got_fed->argmax, want_argmax);
  EXPECT_EQ(got_lagging->leakage, *want);
  EXPECT_EQ(got_lagging->argmax, want_argmax);
  store.SetChangeFeed(nullptr);
  feed.Shutdown();
}

TEST(IncIndexTest, IndexEvaluationsCountOnTheColumnarPath) {
  const Database db = SeededDb(50, 13);
  const RecordStore store = RecordStore::FromDatabase(db);
  obs::Counter& path = obs::MetricsRegistry::Global().GetCounter(
      "infoleak_eval_path_total", {{"path", "columnar"}});
  const uint64_t before = path.Value();
  ExactLeakage engine;  // never skips, so every record is evaluated
  LeakageIndex index(Rec(kReference), Weights(), &engine, nullptr);
  ASSERT_TRUE(
      index.QueryLocked(store.rows(), store.index()).ok());
  EXPECT_EQ(path.Value() - before, db.size());
}

/// `n` records over one label set, each carrying `attrs` of its labels
/// with a fresh value.
Database WideDb(std::size_t n, int attrs) {
  Database db;
  for (std::size_t i = 0; i < n; ++i) {
    Record r;
    for (int a = 0; a < attrs; ++a) {
      const std::size_t label = (i + static_cast<std::size_t>(a)) % 4;
      r.Insert(Attribute("L" + std::to_string(label),
                         "v" + std::to_string(i), 0.5));
    }
    db.Add(std::move(r));
  }
  return db;
}

TEST(IncIndexTest, BytesDoNotGrowWithCoveredRecords) {
  const Record p = Rec("{<L0, v1, 1>, <L1, v2, 1>, <L2, nowhere, 1>}");
  const WeightModel wm = Weights();
  AutoLeakage engine;
  std::size_t bytes_at_3000[2] = {0, 0};
  const int widths[2] = {1, 4};
  for (int w = 0; w < 2; ++w) {
    const Database db = WideDb(3000, widths[w]);
    RecordStore store;
    LeakageIndex index(p, wm, &engine, nullptr);
    // Past the event ring's capacity, so nothing the index retains can
    // still be growing.
    for (std::size_t i = 0; i < 2000; ++i) store.Append(db[i]);
    ASSERT_TRUE(store.SetLeakIndexed(index).ok());
    const std::size_t at_2000 = index.Stats().bytes;
    for (std::size_t i = 2000; i < 3000; ++i) store.Append(db[i]);
    ASSERT_TRUE(store.SetLeakIndexed(index).ok());
    bytes_at_3000[w] = index.Stats().bytes;
    EXPECT_EQ(index.Stats().covered, 3000u);
    EXPECT_EQ(bytes_at_3000[w], at_2000)
        << widths[w] << " attributes per record";
  }
  // Four times the attributes cost only the wider scratch row.
  const std::size_t diff = bytes_at_3000[1] > bytes_at_3000[0]
                               ? bytes_at_3000[1] - bytes_at_3000[0]
                               : bytes_at_3000[0] - bytes_at_3000[1];
  EXPECT_LT(diff, 256u);
}

// ----- ChangeFeed ----------------------------------------------------------

/// Registered sinks must survive publishes (a weak_ptr self-move once
/// emptied the registry on every publish) and receive each delta once.
TEST(IncFeedTest, PublishKeepsLiveSinksRegistered) {
  const Database db = SeededDb(10, 21);
  const RecordStore store = RecordStore::FromDatabase(db);
  const Record p = Rec(kReference);
  const WeightModel wm = Weights();
  AutoLeakage engine;
  ChangeFeed feed;
  auto index = std::make_shared<LeakageIndex>(p, wm, &engine, &feed);
  feed.Register(index);
  ASSERT_EQ(feed.registered(), 1u);

  for (std::size_t i = 0; i < db.size(); ++i) {
    AppendDelta delta{static_cast<RecordId>(i), &store.rows(),
                      &store.index().symbols()};
    feed.PublishAppend(delta);
    ASSERT_EQ(feed.registered(), 1u) << "publish dropped a live sink";
  }
  EXPECT_EQ(feed.sequence(), db.size());
  EXPECT_EQ(index->Stats().covered, db.size());
  feed.Shutdown();
}

TEST(IncFeedTest, DeadSinksArePrunedAndEpochBumpsFanOut) {
  const Record p = Rec(kReference);
  const WeightModel wm = Weights();
  AutoLeakage engine;
  ChangeFeed feed;
  auto a = std::make_shared<LeakageIndex>(p, wm, &engine, &feed);
  auto b = std::make_shared<LeakageIndex>(p, wm, &engine, &feed);
  feed.Register(a);
  feed.Register(b);
  EXPECT_EQ(feed.registered(), 2u);
  b.reset();  // simulate cache eviction: the feed holds sinks weakly

  const uint64_t epoch = feed.PublishEpochBump("test");
  EXPECT_EQ(epoch, feed.epoch());
  EXPECT_EQ(feed.registered(), 1u);
  EXPECT_EQ(a->Stats().epoch, epoch);
  feed.Shutdown();
}

/// Counts the allocations made through it that are still live.
template <typename T>
struct CountingAllocator {
  using value_type = T;

  explicit CountingAllocator(std::size_t* live_blocks) : live(live_blocks) {}
  template <typename U>
  CountingAllocator(const CountingAllocator<U>& other) : live(other.live) {}

  T* allocate(std::size_t n) {
    ++*live;
    return std::allocator<T>().allocate(n);
  }
  void deallocate(T* ptr, std::size_t n) {
    --*live;
    std::allocator<T>().deallocate(ptr, n);
  }
  template <typename U>
  bool operator==(const CountingAllocator<U>& other) const {
    return live == other.live;
  }

  std::size_t* live;
};

class NullSink final : public DeltaSink {
 public:
  void OnAppend(const AppendDelta&) override {}
  void OnEpochBump(uint64_t, std::string_view) override {}
  bool BackgroundMaintain() override { return true; }
};

/// A sink allocated with allocate_shared keeps its whole block while any
/// weak_ptr to it lives. A feed that sees registrations but no publishes
/// (a read-only server evicting cache entries) must still release them.
TEST(IncFeedTest, RegisterFreesTheBlocksOfExpiredSinks) {
  std::size_t live_blocks = 0;
  ChangeFeed feed;
  const CountingAllocator<NullSink> alloc(&live_blocks);
  for (int i = 0; i < 32; ++i) {
    // The temporary dies as soon as Register returns: an evicted index.
    feed.Register(std::allocate_shared<NullSink>(alloc));
  }
  auto kept = std::allocate_shared<NullSink>(alloc);
  feed.Register(kept);
  EXPECT_EQ(live_blocks, 1u) << "expired sinks' blocks are still allocated";
  EXPECT_EQ(feed.registered(), 1u);
  feed.Shutdown();
}

TEST(IncFeedTest, MaintenanceThreadRunsTheMaintainerHook) {
  const Database db = SeededDb(64, 31);
  const RecordStore store = RecordStore::FromDatabase(db);
  const Record p = Rec(kReference);
  const WeightModel wm = Weights();
  AutoLeakage engine;
  ChangeFeed feed;
  IndexOptions options;
  options.maintenance_chunk = 16;
  auto index = std::make_shared<LeakageIndex>(
      p, wm, &engine, &feed, options,
      [&store](LeakageIndex& idx) {
        return idx.MaintainChunkLocked(store.rows(), store.index());
      });
  feed.Register(index);
  feed.RequestMaintenance(index);
  // The maintenance thread re-enqueues until the index reports done.
  for (int i = 0; i < 200 && index->Stats().covered < db.size(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(index->Stats().covered, db.size());
  feed.Shutdown();
}

TEST(IncFeedTest, WaitForSequenceReturnsOnPublishAndOnTimeout) {
  ChangeFeed feed;
  // Timeout path: nothing publishes.
  EXPECT_EQ(feed.WaitForSequence(feed.sequence(), /*timeout_ms=*/20, {}),
            feed.sequence());
  // Publish path: a delta wakes the waiter.
  RecordStore store;
  store.Append(Rec("{<N, x, 1>}"));
  std::thread publisher([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    AppendDelta delta{0, &store.rows(), &store.index().symbols()};
    feed.PublishAppend(delta);
  });
  const uint64_t seen =
      feed.WaitForSequence(/*seq=*/0, /*timeout_ms=*/5000, {});
  EXPECT_GE(seen, 1u);
  publisher.join();
  feed.Shutdown();
}

}  // namespace
}  // namespace infoleak::inc

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/leakage.h"
#include "core/record_io.h"
#include "inc/change_feed.h"
#include "inc/leakage_index.h"
#include "persist/durable_store.h"
#include "store/record_store.h"
#include "svc/json.h"
#include "svc/protocol.h"
#include "svc/service.h"

namespace infoleak {
namespace {

namespace fs = std::filesystem;

Record MakeRecord(int person, double conf) {
  Record r;
  r.Insert(Attribute("N", "person" + std::to_string(person), conf));
  r.Insert(Attribute("C", "city" + std::to_string(person % 7), 0.9));
  return r;
}

/// Spin-latch so all sides enter their loops together (see
/// store_concurrency_test.cpp for why both sides do fixed work: glibc's
/// shared_mutex prefers readers, so loops conditioned on another thread's
/// progress can starve under contention).
class StartGate {
 public:
  void ArriveAndWait() {
    arrived_.fetch_add(1, std::memory_order_acq_rel);
    while (!open_.load(std::memory_order_acquire)) {
    }
  }
  void OpenWhen(int expected) {
    while (arrived_.load(std::memory_order_acquire) < expected) {
    }
    open_.store(true, std::memory_order_release);
  }

 private:
  std::atomic<int> arrived_{0};
  std::atomic<bool> open_{false};
};

svc::Request Req(const std::string& line) {
  auto parsed = svc::ParseRequest(line);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return std::move(parsed).value();
}

// The tentpole contract of this PR: the change feed, the indexes it
// maintains, and the store/service around them are safe under concurrent
// append / query / compact. These tests are most meaningful under TSan
// (they are in ci.sh's TSan regex), but plain runs still exercise the lock
// order and the bit-identity invariants.

TEST(IncConcurrencyTest, AppendsRaceIndexQueriesSafely) {
  RecordStore store;
  inc::ChangeFeed feed;
  store.SetChangeFeed(&feed);
  AutoLeakage engine;
  auto index = std::make_shared<inc::LeakageIndex>(
      MakeRecord(1, 1.0), WeightModel(), &engine, &feed);
  feed.Register(index);

  StartGate gate;
  constexpr int kAppends = 1500;
  constexpr int kQueries = 400;

  std::thread writer([&] {
    gate.ArriveAndWait();
    for (int i = 0; i < kAppends; ++i) {
      store.Append(MakeRecord(i % 40, 0.5 + 0.5 * ((i % 4) / 3.0)));
    }
  });
  std::thread reader([&] {
    gate.ArriveAndWait();
    for (int i = 0; i < kQueries; ++i) {
      auto ans = store.SetLeakIndexed(*index);
      if (ans.ok()) {
        // The answer must be internally consistent even mid-append.
        EXPECT_GE(ans->argmax, ans->records == 0 ? -1 : 0);
        EXPECT_LT(static_cast<std::size_t>(ans->argmax + 1),
                  ans->records + 1);
      }
    }
  });
  gate.OpenWhen(2);
  writer.join();
  reader.join();

  // Quiesced: the index answer equals a cold scan of the final store.
  auto final_ans = store.SetLeakIndexed(*index);
  ASSERT_TRUE(final_ans.ok());
  EXPECT_EQ(final_ans->records, static_cast<std::size_t>(kAppends));
  store.SetChangeFeed(nullptr);
  feed.Shutdown();
}

TEST(IncConcurrencyTest, AppendsInterningNewSymbolsRaceColdQueries) {
  // Every append interns a fresh value and every tenth a fresh label, and
  // p's own (L5, new53) pair arrives only mid-race. Each query builds a new
  // index that catches up cold while the writer keeps interning, and stays
  // registered so later appends reach it through the feed.
  RecordStore store;
  inc::ChangeFeed feed;
  store.SetChangeFeed(&feed);
  AutoLeakage engine;
  auto fresh = [](int i) {
    Record r = MakeRecord(i % 50, 0.5 + 0.5 * ((i % 4) / 3.0));
    r.Insert(Attribute("L" + std::to_string(i / 10),
                       "new" + std::to_string(i), 0.75));
    return r;
  };
  Record p = MakeRecord(3, 1.0);
  p.Insert(Attribute("L5", "new53", 1.0));
  const WeightModel wm;

  struct Answer {
    std::size_t records;
    double leakage;
    std::ptrdiff_t argmax;
  };
  std::vector<Answer> answers;
  std::vector<std::shared_ptr<inc::LeakageIndex>> indexes;
  StartGate gate;
  constexpr int kAppends = 600;
  constexpr int kQueries = 60;
  std::thread writer([&] {
    gate.ArriveAndWait();
    for (int i = 0; i < kAppends; ++i) store.Append(fresh(i));
  });
  std::thread reader([&] {
    gate.ArriveAndWait();
    for (int q = 0; q < kQueries; ++q) {
      auto index =
          std::make_shared<inc::LeakageIndex>(p, wm, &engine, &feed);
      feed.Register(index);
      auto ans = store.SetLeakIndexed(*index);
      ASSERT_TRUE(ans.ok()) << ans.status().ToString();
      answers.push_back({ans->records, ans->leakage, ans->argmax});
      indexes.push_back(std::move(index));
    }
  });
  gate.OpenWhen(2);
  writer.join();
  reader.join();

  // Every cold answer equals a cold scan of the prefix it covered, and
  // every index, fed since, equals a cold scan of the final store.
  const Database db = store.SnapshotDatabase();
  const PreparedReference prep(p, wm);
  std::sort(answers.begin(), answers.end(),
            [](const Answer& a, const Answer& b) {
              return a.records < b.records;
            });
  ColumnBank bank(prep);
  for (const Answer& a : answers) {
    while (bank.size() < a.records) bank.Append(db[bank.size()]);
    std::ptrdiff_t argmax = -2;
    auto want = SetLeakageColumnar(bank, engine, &argmax);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(a.leakage, *want) << a.records << " records";
    EXPECT_EQ(a.argmax, argmax) << a.records << " records";
  }
  bank.ExtendFrom(db);
  std::ptrdiff_t final_argmax = -2;
  auto final_want = SetLeakageColumnar(bank, engine, &final_argmax);
  ASSERT_TRUE(final_want.ok());
  for (const auto& index : indexes) {
    EXPECT_EQ(index->Stats().covered, db.size());
    auto got = store.SetLeakIndexed(*index);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->leakage, *final_want);
    EXPECT_EQ(got->argmax, final_argmax);
  }
  store.SetChangeFeed(nullptr);
  feed.Shutdown();
}

TEST(IncConcurrencyTest, EpochBumpsRaceAppendsAndQueriesSafely) {
  RecordStore store;
  inc::ChangeFeed feed;
  store.SetChangeFeed(&feed);
  AutoLeakage engine;
  inc::IndexOptions options;
  options.maintenance_chunk = 64;
  auto index = std::make_shared<inc::LeakageIndex>(
      MakeRecord(1, 1.0), WeightModel(), &engine, &feed, options,
      [&store](inc::LeakageIndex& idx) { return store.MaintainIndex(idx); });
  feed.Register(index);

  StartGate gate;
  std::thread writer([&] {
    gate.ArriveAndWait();
    for (int i = 0; i < 800; ++i) {
      store.Append(MakeRecord(i % 25, 1.0));
    }
  });
  std::thread bumper([&] {
    gate.ArriveAndWait();
    for (int i = 0; i < 20; ++i) {
      feed.PublishEpochBump("test");
      std::this_thread::yield();
    }
  });
  std::thread reader([&] {
    gate.ArriveAndWait();
    for (int i = 0; i < 200; ++i) {
      (void)store.SetLeakIndexed(*index);
      (void)index->Stats();
      (void)index->EventsAfter(0, 32);
    }
  });
  gate.OpenWhen(3);
  writer.join();
  bumper.join();
  reader.join();

  // After the dust settles the index must still converge to the truth.
  auto ans = store.SetLeakIndexed(*index);
  if (!ans.ok()) {  // too far behind: let maintenance finish the rebuild
    for (int i = 0; i < 1000 && !store.MaintainIndex(*index); ++i) {
    }
    ans = store.SetLeakIndexed(*index);
  }
  ASSERT_TRUE(ans.ok()) << ans.status().ToString();
  EXPECT_EQ(ans->records, 800u);
  store.SetChangeFeed(nullptr);
  feed.Shutdown();
}

TEST(IncConcurrencyTest, ServedCompactRacesAppendsAndSetLeaks) {
  const std::string dir =
      (fs::temp_directory_path() / "infoleak-inc-conc-test").string();
  std::error_code ec;
  fs::remove_all(dir, ec);
  persist::DurableStore::Options options;
  options.fsync = persist::FsyncMode::kNever;
  auto durable = persist::DurableStore::Open(dir, options);
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();

  {
    svc::LeakageService service(durable->get());
    const std::string reference = FormatRecord(MakeRecord(3, 1.0));
    const std::string set_leak_line =
        std::string(R"({"verb":"set-leak","reference":)") +
        svc::JsonQuote(reference) + "}";

    StartGate gate;
    std::thread writer([&] {
      gate.ArriveAndWait();
      for (int i = 0; i < 300; ++i) {
        const std::string line =
            std::string(R"({"verb":"append","record":)") +
            svc::JsonQuote(FormatRecord(MakeRecord(i % 20, 1.0))) + "}";
        service.Handle(Req(line));
      }
    });
    std::thread compactor([&] {
      gate.ArriveAndWait();
      for (int i = 0; i < 6; ++i) {
        service.Handle(Req(R"({"verb":"compact"})"));
      }
    });
    std::thread querier([&] {
      gate.ArriveAndWait();
      for (int i = 0; i < 150; ++i) {
        std::string wire_code;
        service.Handle(Req(set_leak_line), {}, &wire_code);
        // A query racing a rebuild finishes the catch-up inline.
        EXPECT_TRUE(wire_code.empty()) << wire_code;
      }
    });
    gate.OpenWhen(3);
    writer.join();
    compactor.join();
    querier.join();

    // Epoch fencing after the racing compacts: a fresh query still answers,
    // and its record count covers every acknowledged append.
    std::string wire_code;
    const std::string line = service.Handle(Req(set_leak_line), {}, &wire_code);
    EXPECT_TRUE(wire_code.empty()) << line;
    auto parsed = svc::ParseJson(line);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->GetNumber("records", -1.0), 300.0);
  }
  durable->reset();
  fs::remove_all(dir, ec);
}

}  // namespace
}  // namespace infoleak

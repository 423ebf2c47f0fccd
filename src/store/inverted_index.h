#pragma once

#include <shared_mutex>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/prepared.h"
#include "core/record.h"
#include "core/symbols.h"

namespace infoleak {

/// \brief Inverted index over attribute values: (label, value) → ids of the
/// records carrying that attribute. The lookup structure behind the record
/// store's index-accelerated dossier queries (and conceptually behind
/// LabelValueBlocking — a block is exactly one posting list).
///
/// Keys are interned through a private `Symbols` table, so a posting-list
/// lookup is two symbol probes plus one integer hash — no per-query string
/// pair construction, no byte-wise tree comparisons.
///
/// Thread safety: an internal `std::shared_mutex` makes the index safe for
/// any number of concurrent readers alongside a writer — `Add` takes the
/// lock exclusively, `Postings`/`Candidates`/`num_postings` take it shared
/// and return by value. `Find` and `symbols()` expose interior pointers and
/// are the single-threaded fast path: they are safe concurrently with other
/// readers, but the returned pointer must not be dereferenced while a
/// writer may run (use `Postings` there). Moves and copies are not
/// synchronized; perform them before sharing the index across threads.
class InvertedIndex final : public PairPostings {
 public:
  InvertedIndex() = default;
  // Move-only (the symbol tables are); moves transfer the data but never
  // the lock state, so they are only legal before the index is shared.
  InvertedIndex(InvertedIndex&& other) noexcept;
  InvertedIndex& operator=(InvertedIndex&& other) noexcept;

  /// Indexes every attribute of `record` under `id`. Ids should be added
  /// in ascending order; posting lists then stay sorted for free. When
  /// `rows` is given, the interned ids computed on the way are kept there
  /// as the record's row (see InternedRows) instead of being discarded.
  void Add(RecordId id, const Record& record, InternedRows* rows = nullptr);

  /// Posting list for (label, value); nullptr when empty. See the class
  /// comment for the concurrency contract of the returned pointer.
  const std::vector<RecordId>* Find(std::string_view label,
                                    std::string_view value) const;

  /// Copy of the posting list for (label, value); empty when absent. Safe
  /// under concurrent `Add`.
  std::vector<RecordId> Postings(std::string_view label,
                                 std::string_view value) const;

  /// Posting list for a packed (label id, value id) pair of `symbols()`;
  /// nullptr when empty. Takes no lock and counts no lookup metrics: it is
  /// the leakage indexes' catch-up path, run under the owning store's read
  /// lock (see Find for the pointer's contract).
  const std::vector<RecordId>* FindPair(uint64_t pair) const override;

  /// Ids of records sharing at least one (label, value) with `record`,
  /// restricted to `labels` (all labels when empty). Sorted, deduplicated.
  std::vector<RecordId> Candidates(
      const Record& record,
      const std::vector<std::string>& labels = {}) const;

  std::size_t num_postings() const;

  /// The index's interning tables (shared vocabulary of everything added).
  /// Unsynchronized view — callers must quiesce writers.
  const Symbols& symbols() const override { return syms_; }

 private:
  /// Lookup core shared by Find/Postings/Candidates; caller holds mu_.
  const std::vector<RecordId>* FindLocked(std::string_view label,
                                          std::string_view value) const;

  mutable std::shared_mutex mu_;
  Symbols syms_;
  // packed (label id, value id) -> ascending record ids.
  std::unordered_map<uint64_t, std::vector<RecordId>> postings_;
};

}  // namespace infoleak

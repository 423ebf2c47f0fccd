#pragma once

#include <cstdint>
#include <vector>

#include "core/database.h"
#include "core/prepared.h"

namespace infoleak {

/// \brief The data-oriented evaluation plane: a batch of records prepared
/// against one `PreparedReference` and laid out as contiguous per-column
/// arrays over the reference's interned symbol table — confidence, weight
/// and (the workhorse) the precomputed match position of every attribute
/// in `p` (20 B per attribute), plus record offset/length and per-record
/// weight summaries.
///
/// Where a record-at-a-time scan (`PreparedRecord::Assign` per record)
/// re-resolves two string hashes and one pair lookup per attribute per
/// scan, a bank resolves them exactly once at append time; repeated
/// set-leakage scans over the bank touch nothing but flat arrays. Banks
/// are incrementally appendable (`ExtendFrom`), which is what cold-scan
/// callers such as `RecordStore::SetLeakColumnar` use. A bank is a full
/// copy of the store's columns per reference, so the serving layer keeps
/// none: its leakage indexes resolve the store's shared `InternedRows`
/// one record at a time through a `RowTranslation` instead.
///
/// Appends resolve through `AppendRecordColumns`, the same rule the
/// one-record `PreparedRecord` holder uses, so a bank view and a holder
/// view of the same `Record` are identical column for column and every
/// evaluation over either is bit-identical — pinned by
/// columnar_equivalence_test and the selfcheck oracle's
/// `string-vs-columnar` property.
///
/// Lifetime: the bank borrows `ref`, which must outlive it. Thread safety:
/// concurrent readers are safe; appends need external synchronization
/// against readers (see RecordStore::SetLeakColumnar for a shared-bank
/// locking pattern; a LeakageIndex guards its bank with its own mutex).
class ColumnBank {
 public:
  explicit ColumnBank(const PreparedReference& ref);

  ColumnBank(ColumnBank&&) = default;
  ColumnBank& operator=(ColumnBank&&) = default;
  ColumnBank(const ColumnBank&) = delete;
  ColumnBank& operator=(const ColumnBank&) = delete;

  /// Builds a bank holding every record of `db`, in order.
  static ColumnBank FromDatabase(const Database& db,
                                 const PreparedReference& ref);

  /// Appends one record's columns (through AppendRecordColumns).
  void Append(const Record& r);

  /// Appends the records of `db` this bank does not cover yet — records
  /// [size(), db.size()). Precondition: the bank was built from a prefix of
  /// `db` (size() <= db.size()); the serving layer's incremental path.
  void ExtendFrom(const Database& db);

  /// Number of records in the bank.
  std::size_t size() const { return records_; }
  bool empty() const { return records_ == 0; }

  /// Total attribute cells across all records.
  std::size_t attributes() const { return cols_.conf.size(); }

  /// Largest record length seen — what a workspace should reserve for.
  std::size_t max_record_size() const { return max_record_; }

  const PreparedReference& reference() const { return *ref_; }

  /// SoA view of record `i`. Precondition: i < size().
  ColumnRecordView view(std::size_t i) const {
    return cols_.view(static_cast<std::size_t>(offset_[i]),
                      static_cast<std::size_t>(offset_[i + 1]),
                      uniform_[i] != 0, common_weight_[i]);
  }

 private:
  const PreparedReference* ref_;  // borrowed; must outlive the bank
  RecordColumns cols_;
  std::vector<uint64_t> offset_;  // records_ + 1 entries; offset_[0] == 0
  std::vector<uint8_t> uniform_;
  std::vector<double> common_weight_;
  std::size_t records_ = 0;
  std::size_t max_record_ = 0;
};

/// Scatters a record view's precomputed match positions into the
/// workspace's per-reference-position columns. O(|r|), no hashing.
void FillMatchColumns(const ColumnRecordView& v, std::size_t reference_size,
                      LeakageWorkspace* ws);

/// True iff one common weight covers every label of `r` and `p` — the
/// view analogue of WeightModel::IsConstantOver (Algorithm 1's
/// precondition).
bool UniformWeightOver(const ColumnRecordView& r, const PreparedReference& p);

}  // namespace infoleak

#pragma once

#include <cstdint>
#include <vector>

#include "core/database.h"
#include "core/prepared.h"

namespace infoleak {

/// \brief The data-oriented evaluation plane: a batch of records prepared
/// against one `PreparedReference` and laid out as contiguous per-column
/// arrays over the reference's interned symbol table — confidence, weight,
/// label id, and (the workhorse) the precomputed match position of every
/// attribute in `p`, plus record offset/length and per-record weight
/// summaries.
///
/// Where a record-at-a-time scan (`PreparedRecord::Assign` per record)
/// re-resolves two string hashes and one pair lookup per attribute per
/// scan, a bank resolves them exactly once at append time; a set-leakage
/// scan over the bank touches nothing but flat arrays. Banks are
/// incrementally appendable, so a serving layer can keep one bank per
/// cached reference and extend it as the store grows — the steady state
/// evaluates thousands of records with zero hashing and zero allocation.
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
    const std::size_t begin = static_cast<std::size_t>(offset_[i]);
    const std::size_t end = static_cast<std::size_t>(offset_[i + 1]);
    ColumnRecordView v;
    v.conf = cols_.conf.data() + begin;
    v.weight = cols_.weight.data() + begin;
    v.label = cols_.label.data() + begin;
    v.match_pos = cols_.match_pos.data() + begin;
    v.size = end - begin;
    v.uniform_weight = uniform_[i] != 0;
    v.common_weight = common_weight_[i];
    return v;
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

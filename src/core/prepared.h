#pragma once

#include <cstdint>
#include <vector>

#include "core/record.h"
#include "core/symbols.h"
#include "core/weights.h"

namespace infoleak {

/// \brief Open-addressing map from packed (label, value) id pairs to
/// reference positions — the data-oriented replacement for the
/// `std::unordered_map` the match index used to live in. Linear probing
/// over one flat array of power-of-two capacity: a lookup is one multiply,
/// one shift, and (at load factor <= 1/2) almost always one cache line,
/// where the node-based map paid a pointer chase per probe. The packed key
/// 0xFFFF..FF can never occur (it would need both ids to be kNoSymbol,
/// which MatchPosition screens out), so it doubles as the empty-slot mark.
class FlatPairMap {
 public:
  /// Value returned by Find for absent keys (== PreparedReference::kNoMatch).
  static constexpr uint32_t kNotFound = 0xFFFFFFFFu;

  FlatPairMap() { Rehash(kMinCapacity); }

  /// Pre-sizes for `expected` insertions (capacity stays a power of two,
  /// load factor <= 1/2).
  void Reserve(std::size_t expected) {
    std::size_t cap = kMinCapacity;
    while (cap < expected * 2) cap *= 2;
    if (cap > keys_.size()) Rehash(cap);
  }

  /// Inserts (key, value); a key already present keeps its first value
  /// (mirroring the emplace semantics the match index relies on).
  void Insert(uint64_t key, uint32_t value) {
    if ((size_ + 1) * 2 > keys_.size()) Rehash(keys_.size() * 2);
    std::size_t i = Slot(key);
    while (keys_[i] != kEmptyKey) {
      if (keys_[i] == key) return;
      i = (i + 1) & mask_;
    }
    keys_[i] = key;
    values_[i] = value;
    ++size_;
  }

  /// Value for `key`, or kNotFound.
  uint32_t Find(uint64_t key) const {
    std::size_t i = Slot(key);
    while (keys_[i] != kEmptyKey) {
      if (keys_[i] == key) return values_[i];
      i = (i + 1) & mask_;
    }
    return kNotFound;
  }

  std::size_t size() const { return size_; }

  /// Bytes held by the slot arrays.
  std::size_t bytes() const {
    return keys_.size() * (sizeof(uint64_t) + sizeof(uint32_t));
  }

 private:
  static constexpr uint64_t kEmptyKey = ~uint64_t{0};
  static constexpr std::size_t kMinCapacity = 8;

  /// Fibonacci multiplicative hash: ids are dense and low-entropy, the odd
  /// multiplier spreads them across the high bits, and the shift keeps
  /// exactly the bits the capacity can address.
  std::size_t Slot(uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_) &
           mask_;
  }

  void Rehash(std::size_t capacity) {
    std::vector<uint64_t> old_keys = std::move(keys_);
    std::vector<uint32_t> old_values = std::move(values_);
    keys_.assign(capacity, kEmptyKey);
    values_.assign(capacity, 0);
    mask_ = capacity - 1;
    shift_ = 64;
    for (std::size_t c = capacity; c > 1; c /= 2) --shift_;
    size_ = 0;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] == kEmptyKey) continue;
      std::size_t j = Slot(old_keys[i]);
      while (keys_[j] != kEmptyKey) j = (j + 1) & mask_;
      keys_[j] = old_keys[i];
      values_[j] = old_values[i];
      ++size_;
    }
  }

  std::vector<uint64_t> keys_;
  std::vector<uint32_t> values_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::size_t size_ = 0;
};

/// \brief One interned attribute of a prepared reference: symbol ids
/// instead of strings, the per-label weight already resolved.
struct PreparedAttr {
  uint32_t label = SymbolTable::kNoSymbol;
  uint32_t value = SymbolTable::kNoSymbol;
  double confidence = 0.0;
  double weight = 0.0;
};

/// \brief The reference record `p` prepared once for many evaluations:
/// interned attributes in the record's canonical (label, value) order, the
/// precomputed total weight Σ_{b∈p} w_b, a per-label weight cache, and a
/// hash index for O(1) match lookups by id pair.
///
/// Lifetime: the prepared reference keeps pointers to the source record and
/// the weight model — both must outlive it. It owns the symbol tables its
/// ids refer to; record columns (`PreparedRecord`, `ColumnBank`) are
/// resolved *against* a reference and are only meaningful with it.
///
/// The attribute order deliberately mirrors the source record's canonical
/// string order (not id order) so that evaluations accumulate
/// floating-point sums in exactly the same order as a from-scratch string
/// computation.
class PreparedReference {
 public:
  /// Position sentinel returned by MatchPosition for non-matches.
  static constexpr uint32_t kNoMatch = 0xFFFFFFFFu;

  PreparedReference(const Record& p, const WeightModel& wm);

  PreparedReference(PreparedReference&&) = default;
  PreparedReference& operator=(PreparedReference&&) = default;
  PreparedReference(const PreparedReference&) = delete;
  PreparedReference& operator=(const PreparedReference&) = delete;

  const std::vector<PreparedAttr>& attrs() const { return attrs_; }
  std::size_t size() const { return attrs_.size(); }

  /// Σ_{b∈p} w_b, summed in canonical order (== wm.TotalWeight(p)).
  double total_weight() const { return total_weight_; }

  /// Position of (label, value) in attrs(), or kNoMatch. O(1): one probe
  /// into the flat pair index (FlatPairMap::kNotFound == kNoMatch).
  uint32_t MatchPosition(uint32_t label, uint32_t value) const {
    if (label == SymbolTable::kNoSymbol || value == SymbolTable::kNoSymbol) {
      return kNoMatch;
    }
    return match_.Find(PackSymbolPair(label, value));
  }

  /// Cached wm.Weight(label) for labels interned by this reference.
  double LabelWeight(uint32_t label) const { return label_weight_[label]; }

  /// Per-position attribute weights as one contiguous column
  /// (attr_weights()[j] == attrs()[j].weight) — what the array kernels
  /// stream instead of striding through PreparedAttr.
  const std::vector<double>& attr_weights() const { return attr_weight_; }

  /// True iff every label of `p` carries one weight value (vacuously true
  /// when empty); `common_weight()` is that value.
  bool uniform_weight() const { return uniform_; }
  double common_weight() const { return common_weight_; }

  const Symbols& symbols() const { return syms_; }
  const WeightModel& weight_model() const { return *wm_; }

  /// The source record `p`.
  const Record& record() const { return *source_; }

 private:
  Symbols syms_;
  std::vector<PreparedAttr> attrs_;       // canonical order of p
  std::vector<double> attr_weight_;       // by position (weight column)
  std::vector<double> label_weight_;      // by label id
  FlatPairMap match_;                     // packed ids -> position
  double total_weight_ = 0.0;
  bool uniform_ = true;
  double common_weight_ = 0.0;
  const Record* source_;
  const WeightModel* wm_;
};

/// \brief Structure-of-arrays view of one adversary record prepared against
/// a reference: raw pointers into contiguous per-attribute columns plus the
/// per-record scalars the engines need. This is the one input every engine
/// evaluates (`LeakageEngine::RecordLeakageColumnar`); it points either into
/// a `ColumnBank` (many records), a `PreparedRecord` (one), or a leakage
/// index's one-record scratch (a store row resolved through a
/// `RowTranslation`). Cheap to construct (no ownership); valid until its
/// storage is modified.
struct ColumnRecordView {
  const double* conf = nullptr;        ///< believed confidence per attribute
  const double* weight = nullptr;      ///< resolved label weight per attribute
  const uint32_t* match_pos = nullptr; ///< position in p, or PreparedReference::kNoMatch
  std::size_t size = 0;                ///< attribute count |r|
  bool uniform_weight = true;          ///< one weight across the record's labels
  double common_weight = 0.0;          ///< that weight (0 when empty)
};

/// \brief Growable per-attribute columns of records resolved against one
/// reference: the storage behind `ColumnBank`, `PreparedRecord` and a
/// leakage index's scratch row.
struct RecordColumns {
  std::vector<double> conf;
  std::vector<double> weight;
  std::vector<uint32_t> match_pos;

  void clear() {
    conf.clear();
    weight.clear();
    match_pos.clear();
  }

  /// View of the cells [begin, end) with the given weight summary.
  ColumnRecordView view(std::size_t begin, std::size_t end, bool uniform,
                        double common) const {
    ColumnRecordView v;
    v.conf = conf.data() + begin;
    v.weight = weight.data() + begin;
    v.match_pos = match_pos.data() + begin;
    v.size = end - begin;
    v.uniform_weight = uniform;
    v.common_weight = common;
    return v;
  }
};

/// Uniform-weight summary of one appended record (see ColumnRecordView).
struct RecordWeightSummary {
  bool uniform = true;
  double common = 0.0;
};

/// \brief The attribute-resolution rule, in one place: appends `r`'s
/// attributes to `cols` in canonical order, each with its confidence, its
/// weight (the reference's cached label weight, or the weight model's for
/// labels `p` lacks), and its match position in `p`. Labels and values
/// that never occur in the reference match nothing, so the reference's
/// symbol tables stay bounded by |p| no matter how many records stream
/// through.
RecordWeightSummary AppendRecordColumns(const Record& r,
                                        const PreparedReference& ref,
                                        RecordColumns* cols);

/// \brief A record store's attributes as interned rows: per attribute the
/// confidence and the store's own label and value ids (into the `Symbols`
/// the store interns with), in each record's canonical order, plus record
/// offsets. Append-only and independent of any reference — one copy per
/// store, shared by every reference a `RowTranslation` resolves.
struct InternedRows {
  std::vector<double> conf;
  std::vector<uint32_t> label;
  std::vector<uint32_t> value;
  std::vector<uint64_t> offset = {0};  ///< size() + 1 entries
  /// Ids of the rows carrying a NaN confidence, ascending. Such a row can
  /// fail an evaluation even when it matches nothing in a reference, so a
  /// leakage index visits it as if it did (see PairPostings).
  std::vector<RecordId> nan_rows;

  std::size_t size() const { return offset.size() - 1; }

  /// Pre-sizes for `records` more records of `attributes` cells in total.
  void Reserve(std::size_t records, std::size_t attributes);
};

/// \brief A store's posting lists keyed by packed (label, value) id pairs
/// — what a leakage index walks to reach the only rows that can match its
/// reference. Implemented by the store's `InvertedIndex`; declared here so
/// the incremental plane can read a store without depending on it.
class PairPostings {
 public:
  virtual ~PairPostings() = default;

  /// The symbol tables the packed ids (and the store's rows) index.
  virtual const Symbols& symbols() const = 0;

  /// Ascending ids of the rows carrying `pair` (`PackSymbolPair` of ids
  /// into `symbols()`), or nullptr when none does. Unsynchronized: the
  /// caller quiesces writers while it reads the list.
  virtual const std::vector<RecordId>* FindPair(uint64_t pair) const = 0;
};

/// \brief The per-reference half of `AppendRecordColumns` for records that
/// are already interned: maps a store's label ids to weights and its
/// (label, value) id pairs to positions in `p`, so resolving a stored row
/// is one array read and one flat-map probe per attribute, with no string
/// hashing. The tables grow lazily with the store's symbol tables: a label
/// the store interns later is resolved (one name lookup) the first time a
/// row is resolved after it appears, and a pair of `p` the store has not
/// interned yet is retried whenever the store's tables have grown since
/// the last try. Resolved columns are identical, cell for cell, to
/// `AppendRecordColumns` over the same record (tested), so evaluations over
/// them are bit-identical too.
///
/// Lifetime: borrows `ref`, which must outlive the translation. Its tables
/// hold one store's ids, so every call must pass that store's rows and
/// symbols. Not synchronized: `symbols` must not change during a call.
class RowTranslation {
 public:
  explicit RowTranslation(const PreparedReference& ref);

  /// Appends row `i` of `rows` (ids into `symbols`) to `cols`.
  RecordWeightSummary AppendRow(const InternedRows& rows, std::size_t i,
                                const Symbols& symbols, RecordColumns* cols);

  /// Catches the tables up with whatever `symbols` interned since the last
  /// call (AppendRow does this itself).
  void Sync(const Symbols& symbols);

  /// The pairs of `p` the store has interned, as packed store ids, in the
  /// order they resolved: a row matches `p` iff it carries one of them.
  /// Current as of the last Sync.
  const std::vector<uint64_t>& resolved_pairs() const { return resolved_; }

  /// Bytes held by the translation tables.
  std::size_t bytes() const;

 private:
  const PreparedReference* ref_;
  std::vector<double> label_weight_;  // store label id -> weight
  FlatPairMap match_;                 // packed store ids -> position in p
  std::vector<uint64_t> resolved_;    // match_'s keys
  std::vector<uint32_t> unresolved_;  // positions of p the store lacks
  std::size_t labels_seen_ = 0;       // store table sizes at the last retry
  std::size_t values_seen_ = 0;
};

/// \brief The one-record column holder: an adversary record `r` resolved
/// against a reference into its own scratch columns, evaluated through
/// `view()` exactly like a bank record. This is how the string adapters and
/// the record-at-a-time callers reach the engines' single (columnar)
/// evaluation path.
///
/// Default-constructible and reusable: `Assign` re-resolves in place,
/// reusing capacity, so a caller evaluating a whole database touches the
/// allocator only while the first few records grow the columns.
class PreparedRecord {
 public:
  PreparedRecord() = default;
  PreparedRecord(const Record& r, const PreparedReference& ref) {
    Assign(r, ref);
  }

  /// Re-resolves this holder for `r` against `ref`, reusing storage.
  void Assign(const Record& r, const PreparedReference& ref);

  /// SoA view of the held record; valid until the next Assign.
  ColumnRecordView view() const;

  std::size_t size() const { return cols_.conf.size(); }

 private:
  RecordColumns cols_;
  RecordWeightSummary summary_;
};

/// \brief Caller-owned scratch for evaluations. Engines size the buffers on
/// demand; capacity is retained across calls, so reusing one workspace for
/// a batch of evaluations makes the steady state allocation-free. Contents
/// are engine-internal and carry no state between calls — any evaluation
/// may be replayed with a fresh workspace and yields the identical result.
struct LeakageWorkspace {
  std::vector<double> poly;        // Algorithm 1's coefficient list Y
  std::vector<double> match_conf;  // per reference position: p(b, r)
  std::vector<uint32_t> match_rpos;  // per reference position: index into r
  std::vector<uint8_t> matched;      // per record attribute: b ∈ p?

  /// Pre-grows every buffer for records up to `max_record_attrs` attributes
  /// against a reference of `reference_attrs` — after this, evaluating any
  /// such record performs zero allocations (the sharded set-leakage workers
  /// call it once per contiguous range; asserted by the steady-state test).
  void ReserveFor(std::size_t max_record_attrs, std::size_t reference_attrs);
};

}  // namespace infoleak

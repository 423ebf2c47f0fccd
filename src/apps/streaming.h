#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/leakage.h"
#include "store/inverted_index.h"
#include "util/result.h"

namespace infoleak {

/// \brief Online maintenance of the information leakage L(R, p, E) as
/// records arrive one at a time, for shared-value entity resolution.
///
/// The batch pipeline (resolve everything, score every composite, take the
/// max) is O(|R|²) per release; a release ledger or a monitoring adversary
/// adds one record at a time and only the affected entity changes. This
/// monitor keeps:
///  * a union–find over arrived records, linked through an inverted index
///    on the configured labels (transitive shared-value semantics —
///    exactly TransitiveClosureResolver's partition);
///  * the merged composite and its record leakage per component;
///  * the global maximum.
/// Adding a record touches only the components it links to, so an `Add` is
/// ~O(|component| + log) instead of re-resolving the database
/// (equivalence with the batch pipeline is property-tested).
class StreamingLeakage {
 public:
  /// \param reference the target's record p.
  /// \param link_labels labels whose shared values link records (all
  ///        labels when empty).
  /// \param weights / engine as for SetLeakage; both are copied/referenced
  ///        per call — the engine reference must outlive the monitor.
  StreamingLeakage(Record reference, std::vector<std::string> link_labels,
                   WeightModel weights, const LeakageEngine& engine);

  /// Ingests one record; returns the updated global leakage.
  Result<double> Add(Record record);

  /// Current L(R, p, E) under shared-value ER (0 before any record).
  double current_leakage() const { return current_; }

  /// Number of resolved entities so far.
  std::size_t num_entities() const;

  /// Number of ingested records.
  std::size_t num_records() const { return records_.size(); }

  /// The merged composite of the entity `record_index` belongs to.
  Result<Record> CompositeOf(std::size_t record_index) const;

 private:
  std::size_t Find(std::size_t x) const;

  Record reference_;
  std::vector<std::string> link_labels_;
  WeightModel weights_;
  const LeakageEngine& engine_;
  PreparedReference prepared_;   // reference_ prepared once for the stream
  LeakageWorkspace workspace_;   // reused by every Add
  PreparedRecord holder_;        // reusable composite columns

  std::vector<Record> records_;             // as ingested
  mutable std::vector<std::size_t> parent_; // union-find (path-halving)
  std::map<std::size_t, Record> composite_; // root -> merged record
  std::map<std::size_t, double> leakage_;   // root -> L(composite, p)
  InvertedIndex index_;
  double current_ = 0.0;
};

}  // namespace infoleak

#include "core/column_bank.h"

#include "obs/metrics.h"

namespace infoleak {
namespace {

obs::Counter& BankBuildCounter() {
  static obs::Counter& builds = obs::MetricsRegistry::Global().GetCounter(
      "infoleak_column_bank_builds_total", {},
      "ColumnBank constructions (one per cached reference rebuild)");
  return builds;
}

obs::Counter& BankAppendCounter() {
  static obs::Counter& appends = obs::MetricsRegistry::Global().GetCounter(
      "infoleak_column_bank_appends_total", {},
      "Records appended to a ColumnBank (string resolution paid once here "
      "instead of once per scan)");
  return appends;
}

}  // namespace

ColumnBank::ColumnBank(const PreparedReference& ref) : ref_(&ref) {
  offset_.push_back(0);
  BankBuildCounter().Inc();
}

ColumnBank ColumnBank::FromDatabase(const Database& db,
                                    const PreparedReference& ref) {
  ColumnBank bank(ref);
  bank.ExtendFrom(db);
  return bank;
}

void ColumnBank::Append(const Record& r) {
  const RecordWeightSummary summary = AppendRecordColumns(r, *ref_, &cols_);
  const std::size_t len =
      cols_.conf.size() - static_cast<std::size_t>(offset_.back());
  if (len > max_record_) max_record_ = len;
  offset_.push_back(static_cast<uint64_t>(cols_.conf.size()));
  uniform_.push_back(summary.uniform ? 1 : 0);
  common_weight_.push_back(summary.common);
  ++records_;
  BankAppendCounter().Inc();
}

void ColumnBank::ExtendFrom(const Database& db) {
  for (std::size_t i = records_; i < db.size(); ++i) {
    Append(db[i]);
  }
}

void FillMatchColumns(const ColumnRecordView& v, std::size_t reference_size,
                      LeakageWorkspace* ws) {
  ws->match_conf.assign(reference_size, 0.0);
  ws->match_rpos.assign(reference_size, PreparedReference::kNoMatch);
  for (std::size_t i = 0; i < v.size; ++i) {
    const uint32_t pos = v.match_pos[i];
    if (pos != PreparedReference::kNoMatch) {
      ws->match_conf[pos] = v.conf[i];
      ws->match_rpos[pos] = static_cast<uint32_t>(i);
    }
  }
}

bool UniformWeightOver(const ColumnRecordView& r, const PreparedReference& p) {
  if (!r.uniform_weight || !p.uniform_weight()) return false;
  if (r.size == 0 || p.size() == 0) return true;
  return r.common_weight == p.common_weight();
}

}  // namespace infoleak

#include "core/prepared.h"

namespace infoleak {

PreparedReference::PreparedReference(const Record& p, const WeightModel& wm)
    : source_(&p), wm_(&wm) {
  attrs_.reserve(p.size());
  attr_weight_.reserve(p.size());
  match_.Reserve(p.size());
  for (const auto& b : p) {
    PreparedAttr pa;
    pa.label = syms_.labels.Intern(b.label);
    if (pa.label == label_weight_.size()) {
      label_weight_.push_back(wm.Weight(b.label));
    }
    pa.value = syms_.values.Intern(b.value);
    pa.confidence = b.confidence;
    pa.weight = label_weight_[pa.label];
    total_weight_ += pa.weight;
    if (attrs_.empty()) {
      common_weight_ = pa.weight;
    } else if (pa.weight != common_weight_) {
      uniform_ = false;
    }
    match_.Insert(PackSymbolPair(pa.label, pa.value),
                  static_cast<uint32_t>(attrs_.size()));
    attr_weight_.push_back(pa.weight);
    attrs_.push_back(pa);
  }
}

void LeakageWorkspace::ReserveFor(std::size_t max_record_attrs,
                                  std::size_t reference_attrs) {
  poly.reserve(max_record_attrs + 1);
  match_conf.reserve(reference_attrs);
  match_rpos.reserve(reference_attrs);
  matched.reserve(max_record_attrs);
}

RecordWeightSummary AppendRecordColumns(const Record& r,
                                        const PreparedReference& ref,
                                        RecordColumns* cols) {
  RecordWeightSummary summary;
  const Symbols& syms = ref.symbols();
  const std::size_t begin = cols->conf.size();
  for (const auto& a : r) {
    const uint32_t label = syms.labels.Find(a.label);
    const uint32_t value = syms.values.Find(a.value);
    const double weight = label != SymbolTable::kNoSymbol
                              ? ref.LabelWeight(label)
                              : ref.weight_model().Weight(a.label);
    if (cols->conf.size() == begin) {
      summary.common = weight;
    } else if (weight != summary.common) {
      summary.uniform = false;
    }
    cols->conf.push_back(a.confidence);
    cols->weight.push_back(weight);
    cols->label.push_back(label);
    cols->match_pos.push_back(ref.MatchPosition(label, value));
  }
  return summary;
}

void PreparedRecord::Assign(const Record& r, const PreparedReference& ref) {
  cols_.conf.clear();
  cols_.weight.clear();
  cols_.label.clear();
  cols_.match_pos.clear();
  cols_.conf.reserve(r.size());
  cols_.weight.reserve(r.size());
  cols_.label.reserve(r.size());
  cols_.match_pos.reserve(r.size());
  summary_ = AppendRecordColumns(r, ref, &cols_);
}

ColumnRecordView PreparedRecord::view() const {
  ColumnRecordView v;
  v.conf = cols_.conf.data();
  v.weight = cols_.weight.data();
  v.label = cols_.label.data();
  v.match_pos = cols_.match_pos.data();
  v.size = cols_.conf.size();
  v.uniform_weight = summary_.uniform;
  v.common_weight = summary_.common;
  return v;
}

}  // namespace infoleak

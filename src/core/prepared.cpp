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
    cols->match_pos.push_back(ref.MatchPosition(label, value));
  }
  return summary;
}

void InternedRows::Reserve(std::size_t records, std::size_t attributes) {
  conf.reserve(conf.size() + attributes);
  label.reserve(label.size() + attributes);
  value.reserve(value.size() + attributes);
  offset.reserve(offset.size() + records);
}

RowTranslation::RowTranslation(const PreparedReference& ref) : ref_(&ref) {
  match_.Reserve(ref.size());
  resolved_.reserve(ref.size());
  unresolved_.reserve(ref.size());
  for (std::size_t j = 0; j < ref.size(); ++j) {
    unresolved_.push_back(static_cast<uint32_t>(j));
  }
}

void RowTranslation::Sync(const Symbols& symbols) {
  const Symbols& own = ref_->symbols();
  // Same weight rule as AppendRecordColumns: the reference's cached label
  // weight when p carries the label, the weight model's otherwise.
  for (std::size_t id = label_weight_.size(); id < symbols.labels.size();
       ++id) {
    const std::string_view name =
        symbols.labels.NameOf(static_cast<uint32_t>(id));
    const uint32_t label = own.labels.Find(name);
    label_weight_.push_back(label != SymbolTable::kNoSymbol
                                ? ref_->LabelWeight(label)
                                : ref_->weight_model().Weight(name));
  }
  if (unresolved_.empty() || (symbols.labels.size() == labels_seen_ &&
                              symbols.values.size() == values_seen_)) {
    return;
  }
  labels_seen_ = symbols.labels.size();
  values_seen_ = symbols.values.size();
  std::size_t kept = 0;
  for (const uint32_t pos : unresolved_) {
    const PreparedAttr& b = ref_->attrs()[pos];
    const uint32_t label = symbols.labels.Find(own.labels.NameOf(b.label));
    const uint32_t value = symbols.values.Find(own.values.NameOf(b.value));
    if (label == SymbolTable::kNoSymbol || value == SymbolTable::kNoSymbol) {
      unresolved_[kept++] = pos;
    } else {
      match_.Insert(PackSymbolPair(label, value), pos);
      resolved_.push_back(PackSymbolPair(label, value));
    }
  }
  unresolved_.resize(kept);
}

RecordWeightSummary RowTranslation::AppendRow(const InternedRows& rows,
                                              std::size_t i,
                                              const Symbols& symbols,
                                              RecordColumns* cols) {
  Sync(symbols);
  RecordWeightSummary summary;
  const std::size_t begin = static_cast<std::size_t>(rows.offset[i]);
  const std::size_t end = static_cast<std::size_t>(rows.offset[i + 1]);
  for (std::size_t c = begin; c < end; ++c) {
    const double weight = label_weight_[rows.label[c]];
    if (c == begin) {
      summary.common = weight;
    } else if (weight != summary.common) {
      summary.uniform = false;
    }
    cols->conf.push_back(rows.conf[c]);
    cols->weight.push_back(weight);
    cols->match_pos.push_back(
        match_.Find(PackSymbolPair(rows.label[c], rows.value[c])));
  }
  return summary;
}

std::size_t RowTranslation::bytes() const {
  return label_weight_.capacity() * sizeof(double) + match_.bytes() +
         resolved_.capacity() * sizeof(uint64_t) +
         unresolved_.capacity() * sizeof(uint32_t);
}

void PreparedRecord::Assign(const Record& r, const PreparedReference& ref) {
  cols_.clear();
  cols_.conf.reserve(r.size());
  cols_.weight.reserve(r.size());
  cols_.match_pos.reserve(r.size());
  summary_ = AppendRecordColumns(r, ref, &cols_);
}

ColumnRecordView PreparedRecord::view() const {
  return cols_.view(0, cols_.conf.size(), summary_.uniform, summary_.common);
}

}  // namespace infoleak

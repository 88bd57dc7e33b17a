#include "dcsm/summary_table.h"

#include <algorithm>

namespace hermes::dcsm {

Result<SummaryTable> SummaryTable::Build(
    const CallGroupKey& key, const std::vector<CostRecord>& records,
    std::vector<size_t> dims) {
  std::sort(dims.begin(), dims.end());
  for (size_t d : dims) {
    if (d >= key.arity) {
      return Status::InvalidArgument(
          "dimension position " + std::to_string(d) +
          " out of range for " + key.ToString());
    }
  }
  SummaryTable table(key, dims);
  for (const CostRecord& record : records) table.Fold(record);
  return table;
}

void SummaryTable::Fold(const CostRecord& record) {
  if (record.call.domain != key_.domain ||
      record.call.function != key_.function ||
      record.call.args.size() != key_.arity) {
    return;
  }
  ValueList dim_values;
  dim_values.reserve(dims_.size());
  for (size_t d : dims_) dim_values.push_back(record.call.args[d]);
  Value row_key = Value::List(dim_values);
  SummaryRow& row = rows_[row_key];
  if (row.l == 0) row.dims = std::move(dim_values);
  ++row.l;
  if (record.has_t_first) {
    row.sum_t_first += record.cost.t_first_ms;
    row.weight_t_first += 1.0;
  }
  if (record.has_t_all) {
    row.sum_t_all += record.cost.t_all_ms;
    row.weight_t_all += 1.0;
  }
  if (record.has_cardinality) {
    row.sum_cardinality += record.cost.cardinality;
    row.weight_cardinality += 1.0;
  }
}

namespace {

/// Dimension `d` of a row key read in place.
const Value& DimValue(const PatternView& pattern, size_t d) {
  static const Value kNull;
  const Value* c = pattern.constant(d);
  return c != nullptr ? *c : kNull;
}

}  // namespace

size_t SummaryTable::RowHash::operator()(const DimsOf& key) const {
  ListHasher hash;
  for (size_t d : *key.dims) hash.Add(DimValue(*key.pattern, d));
  return hash.hash();
}

bool SummaryTable::RowEq::operator()(const Value& a, const DimsOf& b) const {
  if (!a.is_list() || a.as_list().size() != b.dims->size()) return false;
  for (size_t k = 0; k < b.dims->size(); ++k) {
    if (a.as_list()[k] != DimValue(*b.pattern, (*b.dims)[k])) return false;
  }
  return true;
}

const SummaryRow* SummaryTable::Lookup(const ValueList& dim_values) const {
  auto it = rows_.find(Value::List(dim_values));
  return it == rows_.end() ? nullptr : &it->second;
}

const SummaryRow* SummaryTable::Lookup(const PatternView& pattern) const {
  auto it = rows_.find(DimsOf{&dims_, &pattern});
  return it == rows_.end() ? nullptr : &it->second;
}

bool SummaryTable::CanAnswer(const lang::DomainCallSpec& pattern) const {
  if (pattern.domain != key_.domain || pattern.function != key_.function ||
      pattern.args.size() != key_.arity) {
    return false;
  }
  for (size_t i = 0; i < pattern.args.size(); ++i) {
    if (pattern.args[i].is_constant() &&
        std::find(dims_.begin(), dims_.end(), i) == dims_.end()) {
      return false;  // constant at a dropped position
    }
  }
  return true;
}

Result<Aggregate> SummaryTable::EstimateForPattern(
    const lang::DomainCallSpec& pattern) const {
  if (!CanAnswer(pattern)) {
    return Status::InvalidArgument("summary table " + key_.ToString() +
                                   " cannot answer " + pattern.ToString());
  }
  std::optional<Aggregate> agg = EstimateMasked(PatternView(pattern), kAllArgs);
  if (!agg.has_value()) {
    return Status::NotFound("no summary rows matching " + pattern.ToString());
  }
  return *agg;
}

std::optional<Aggregate> SummaryTable::EstimateMasked(
    const PatternView& pattern, ArgMask const_mask) const {
  Aggregate agg;
  double sum_tf = 0, w_tf = 0, sum_ta = 0, w_ta = 0, sum_card = 0, w_card = 0;
  for (const auto& [row_key, row] : rows_) {
    ++agg.rows_scanned;
    bool matches = true;
    for (size_t k = 0; k < dims_.size(); ++k) {
      const size_t d = dims_[k];
      if (d < 64 && (const_mask & (ArgMask{1} << d)) == 0) continue;
      const Value* c = pattern.constant(d);
      if (c != nullptr && *c != row.dims[k]) {
        matches = false;
        break;
      }
    }
    if (!matches) continue;
    agg.matched += row.l;
    sum_tf += row.sum_t_first;
    w_tf += row.weight_t_first;
    sum_ta += row.sum_t_all;
    w_ta += row.weight_t_all;
    sum_card += row.sum_cardinality;
    w_card += row.weight_cardinality;
  }
  if (agg.matched == 0) return std::nullopt;
  if (w_tf > 0) {
    agg.cost.t_first_ms = sum_tf / w_tf;
    agg.has_t_first = true;
  }
  if (w_ta > 0) {
    agg.cost.t_all_ms = sum_ta / w_ta;
    agg.has_t_all = true;
  }
  if (w_card > 0) {
    agg.cost.cardinality = sum_card / w_card;
    agg.has_cardinality = true;
  }
  return agg;
}

size_t SummaryTable::ApproxBytes() const {
  size_t total = key_.domain.size() + key_.function.size() + 16 +
                 dims_.size() * 8;
  for (const auto& [row_key, row] : rows_) {
    total += 6 * 8 + 8;  // sums/weights + l
    for (const Value& v : row.dims) total += v.ApproxByteSize();
  }
  return total;
}

}  // namespace hermes::dcsm

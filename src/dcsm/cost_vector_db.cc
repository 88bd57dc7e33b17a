#include "dcsm/cost_vector_db.h"

#include <algorithm>
#include <cmath>

namespace hermes::dcsm {

CostVectorDatabase::~CostVectorDatabase() { FreeGroups(); }

void CostVectorDatabase::FreeGroups() {
  groups_.ForEach([](Group& group) {
    delete &group;
    return true;
  });
  groups_.Clear();
}

lang::DomainCallSpec PatternView::ToSpec() const {
  lang::DomainCallSpec spec;
  spec.domain = domain;
  spec.function = function;
  spec.args.reserve(arity);
  for (size_t i = 0; i < arity; ++i) {
    const Value* c = constant(i);
    spec.args.push_back(c != nullptr ? lang::Term::Const(*c)
                                     : lang::Term::Bound());
  }
  return spec;
}

CostVectorDatabase::Group* CostVectorDatabase::FindGroup(
    const CallGroupRef& ref, size_t hash) const {
  return groups_.Find(
      hash, [&](const Group& group) { return group.key.ref() == ref; });
}

void CostVectorDatabase::Record(CostRecord record) {
  record.record_time = clock_.Next();
  CallGroupKey key{record.call.domain, record.call.function,
                   record.call.args.size()};
  const size_t hash = key.Hash();
  Group* group = FindGroup(key.ref(), hash);
  if (group == nullptr) {
    group = new Group;
    group->key = std::move(key);
    groups_.Insert(group, hash);
  }
  group->records.push_back(std::move(record));
  ++total_records_;
}

void CostVectorDatabase::RecordExecution(const DomainCall& call,
                                         const CostVector& cost) {
  CostRecord record;
  record.call = call;
  record.cost = cost;
  Record(std::move(record));
}

const std::vector<CostRecord>* CostVectorDatabase::GetGroup(
    const CallGroupRef& ref) const {
  const Group* group = FindGroup(ref, ref.Hash());
  return group == nullptr ? nullptr : &group->records;
}

Result<Aggregate> CostVectorDatabase::Estimate(
    const lang::DomainCallSpec& pattern, double recency_halflife) const {
  for (const lang::Term& arg : pattern.args) {
    if (arg.is_variable()) {
      return Status::InvalidArgument(
          "cost patterns may contain only constants and '$b': " +
          pattern.ToString());
    }
  }
  CallGroupKey key{pattern.domain, pattern.function, pattern.args.size()};
  const std::vector<CostRecord>* records = GetGroup(key);
  if (records == nullptr) {
    return Status::NotFound("no statistics for " + key.ToString());
  }
  std::optional<Aggregate> agg = EstimateGroup(
      *records, PatternView(pattern), kAllArgs, recency_halflife);
  if (!agg.has_value()) {
    return Status::NotFound("no statistics matching " + pattern.ToString());
  }
  return *agg;
}

std::optional<Aggregate> CostVectorDatabase::EstimateGroup(
    const std::vector<CostRecord>& records, const PatternView& pattern,
    ArgMask const_mask, double recency_halflife) const {
  Aggregate agg;
  double w_tf = 0, w_ta = 0, w_card = 0;
  double sum_tf = 0, sum_ta = 0, sum_card = 0;
  uint64_t current = clock_.last();

  for (const CostRecord& record : records) {
    ++agg.rows_scanned;
    bool matches = true;
    for (size_t i = 0; i < pattern.arity; ++i) {
      if (i < 64 && (const_mask & (ArgMask{1} << i)) == 0) continue;
      const Value* c = pattern.constant(i);
      if (c != nullptr && *c != record.call.args[i]) {
        matches = false;
        break;
      }
    }
    if (!matches) continue;
    ++agg.matched;
    double weight = 1.0;
    if (recency_halflife > 0.0) {
      double age = static_cast<double>(current - record.record_time);
      weight = std::pow(0.5, age / recency_halflife);
    }
    if (record.has_t_first) {
      sum_tf += weight * record.cost.t_first_ms;
      w_tf += weight;
    }
    if (record.has_t_all) {
      sum_ta += weight * record.cost.t_all_ms;
      w_ta += weight;
    }
    if (record.has_cardinality) {
      sum_card += weight * record.cost.cardinality;
      w_card += weight;
    }
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

std::vector<CallGroupKey> CostVectorDatabase::Groups() const {
  std::vector<CallGroupKey> out;
  out.reserve(groups_.size());
  groups_.ForEach([&](const Group& group) {
    out.push_back(group.key);
    return true;
  });
  std::sort(out.begin(), out.end());
  return out;
}

size_t CostVectorDatabase::ApproxBytes() const {
  size_t total = 0;
  groups_.ForEach([&](const Group& group) {
    total += group.key.domain.size() + group.key.function.size() + 16;
    for (const CostRecord& record : group.records) {
      // Cost vector (3 doubles) + flags + timestamp + argument payload.
      total += 3 * 8 + 4 + 8;
      for (const Value& v : record.call.args) total += v.ApproxByteSize();
    }
    return true;
  });
  return total;
}

void CostVectorDatabase::Clear() {
  FreeGroups();
  total_records_ = 0;
}

}  // namespace hermes::dcsm

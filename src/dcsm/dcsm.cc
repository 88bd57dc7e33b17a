#include "dcsm/dcsm.h"

#include <algorithm>

namespace hermes::dcsm {

namespace {

/// The estimate of a pattern nothing is known about (unless
/// DcsmOptions::allow_default is off).
const CostVector kDefaultCost(250.0, 1000.0, 10.0);

}  // namespace

std::string EstimateSource::ToString(std::string_view domain) const {
  std::string out;
  switch (kind) {
    case Kind::kDefault: out = "default"; break;
    case Kind::kNative: out = "native:" + std::string(domain); break;
    case Kind::kSummary: out = "summary"; break;
    case Kind::kRaw: out = "raw"; break;
  }
  if (cim_fallback) out += "+cim-fallback";
  return out;
}

void Dcsm::RecordUnlocked(CostRecord record) {
  if (options_.auto_update_summaries) {
    CallGroupKey key{record.call.domain, record.call.function,
                     record.call.args.size()};
    auto it = summaries_.find(key);
    if (it != summaries_.end()) {
      for (SummaryTable& table : it->second) table.Fold(record);
    }
  }
  db_.Record(std::move(record));
}

void Dcsm::Record(CostRecord record) {
  records_total_->Add(1);
  std::unique_lock lock(mu_);
  RecordUnlocked(std::move(record));
}

void Dcsm::RecordBatch(std::vector<CostRecord> records) {
  if (records.empty()) return;
  records_total_->Add(records.size());
  std::unique_lock lock(mu_);
  for (CostRecord& record : records) RecordUnlocked(std::move(record));
}

void Dcsm::RecordExecution(const DomainCall& call, const CostVector& cost) {
  CostRecord record;
  record.call = call;
  record.cost = cost;
  Record(std::move(record));
}

Status Dcsm::BuildLosslessSummaries() {
  std::unique_lock lock(mu_);
  for (const CallGroupKey& key : db_.Groups()) {
    std::vector<size_t> dims(key.arity);
    for (size_t i = 0; i < key.arity; ++i) dims[i] = i;
    HERMES_RETURN_IF_ERROR(BuildSummaryUnlocked(key, std::move(dims)));
  }
  return Status::OK();
}

Status Dcsm::BuildSummary(const CallGroupKey& key, std::vector<size_t> dims) {
  std::unique_lock lock(mu_);
  return BuildSummaryUnlocked(key, std::move(dims));
}

Status Dcsm::BuildSummaryUnlocked(const CallGroupKey& key,
                                  std::vector<size_t> dims) {
  const std::vector<CostRecord>* records = db_.GetGroup(key);
  if (records == nullptr) {
    return Status::NotFound("no statistics for " + key.ToString());
  }
  HERMES_ASSIGN_OR_RETURN(SummaryTable table,
                          SummaryTable::Build(key, *records, std::move(dims)));
  std::vector<SummaryTable>& tables = summaries_[key];
  for (SummaryTable& existing : tables) {
    if (existing.dims() == table.dims()) {
      existing = std::move(table);
      return Status::OK();
    }
  }
  tables.push_back(std::move(table));
  // Keep most-specific (largest dims) first so estimation prefers them.
  std::sort(tables.begin(), tables.end(),
            [](const SummaryTable& a, const SummaryTable& b) {
              return a.dims().size() > b.dims().size();
            });
  return Status::OK();
}

Status Dcsm::BuildFullyLossySummaries() {
  std::unique_lock lock(mu_);
  for (const CallGroupKey& key : db_.Groups()) {
    HERMES_RETURN_IF_ERROR(BuildSummaryUnlocked(key, {}));
  }
  return Status::OK();
}

std::vector<size_t> Dcsm::InstantiableArgs(const lang::Program& program,
                                           const CallGroupKey& key) {
  std::vector<bool> instantiable(key.arity, false);
  for (const lang::Rule& rule : program.rules) {
    // Variables appearing in the rule head can be bound to constants by a
    // query (or a calling rule) during rewriting.
    std::vector<std::string> head_vars = rule.head.Variables();
    for (const lang::Atom& atom : rule.body) {
      if (!atom.is_domain_call() || atom.call.domain != key.domain ||
          atom.call.function != key.function ||
          atom.call.args.size() != key.arity) {
        continue;
      }
      for (size_t i = 0; i < atom.call.args.size(); ++i) {
        const lang::Term& t = atom.call.args[i];
        if (t.is_constant()) {
          instantiable[i] = true;
        } else if (t.is_variable()) {
          for (const std::string& hv : head_vars) {
            if (hv == t.var_name) {
              instantiable[i] = true;
              break;
            }
          }
        }
      }
    }
  }
  std::vector<size_t> out;
  for (size_t i = 0; i < instantiable.size(); ++i) {
    if (instantiable[i]) out.push_back(i);
  }
  return out;
}

Status Dcsm::BuildSummariesForProgram(const lang::Program& program) {
  std::unique_lock lock(mu_);
  for (const CallGroupKey& key : db_.Groups()) {
    HERMES_RETURN_IF_ERROR(
        BuildSummaryUnlocked(key, InstantiableArgs(program, key)));
  }
  return Status::OK();
}

Status Dcsm::RegisterNativeModel(const std::string& name,
                                 std::shared_ptr<Domain> domain) {
  if (domain == nullptr || !domain->HasCostModel()) {
    return Status::InvalidArgument("domain '" + name +
                                   "' does not provide a cost model");
  }
  std::unique_lock lock(mu_);
  native_models_[name] = std::move(domain);
  return Status::OK();
}

const std::vector<SummaryTable>* Dcsm::SummariesFor(
    const CallGroupKey& key) const {
  std::shared_lock lock(mu_);
  auto it = summaries_.find(key);
  return it == summaries_.end() ? nullptr : &it->second;
}

size_t Dcsm::TotalSummaryBytes() const {
  std::shared_lock lock(mu_);
  size_t total = 0;
  for (const auto& [key, tables] : summaries_) {
    for (const SummaryTable& table : tables) total += table.ApproxBytes();
  }
  return total;
}

size_t Dcsm::TotalSummaryRows() const {
  std::shared_lock lock(mu_);
  size_t total = 0;
  for (const auto& [key, tables] : summaries_) {
    for (const SummaryTable& table : tables) total += table.num_rows();
  }
  return total;
}

void Dcsm::BindMetrics(obs::MetricsRegistry& registry) {
  registry.Register("hermes_dcsm_records_total",
                    "Cost records ingested into the statistics database", {},
                    records_total_);
  registry.Register("hermes_dcsm_estimates_total",
                    "Cost estimates answered for the optimizer", {},
                    estimates_total_);
  registry.RegisterCallbackGauge(
      "hermes_dcsm_summary_rows", "Rows held across all summary tables", {},
      [this] { return static_cast<double>(TotalSummaryRows()); });
  registry.RegisterCallbackGauge(
      "hermes_dcsm_summary_bytes",
      "Approximate bytes held across all summary tables", {},
      [this] { return static_cast<double>(TotalSummaryBytes()); });
}

bool Dcsm::TryEstimateMasked(const PatternView& pattern, ArgMask const_mask,
                             const std::vector<SummaryTable>* tables,
                             const std::vector<CostRecord>* records,
                             CostEstimate* out, double* lookup_ms,
                             size_t* rows_scanned) const {
  if (tables != nullptr) {
    // Pass 1: a table whose dims equal the kept-constant set — one probe.
    for (const SummaryTable& table : *tables) {
      if (table.dims_mask() != const_mask) continue;
      *lookup_ms += params_.summary_lookup_ms;
      const SummaryRow* row = table.Lookup(pattern);
      if (row != nullptr) {
        out->cost = row->Mean();
        out->source.kind = EstimateSource::Kind::kSummary;
        out->records_matched = row->l;
        return true;
      }
    }
    // Pass 2: the most specific table that can answer (kept constants all
    // retained dimensions), via aggregation. Tables are sorted
    // most-specific first.
    for (const SummaryTable& table : *tables) {
      if (table.dims_mask() == const_mask ||
          (const_mask & ~table.dims_mask()) != 0) {
        continue;
      }
      std::optional<Aggregate> agg = table.EstimateMasked(pattern, const_mask);
      if (agg.has_value()) {
        *lookup_ms += params_.per_summary_row_ms *
                      static_cast<double>(agg->rows_scanned);
        *rows_scanned += agg->rows_scanned;
        out->cost = agg->cost;
        out->source.kind = EstimateSource::Kind::kSummary;
        out->records_matched = agg->matched;
        return true;
      }
      *lookup_ms += params_.per_summary_row_ms *
                    static_cast<double>(table.num_rows());
      *rows_scanned += table.num_rows();
    }
  }

  if (records != nullptr) {
    std::optional<Aggregate> agg = db_.EstimateGroup(
        *records, pattern, const_mask, options_.recency_halflife);
    if (agg.has_value()) {
      *lookup_ms +=
          params_.per_record_ms * static_cast<double>(agg->rows_scanned);
      *rows_scanned += agg->rows_scanned;
      out->cost = agg->cost;
      out->source.kind = EstimateSource::Kind::kRaw;
      out->records_matched = agg->matched;
      return true;
    }
    *lookup_ms += params_.per_record_ms * static_cast<double>(records->size());
    *rows_scanned += records->size();
  }
  return false;
}

bool Dcsm::RelaxAndEstimate(const PatternView& pattern, CostEstimate* out,
                            double* lookup_ms, size_t* rows_scanned) const {
  // One probe each for the pattern's summary tables and raw record group;
  // the group (and thus both probes) is invariant under relaxation.
  const CallGroupRef group = pattern.group();
  const std::vector<SummaryTable>* tables = nullptr;
  if (options_.use_summaries) {
    auto it = summaries_.find(group);
    if (it != summaries_.end()) tables = &it->second;
  }
  const std::vector<CostRecord>* records =
      options_.use_raw_database ? db_.GetGroup(group) : nullptr;
  if (tables == nullptr && records == nullptr) return false;

  // The constant positions; the lattice below walks subsets of the first
  // 16, which is all of them whenever it walks at all.
  size_t constants[16] = {};
  size_t n = 0;
  ArgMask full_mask = 0;
  for (size_t i = 0; i < pattern.arity; ++i) {
    if (pattern.constant(i) == nullptr) continue;
    if (i < 64) full_mask |= ArgMask{1} << i;
    if (n < 16) constants[n] = i;
    ++n;
  }

  // Relaxation lattice: subsets of the constant positions, most specific
  // first; within a size class, deterministic (mask) order. Calls with
  // absurdly many constant arguments fall straight through to the
  // fully-relaxed pattern rather than enumerating 2^n subsets.
  if (n > 16) {
    return TryEstimateMasked(pattern, full_mask, tables, records, out,
                             lookup_ms, rows_scanned) ||
           TryEstimateMasked(pattern, 0, tables, records, out, lookup_ms,
                             rows_scanned);
  }
  for (size_t keep = n + 1; keep-- > 0;) {
    for (uint64_t mask = 0; mask < (1ULL << n); ++mask) {
      if (static_cast<size_t>(__builtin_popcountll(mask)) != keep) continue;
      ArgMask const_mask = 0;
      for (size_t b = 0; b < n; ++b) {
        if ((mask & (1ULL << b)) && constants[b] < 64) {
          const_mask |= ArgMask{1} << constants[b];
        }
      }
      if (TryEstimateMasked(pattern, const_mask, tables, records, out,
                            lookup_ms, rows_scanned)) {
        return true;
      }
    }
  }
  return false;
}

Result<CostEstimate> Dcsm::Cost(const lang::DomainCallSpec& pattern) const {
  for (const lang::Term& arg : pattern.args) {
    if (arg.is_variable()) {
      estimates_total_->Add(1);
      return Status::InvalidArgument(
          "cost patterns may contain only constants and '$b': " +
          pattern.ToString());
    }
  }
  return Cost(PatternView(pattern));
}

Result<CostEstimate> Dcsm::Cost(const PatternView& pattern) const {
  estimates_total_->Add(1);
  std::shared_lock lock(mu_);

  // Native cost models take precedence (Section 6: "the estimates for
  // calls to these domains will be directed to their respective domains").
  auto it = native_models_.find(pattern.domain);
  if (it != native_models_.end()) {
    Result<CostVector> native = it->second->EstimateCost(pattern.ToSpec());
    if (native.ok()) {
      CostEstimate est;
      est.cost = *native;
      est.source.kind = EstimateSource::Kind::kNative;
      est.lookup_ms = params_.summary_lookup_ms;
      return est;
    }
  }

  CostEstimate est;
  double lookup_ms = 0.0;
  size_t rows_scanned = 0;
  bool found = RelaxAndEstimate(pattern, &est, &lookup_ms, &rows_scanned);

  // A CIM wrapper with no statistics of its own behaves, in the worst case
  // (a cache miss), like the underlying domain plus negligible overhead —
  // so fall back to the wrapped domain's statistics before giving up.
  if (!found && pattern.domain.starts_with("cim_")) {
    PatternView underlying = pattern;
    underlying.domain.remove_prefix(4);
    found = RelaxAndEstimate(underlying, &est, &lookup_ms, &rows_scanned);
    est.source.cim_fallback = found;
  }

  est.lookup_ms = lookup_ms;
  est.rows_scanned = rows_scanned;
  if (!found) {
    if (!options_.allow_default) {
      return Status::NotFound("no statistics available for " +
                              pattern.ToSpec().ToString());
    }
    est.cost = kDefaultCost;
    est.source = EstimateSource{};
  }
  return est;
}

}  // namespace hermes::dcsm

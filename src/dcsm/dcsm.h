#ifndef HERMES_DCSM_DCSM_H_
#define HERMES_DCSM_DCSM_H_

#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "dcsm/cost_vector_db.h"
#include "dcsm/summary_table.h"
#include "domain/domain.h"
#include "lang/ast.h"
#include "obs/metrics.h"

namespace hermes::dcsm {

/// Behavioural switches of the DCSM module.
struct DcsmOptions {
  bool use_summaries = true;      ///< Consult summary tables.
  bool use_raw_database = true;   ///< Fall back to the cost vector database.
  /// Recency half-life (in logical record ticks) for raw-database
  /// aggregation; 0 disables weighting. (The paper's "giving precedence to
  /// more recent statistics" direction.)
  double recency_halflife = 0.0;
  /// False: unknown patterns are NotFound instead of the default estimate.
  bool allow_default = true;
  /// Incrementally fold newly recorded executions into any existing
  /// summary tables of their call group, keeping summaries equivalent to
  /// an offline rebuild. Off by default (the paper performs summarization
  /// offline); turn on for long-running mediators that estimate from
  /// summaries while statistics keep flowing.
  bool auto_update_summaries = false;
};

/// Simulated lookup-time parameters, used by the summarization-tradeoff
/// experiments ("the time required for calculating the cost may be
/// prohibitively long" on raw statistics).
struct DcsmCostParams {
  double summary_lookup_ms = 0.05;   ///< Hash probe into a summary table.
  double per_summary_row_ms = 0.01;  ///< Scanning one summary row.
  double per_record_ms = 0.02;       ///< Scanning one raw statistics record.
};

/// Where a cost answer came from: a tag, rendered as text only where it
/// is printed (EXPLAIN's `src=`, the diagnostics bundle rows).
struct EstimateSource {
  enum class Kind : uint8_t { kDefault, kNative, kSummary, kRaw };
  Kind kind = Kind::kDefault;
  /// A `cim_` pattern answered from its wrapped domain's statistics.
  bool cim_fallback = false;

  /// "native:<domain>", "summary", "raw" or "default", plus
  /// "+cim-fallback" for a fallback answer. `domain` is the estimated
  /// pattern's domain, the one a native model answers for.
  std::string ToString(std::string_view domain) const;
};

/// One cost answer from the DCSM.
struct CostEstimate {
  CostVector cost;
  EstimateSource source;
  double lookup_ms = 0.0;    ///< Simulated time spent estimating.
  size_t rows_scanned = 0;   ///< Statistics rows examined.
  size_t records_matched = 0;
};

/// Section 6's Domain Cost and Statistics Module.
///
/// DCSM records the cost vector of every executed domain call and answers
/// `cost(pattern)` questions for call patterns whose arguments are
/// constants or `$b`. Estimation follows the Section 6.3 relaxation
/// algorithm: try the most specific constant set first, preferring an
/// exact summary-table lookup, then summary aggregation, then raw-database
/// aggregation, and relax constants to `$b` until something matches.
///
/// Concurrency: guarded by one reader/writer lock — estimation (`Cost`,
/// the optimizer's hot path) takes it shared, ingestion and summary
/// management take it exclusive. Queries do not contend on it per call:
/// the executor buffers a query's observations and flushes them in one
/// `RecordBatch` when the query ends, so the lock is taken once per query,
/// not once per domain call. The `database()`
/// accessors are the exception: they expose unguarded internals for
/// wiring- and report-time use only (no concurrent queries in flight).
class Dcsm {
 public:
  explicit Dcsm(DcsmOptions options = {}, DcsmCostParams params = {})
      : options_(options), params_(params) {}

  Dcsm(const Dcsm&) = delete;
  Dcsm& operator=(const Dcsm&) = delete;

  // ---- Statistics capture ------------------------------------------------

  /// Records one executed call (the online statistics-caching path).
  void RecordExecution(const DomainCall& call, const CostVector& cost);
  /// Records a partially-observed execution.
  void Record(CostRecord record);
  /// Records a whole query's buffered observations under one lock
  /// acquisition, in order (see the class comment's flush design).
  void RecordBatch(std::vector<CostRecord> records);

  // ---- Summarization management -------------------------------------------

  /// Builds a lossless summary (all argument positions retained) for every
  /// call group currently in the database.
  Status BuildLosslessSummaries();

  /// Builds a summary for one group with the given retained positions
  /// (lossy when a strict subset). Replaces any same-dims table.
  Status BuildSummary(const CallGroupKey& key, std::vector<size_t> dims);

  /// Builds maximally lossy summaries (all positions dropped) for every
  /// group — the configuration of the paper's Figure 6 "Lossy" column.
  Status BuildFullyLossySummaries();

  /// Inspects a mediator program and builds, for every call group, the
  /// summary retaining only the argument positions that could ever be
  /// instantiated to a specific constant during rewriting (Example 6.2's
  /// dimension-dropping rule).
  Status BuildSummariesForProgram(const lang::Program& program);

  void ClearSummaries() {
    std::unique_lock lock(mu_);
    summaries_.clear();
  }

  /// Argument positions of d:f/arity that some rule in `program` could
  /// instantiate to a constant (the position holds a constant, or a
  /// variable also occurring in that rule's head).
  static std::vector<size_t> InstantiableArgs(const lang::Program& program,
                                              const CallGroupKey& key);

  // ---- Native cost models --------------------------------------------------

  /// Registers `domain` (which must have HasCostModel()) to answer cost
  /// questions for logical domain `name` directly.
  Status RegisterNativeModel(const std::string& name,
                             std::shared_ptr<Domain> domain);

  // ---- Estimation ----------------------------------------------------------

  /// The single `cost` function of Section 6: estimates the cost vector of
  /// a call pattern (`$b` marks bound-but-unknown arguments). The summary
  /// tables, the raw group and a `cim_` domain's fallback to its wrapped
  /// domain are all probed through the view, so only a native model's
  /// answer copies the pattern.
  Result<CostEstimate> Cost(const PatternView& pattern) const;
  /// Cost() of a spec, whose arguments must be constants or `$b`: a
  /// variable is InvalidArgument.
  Result<CostEstimate> Cost(const lang::DomainCallSpec& pattern) const;

  // ---- Introspection ---------------------------------------------------------

  /// Unguarded access to the raw statistics database — wiring/report-time
  /// only; must not race with concurrent Record*/Cost calls.
  const CostVectorDatabase& database() const { return db_; }
  CostVectorDatabase& database() { return db_; }
  DcsmOptions& options() { return options_; }
  const DcsmCostParams& cost_params() const { return params_; }

  /// Summary tables of a group (empty when none built). The pointer is
  /// only stable while no writer (Record*/Build*/Clear) runs.
  const std::vector<SummaryTable>* SummariesFor(const CallGroupKey& key) const;

  size_t TotalSummaryBytes() const;
  size_t TotalSummaryRows() const;

  /// Registers ingestion/estimation counters and live summary-footprint
  /// callback gauges with `registry`. The gauges capture `this`, so the
  /// DCSM must outlive any Expose() call on the registry.
  void BindMetrics(obs::MetricsRegistry& registry);

 private:
  /// Record/BuildSummary bodies without locking; callers hold `mu_`
  /// exclusively (public methods call each other, so the lock cannot be
  /// recursive).
  void RecordUnlocked(CostRecord record);
  Status BuildSummaryUnlocked(const CallGroupKey& key,
                              std::vector<size_t> dims);

  /// Walks the Section 6.3 relaxation lattice for `pattern`: probes the
  /// pattern's summary tables and raw record group once, then tries
  /// kept-constant subsets (most specific first, mask order within a size
  /// class) as bitmasks — no relaxed spec copies. Returns true and fills
  /// `*out` on success; accumulates lookup cost either way. Caller holds
  /// `mu_` (shared).
  bool RelaxAndEstimate(const PatternView& pattern, CostEstimate* out,
                        double* lookup_ms, size_t* rows_scanned) const;

  /// Tries to answer `pattern` restricted to the kept-constant positions in
  /// `const_mask` (see ArgMask), consulting the pre-located `tables` and
  /// `records` (either may be null). Returns true and fills `*out` on
  /// success; accumulates lookup cost either way.
  bool TryEstimateMasked(const PatternView& pattern, ArgMask const_mask,
                         const std::vector<SummaryTable>* tables,
                         const std::vector<CostRecord>* records,
                         CostEstimate* out, double* lookup_ms,
                         size_t* rows_scanned) const;

  mutable std::shared_mutex mu_;
  DcsmOptions options_;
  DcsmCostParams params_;
  CostVectorDatabase db_;
  std::map<CallGroupKey, std::vector<SummaryTable>, std::less<>> summaries_;
  std::map<std::string, std::shared_ptr<Domain>, std::less<>> native_models_;

  // Live ingestion/estimation counters (outside mu_; obs counters are
  // internally lock-light, so Record*/Cost bump them without extra locking).
  std::shared_ptr<obs::Counter> records_total_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> estimates_total_ =
      std::make_shared<obs::Counter>();
};

}  // namespace hermes::dcsm

#endif  // HERMES_DCSM_DCSM_H_

#ifndef HERMES_ENGINE_DIAGNOSTICS_H_
#define HERMES_ENGINE_DIAGNOSTICS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "dcsm/drift.h"
#include "engine/op/op.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hermes {

/// Tuning of Mediator::EnableDiagnostics (see DESIGN.md "Diagnostics &
/// drift"). All thresholds are in simulated milliseconds.
struct DiagnosticsOptions {
  /// Per-thread flight-recorder ring capacity (events).
  size_t ring_capacity = 4096;
  /// Absolute slow-query threshold on Ta; 0 disables the absolute check.
  double slow_threshold_sim_ms = 0.0;
  /// Trailing-watermark capture: a query slower than `watermark_factor` ×
  /// the trailing p99 of the last 256 Ta values is captured. 0 disables.
  double watermark_factor = 0.0;
  /// Watermark is armed only once this many samples accumulated.
  size_t watermark_min_samples = 32;
  /// Degraded queries and queries that re-optimized mid-flight (the
  /// bundle's replan.txt records the trigger and the before/after suffix)
  /// are always captured; partial and breaker-tripped ones by default.
  bool capture_on_partial = true;
  bool capture_on_breaker_open = true;
  /// Directory debug bundles are persisted under; empty keeps bundles
  /// in memory only.
  std::string bundle_dir;
  /// Bound on retained (and persisted) bundles; older in-memory bundles
  /// are dropped first.
  size_t max_bundles = 8;
  /// Size-based rotation bound of the on-disk slow_queries.log (bytes):
  /// when an append would grow the file past this, the file is first
  /// rotated aside to slow_queries.log.1 (replacing any previous rotation).
  /// 0 disables rotation (the log grows without bound).
  size_t slow_log_max_bytes = 256 * 1024;
  /// DCSM drift EWMA tuning.
  dcsm::DriftOptions drift;
};

/// One per-operator est-vs-actual row of the slow-query log.
struct SlowQueryRow {
  size_t depth = 0;
  std::string op;     ///< OpKindName, e.g. "domain_call".
  std::string label;  ///< Full EXPLAIN label.
  uint64_t opens = 0;
  uint64_t rows = 0;
  double sim_total_ms = 0.0;
  bool has_estimate = false;  ///< DomainCall stamped with a DCSM answer.
  double est_tf_ms = 0.0;
  double est_ta_ms = 0.0;
  double est_card = 0.0;
  std::string est_source;

  std::string ToString() const;
  std::string ToJson() const;
};

/// Everything captured about one anomalous query: the four bundle
/// components (events, trace, EXPLAIN, metrics) plus the structured
/// slow-query rows.
struct DebugBundle {
  uint64_t query_id = 0;
  std::string reason;  ///< "slow-threshold", "degraded", "breaker-open", ...
  std::string query_text;
  double t_all_ms = 0.0;
  std::string completeness;
  std::vector<obs::FlightEvent> events;
  std::string chrome_trace;   ///< Chrome trace derived from `events`.
  std::string explain_text;   ///< EXPLAIN with actuals.
  std::string prometheus;     ///< Full registry snapshot at capture time.
  /// Replan decision record (trigger + old/new suffix EXPLAIN); empty when
  /// the query executed its original plan.
  std::string replan_text;
  std::vector<SlowQueryRow> rows;
  std::string dir;  ///< Persisted location; empty when in-memory only.

  std::string ManifestJson() const;
  /// The structured slow-query log record (header + per-operator rows).
  std::string SlowQueryRecord() const;
};

/// Inputs MaybeCapture evaluates for one finished query. The pointers
/// borrow from the Query() call frame and are only used synchronously.
struct DiagnosticsCaptureInput {
  uint64_t query_id = 0;
  std::string_view query_text;
  double t_all_ms = 0.0;
  std::string completeness = "complete";
  bool degraded = false;
  bool partial = false;
  bool breaker_tripped = false;
  /// Mid-query replan decisions (ReplanEvent::ToString, concatenated);
  /// empty when the query ran its original plan.
  std::string replan_text;
  /// Renders EXPLAIN-with-actuals; called only when capturing.
  std::function<std::string()> explain_fn;
  engine::op::PhysicalOp* root = nullptr;
};

/// The anomaly-capture policy and bundle store behind
/// Mediator::EnableDiagnostics. Thread-safe: QueryPool workers call
/// MaybeCapture concurrently.
class DiagnosticsCenter {
 public:
  DiagnosticsCenter(DiagnosticsOptions options, obs::FlightRecorder* recorder,
                    dcsm::DriftTracker* drift,
                    std::shared_ptr<obs::MetricsRegistry> registry);

  /// Feeds one finished query through the capture policy. Returns the
  /// capture reason, or an empty string when the query was unremarkable.
  /// Without a watermark an unremarkable query takes no lock.
  std::string MaybeCapture(const DiagnosticsCaptureInput& input);

  /// Captures a bundle on a brownout-ladder transition (`from_level` →
  /// `to_level` at observed shed rate `shed_rate`): the flight recorder's
  /// resident events plus a metrics snapshot, preserving the system state
  /// around the level change. Called by the mediator's transition hook.
  void CaptureBrownoutTransition(int from_level, int to_level,
                                 double shed_rate);

  /// Writes an on-demand snapshot (all resident recorder events, the
  /// Prometheus exposition, the drift report, the slow-query log) to
  /// `dir`, creating it if needed.
  Status Dump(const std::string& dir) const;

  std::vector<DebugBundle> bundles() const;
  std::vector<std::string> slow_query_log() const;
  uint64_t captures() const;
  const DiagnosticsOptions& options() const { return options_; }

 private:
  /// Policy decision only; "" = no capture. `p99` is the trailing
  /// watermark before this query, 0 while unarmed.
  const char* CaptureReason(const DiagnosticsCaptureInput& input,
                            double p99) const;
  /// Folds `t_all_ms` into the watermark window and returns the trailing
  /// p99 of the queries before it (0 while the window is not yet armed).
  /// Caller holds mu_.
  double ObserveTaLocked(double t_all_ms);
  /// Trailing p99 of the watermark window. Caller holds mu_.
  double TrailingP99Locked() const;
  /// Writes the bundle's files under options_.bundle_dir; sets bundle.dir.
  Status Persist(DebugBundle& bundle, size_t index) const;
  /// Appends one record to the bounded in-memory log and — when a bundle
  /// dir is configured — the size-rotated on-disk slow_queries.log.
  /// Caller holds mu_.
  void AppendSlowRecordLocked(const std::string& record);

  const DiagnosticsOptions options_;
  obs::FlightRecorder* const recorder_;
  dcsm::DriftTracker* const drift_;
  const std::shared_ptr<obs::MetricsRegistry> registry_;

  mutable std::mutex mu_;
  std::deque<double> recent_ta_;      ///< Watermark window, when armed.
  std::deque<DebugBundle> bundles_;   ///< Newest-last, bounded.
  std::deque<std::string> slow_log_;  ///< Structured records, bounded.
  uint64_t captures_ = 0;              ///< Total captures (incl. dropped).

  std::shared_ptr<obs::Counter> captures_total_;
};

}  // namespace hermes

#endif  // HERMES_ENGINE_DIAGNOSTICS_H_

#include "engine/diagnostics.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

#include "common/io.h"
#include "common/strings.h"
#include "domain/overload.h"
#include "engine/op/domain_call_op.h"

namespace hermes {

namespace {

/// Ta samples kept for the trailing watermark.
constexpr size_t kWatermarkWindow = 256;
/// In-memory slow-query records kept (oldest dropped first).
constexpr size_t kSlowLogMaxRecords = 256;

std::string EventsJson(const std::vector<obs::FlightEvent>& events) {
  std::string out = "{\"events\":[";
  for (size_t i = 0; i < events.size(); ++i) {
    if (i > 0) out += ",";
    out += events[i].ToJson();
  }
  out += "]}";
  return out;
}

/// Per-operator est-vs-actual rows of the executed tree; each DomainCall
/// row's estimate is its call site's compile-time stamp.
std::vector<SlowQueryRow> CollectRows(engine::op::PhysicalOp* root) {
  std::vector<SlowQueryRow> rows;
  if (root == nullptr) return rows;
  root->VisitTree([&rows](engine::op::PhysicalOp& op, size_t depth) {
    SlowQueryRow row;
    row.depth = depth;
    row.op = engine::op::OpKindName(op.kind());
    row.label = op.label();
    row.opens = op.stats().opens;
    row.rows = op.stats().rows;
    row.sim_total_ms = op.stats().sim_total_ms;
    auto* call = dynamic_cast<engine::op::DomainCallOp*>(&op);
    if (call != nullptr && call->estimate().has_value() &&
        call->estimate()->answer.has_value()) {
      const dcsm::CostEstimate& est = *call->estimate()->answer;
      row.has_estimate = true;
      row.est_tf_ms = est.cost.t_first_ms;
      row.est_ta_ms = est.cost.t_all_ms;
      row.est_card = est.cost.cardinality;
      row.est_source = est.source.ToString(call->goal().call.domain);
    }
    rows.push_back(std::move(row));
  });
  return rows;
}

}  // namespace

std::string SlowQueryRow::ToString() const {
  std::string out(depth * 2, ' ');
  out += label + "  actual=[rows=" + std::to_string(rows) +
         " opens=" + std::to_string(opens) +
         " sim=" + FormatNumber(sim_total_ms) + "ms]";
  if (has_estimate) {
    out += " est=[Tf=" + FormatNumber(est_tf_ms) +
           " Ta=" + FormatNumber(est_ta_ms) +
           " card=" + FormatNumber(est_card) + " src=" + est_source + "]";
  }
  return out;
}

std::string SlowQueryRow::ToJson() const {
  std::string out = "{\"depth\":" + std::to_string(depth) + ",\"op\":\"" +
                    JsonEscape(op) + "\",\"label\":\"" + JsonEscape(label) +
                    "\",\"opens\":" + std::to_string(opens) +
                    ",\"rows\":" + std::to_string(rows) +
                    ",\"sim_total_ms\":" + FormatNumber(sim_total_ms);
  if (has_estimate) {
    out += ",\"est\":{\"tf_ms\":" + FormatNumber(est_tf_ms) +
           ",\"ta_ms\":" + FormatNumber(est_ta_ms) +
           ",\"card\":" + FormatNumber(est_card) + ",\"source\":\"" +
           JsonEscape(est_source) + "\"}";
  }
  out += "}";
  return out;
}

std::string DebugBundle::ManifestJson() const {
  std::string out = "{\"query_id\":" + std::to_string(query_id) +
                    ",\"reason\":\"" + JsonEscape(reason) + "\",\"query\":\"" +
                    JsonEscape(query_text) +
                    "\",\"t_all_sim_ms\":" + FormatNumber(t_all_ms) +
                    ",\"completeness\":\"" + JsonEscape(completeness) +
                    "\",\"event_count\":" + std::to_string(events.size()) +
                    ",\"components\":{\"events\":\"events.json\","
                    "\"trace\":\"trace.json\",\"explain\":\"explain.txt\","
                    "\"metrics\":\"metrics.prom\"";
  if (!replan_text.empty()) out += ",\"replan\":\"replan.txt\"";
  out += "},\"rows\":[";
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) out += ",";
    out += rows[i].ToJson();
  }
  out += "]}";
  return out;
}

std::string DebugBundle::SlowQueryRecord() const {
  std::string out = "slow-query q" + std::to_string(query_id) +
                    " reason=" + reason + " t_all=" + FormatNumber(t_all_ms) +
                    "ms completeness=" + completeness + " query=" + query_text +
                    "\n";
  for (const SlowQueryRow& row : rows) out += "  " + row.ToString() + "\n";
  return out;
}

DiagnosticsCenter::DiagnosticsCenter(
    DiagnosticsOptions options, obs::FlightRecorder* recorder,
    dcsm::DriftTracker* drift, std::shared_ptr<obs::MetricsRegistry> registry)
    : options_(std::move(options)),
      recorder_(recorder),
      drift_(drift),
      registry_(std::move(registry)) {
  if (registry_ != nullptr) {
    captures_total_ = registry_->GetOrAddCounter(
        "hermes_diag_captures_total",
        "Debug bundles auto-captured by the diagnostics policy.");
  }
}

double DiagnosticsCenter::TrailingP99Locked() const {
  if (recent_ta_.empty()) return 0.0;
  std::vector<double> sorted(recent_ta_.begin(), recent_ta_.end());
  size_t idx = static_cast<size_t>(0.99 * static_cast<double>(sorted.size()));
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  std::nth_element(sorted.begin(), sorted.begin() + idx, sorted.end());
  return sorted[idx];
}

double DiagnosticsCenter::ObserveTaLocked(double t_all_ms) {
  // The watermark compares against queries *before* this one.
  const double p99 = recent_ta_.size() >= options_.watermark_min_samples
                         ? TrailingP99Locked()
                         : 0.0;
  recent_ta_.push_back(t_all_ms);
  while (recent_ta_.size() > kWatermarkWindow) {
    recent_ta_.pop_front();
  }
  return p99;
}

const char* DiagnosticsCenter::CaptureReason(
    const DiagnosticsCaptureInput& input, double p99) const {
  if (options_.slow_threshold_sim_ms > 0.0 &&
      input.t_all_ms >= options_.slow_threshold_sim_ms) {
    return "slow-threshold";
  }
  if (p99 > 0.0 && input.t_all_ms > options_.watermark_factor * p99) {
    return "slow-watermark";
  }
  if (input.breaker_tripped && options_.capture_on_breaker_open) {
    return "breaker-open";
  }
  if (!input.replan_text.empty()) return "replan";
  if (input.degraded) return "degraded";
  if (input.partial && options_.capture_on_partial) return "partial";
  return "";
}

Status DiagnosticsCenter::Persist(DebugBundle& bundle, size_t index) const {
  char name[64];
  std::snprintf(name, sizeof(name), "bundle_%03zu_q%llu", index,
                static_cast<unsigned long long>(bundle.query_id));
  std::filesystem::path dir =
      std::filesystem::path(options_.bundle_dir) / name;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create bundle directory " + dir.string() +
                            ": " + ec.message());
  }
  HERMES_RETURN_IF_ERROR(WriteStringToFile((dir / "manifest.json").string(),
                                           bundle.ManifestJson()));
  HERMES_RETURN_IF_ERROR(WriteStringToFile((dir / "events.json").string(),
                                           EventsJson(bundle.events)));
  HERMES_RETURN_IF_ERROR(
      WriteStringToFile((dir / "trace.json").string(), bundle.chrome_trace));
  HERMES_RETURN_IF_ERROR(
      WriteStringToFile((dir / "explain.txt").string(), bundle.explain_text));
  HERMES_RETURN_IF_ERROR(
      WriteStringToFile((dir / "metrics.prom").string(), bundle.prometheus));
  if (!bundle.replan_text.empty()) {
    HERMES_RETURN_IF_ERROR(WriteStringToFile((dir / "replan.txt").string(),
                                             bundle.replan_text));
  }
  bundle.dir = dir.string();
  return Status::OK();
}

void DiagnosticsCenter::AppendSlowRecordLocked(const std::string& record) {
  slow_log_.push_back(record);
  while (slow_log_.size() > kSlowLogMaxRecords) {
    slow_log_.pop_front();
  }
  if (options_.bundle_dir.empty()) return;
  // The rolling structured log sits beside the bundles, rotated by size so
  // a sustained anomaly storm (e.g. a brownout) cannot grow it unbounded.
  std::error_code ec;
  std::filesystem::create_directories(options_.bundle_dir, ec);
  if (ec) return;
  std::filesystem::path path =
      std::filesystem::path(options_.bundle_dir) / "slow_queries.log";
  if (options_.slow_log_max_bytes > 0) {
    uintmax_t size = std::filesystem::file_size(path, ec);
    if (!ec && size + record.size() > options_.slow_log_max_bytes) {
      // Best effort: a failed rotation degrades to an oversized log, never
      // a failed capture.
      std::filesystem::rename(path, path.string() + ".1", ec);
    }
  }
  std::ofstream log(path, std::ios::app);
  if (log) log << record;
}

void DiagnosticsCenter::CaptureBrownoutTransition(int from_level, int to_level,
                                                  double shed_rate) {
  std::lock_guard<std::mutex> lock(mu_);
  DebugBundle bundle;
  bundle.reason = "brownout-transition";
  bundle.query_text =
      std::string("brownout ") +
      overload::BrownoutController::LevelName(from_level) + " -> " +
      overload::BrownoutController::LevelName(to_level) +
      " shed_rate=" + FormatNumber(shed_rate);
  bundle.completeness = overload::BrownoutController::LevelName(to_level);
  // No single query owns a ladder transition: snapshot the recorder's
  // resident events across queries plus the metrics at this instant.
  if (recorder_ != nullptr) bundle.events = recorder_->SnapshotAll();
  if (registry_ != nullptr) bundle.prometheus = registry_->ExposePrometheus();

  AppendSlowRecordLocked(bundle.SlowQueryRecord());
  const size_t index = captures_;
  ++captures_;
  if (captures_total_ != nullptr) captures_total_->Add(1);
  if (!options_.bundle_dir.empty() && index < options_.max_bundles) {
    (void)Persist(bundle, index);
  }
  bundles_.push_back(std::move(bundle));
  while (bundles_.size() > options_.max_bundles) bundles_.pop_front();
}

std::string DiagnosticsCenter::MaybeCapture(
    const DiagnosticsCaptureInput& input) {
  // Only the watermark keeps state across queries; without it the policy
  // is a function of this query and the options alone.
  double p99 = 0.0;
  if (options_.watermark_factor > 0.0) {
    std::lock_guard<std::mutex> lock(mu_);
    p99 = ObserveTaLocked(input.t_all_ms);
  }
  std::string reason = CaptureReason(input, p99);
  if (reason.empty()) return reason;

  std::lock_guard<std::mutex> lock(mu_);
  DebugBundle bundle;
  bundle.query_id = input.query_id;
  bundle.reason = reason;
  bundle.query_text = input.query_text;
  bundle.t_all_ms = input.t_all_ms;
  bundle.completeness = input.completeness;
  // The trace is a view of the same slice as events.json; a query that
  // outran its ring shows only the resident suffix in both.
  obs::Tracer trace;
  trace.set_query_text(bundle.query_text);
  if (recorder_ != nullptr) {
    bundle.events = recorder_->SnapshotQuery(input.query_id);
    for (const obs::FlightEvent& ev : bundle.events) trace.Append(ev);
  }
  bundle.chrome_trace = trace.ToChromeJson();
  bundle.replan_text = input.replan_text;
  if (input.explain_fn) bundle.explain_text = input.explain_fn();
  if (registry_ != nullptr) bundle.prometheus = registry_->ExposePrometheus();
  bundle.rows = CollectRows(input.root);

  AppendSlowRecordLocked(bundle.SlowQueryRecord());
  const size_t index = captures_;
  ++captures_;
  if (captures_total_ != nullptr) captures_total_->Add(1);

  if (!options_.bundle_dir.empty() && index < options_.max_bundles) {
    // Persistence failures (full disk, bad path) degrade the capture to
    // in-memory; diagnostics must never fail the query they describe.
    (void)Persist(bundle, index);
  }
  bundles_.push_back(std::move(bundle));
  while (bundles_.size() > options_.max_bundles) bundles_.pop_front();
  return reason;
}

Status DiagnosticsCenter::Dump(const std::string& dir) const {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create diagnostics directory " + dir +
                            ": " + ec.message());
  }
  std::filesystem::path base(dir);
  if (recorder_ != nullptr) {
    HERMES_RETURN_IF_ERROR(WriteStringToFile(
        (base / "events.json").string(), EventsJson(recorder_->SnapshotAll())));
  }
  if (registry_ != nullptr) {
    HERMES_RETURN_IF_ERROR(WriteStringToFile((base / "metrics.prom").string(),
                                             registry_->ExposePrometheus()));
  }
  if (drift_ != nullptr) {
    HERMES_RETURN_IF_ERROR(WriteStringToFile((base / "drift.txt").string(),
                                             drift_->Report().ToString()));
  }
  std::string log;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::string& record : slow_log_) log += record;
  }
  return WriteStringToFile((base / "slow_queries.log").string(), log);
}

std::vector<DebugBundle> DiagnosticsCenter::bundles() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<DebugBundle>(bundles_.begin(), bundles_.end());
}

std::vector<std::string> DiagnosticsCenter::slow_query_log() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<std::string>(slow_log_.begin(), slow_log_.end());
}

uint64_t DiagnosticsCenter::captures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return captures_;
}

}  // namespace hermes

#ifndef HERMES_DCSM_DRIFT_H_
#define HERMES_DCSM_DRIFT_H_

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "dcsm/dcsm.h"
#include "domain/cost.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace hermes::dcsm {

/// Tuning of the drift EWMA (see DESIGN.md "Diagnostics & drift").
struct DriftOptions {
  /// EWMA smoothing factor: err_ewma <- alpha*err + (1-alpha)*err_ewma.
  double alpha = 0.2;
  /// Relative-error level at which a group is flagged as drifted (1.0 =
  /// the observation is 100% away from the estimate, sustained).
  double threshold = 1.0;
  /// EWMA warm-up: groups with fewer samples are never flagged, and the
  /// EWMA seeds from the *trimmed mean* (max sample dropped, per
  /// dimension) of the first min_samples observations — one outlier in
  /// the warm-up window cannot trip `drift_exceeded` on its own.
  uint64_t min_samples = 3;
};

/// Drift state of one (site, domain, adornment) group.
struct DriftEntry {
  std::string site;
  std::string domain;     ///< Logical domain ("video", not "cim_video").
  std::string adornment;  ///< 'c' per constant arg, 'b' per bound variable.
  double ewma_tf = 0.0;   ///< EWMA of relative T_first error.
  double ewma_ta = 0.0;   ///< EWMA of relative T_all error.
  double ewma_card = 0.0; ///< EWMA of relative cardinality error.
  uint64_t samples = 0;
  bool exceeded = false;  ///< Currently past threshold on some dimension.

  std::string ToString() const;
};

/// Point-in-time view of every tracked group — the hook ROADMAP item 2's
/// plan-cache invalidation consumes ("this plan's estimates went stale").
struct DriftReport {
  std::vector<DriftEntry> entries;

  /// Entries currently past the drift threshold.
  std::vector<DriftEntry> Exceeded() const;
  std::string ToString() const;
};

/// Tracks observed-vs-estimated [Tf Ta card] error per (site, domain,
/// adornment) group as EWMA gauges. DomainCallOp feeds it one observation
/// per successful call (when diagnostics are enabled), against the call
/// site's estimate stamp — the same answer EXPLAIN prints, taken when the
/// query was compiled and so *before* its own samples are flushed. Drift
/// measures how wrong the planner's knowledge was, not how fast it
/// converges afterwards.
///
/// Thread-safe: one mutex over the group map. Calls through it are
/// per-successful-call but the critical section is a few arithmetic ops.
class DriftTracker {
 public:
  /// `recorder` (may be null) receives the `drift_exceeded` events.
  explicit DriftTracker(DriftOptions options = {},
                        obs::FlightRecorder* recorder = nullptr);

  /// Wiring-time (not thread-safe vs. Observe): names the site a logical
  /// domain lives on, for the report's / gauges' `site` label.
  void SetSite(const std::string& domain, const std::string& site);

  /// Registers `hermes_dcsm_drift{dim,site,domain,adorn}` gauges lazily as
  /// groups appear, plus `hermes_dcsm_drift_exceeded_total`.
  void BindMetrics(std::shared_ptr<obs::MetricsRegistry> registry);

  /// Called (outside the tracker's lock — it may take its own) each time a
  /// (site, domain, adornment) group newly crosses the threshold. The plan
  /// cache hangs its invalidation here.
  using ExceededHook = std::function<void(
      const std::string& site, const std::string& domain,
      const std::string& adornment)>;
  void set_exceeded_hook(ExceededHook hook);

  /// Feeds one successful call to `call_domain` ("cim_video" counts as
  /// "video"): `adornment` is its arg shape ('c' per constant, 'b' per
  /// variable), `estimate` the call site's estimate, `observed` the
  /// measured [Tf Ta card]. Estimates whose only source is the DCSM
  /// default are skipped — error against a placeholder is noise, not
  /// drift. Emits a `drift_exceeded` flight event when a
  /// group first crosses the threshold. The event is a process-level one:
  /// tagged query_id 0 and taking no seq from any query, so per-query
  /// event streams stay deterministic.
  void Observe(const std::string& call_domain, const std::string& adornment,
               const CostEstimate& estimate, const CostVector& observed,
               double sim_ms);

  DriftReport Report() const;

  uint64_t observations() const;
  uint64_t exceeded_events() const;

 private:
  struct Cell {
    double ewma_tf = 0.0;
    double ewma_ta = 0.0;
    double ewma_card = 0.0;
    uint64_t samples = 0;
    bool exceeded = false;
    /// First min_samples observations ([tf ta card] errors); the EWMA
    /// seeds from their trimmed mean, then the buffer is dropped.
    std::vector<std::array<double, 3>> warmup;
    std::shared_ptr<obs::Gauge> gauge_tf;
    std::shared_ptr<obs::Gauge> gauge_ta;
    std::shared_ptr<obs::Gauge> gauge_card;
  };
  using Key = std::tuple<std::string, std::string, std::string>;

  DriftOptions options_;
  obs::FlightRecorder* const recorder_;

  mutable std::mutex mu_;
  std::map<Key, Cell> cells_;
  std::map<std::string, std::string> domain_site_;
  uint64_t observations_ = 0;
  uint64_t exceeded_events_ = 0;

  std::shared_ptr<obs::MetricsRegistry> registry_;
  std::shared_ptr<obs::Counter> exceeded_counter_;
  ExceededHook exceeded_hook_;
};

}  // namespace hermes::dcsm

#endif  // HERMES_DCSM_DRIFT_H_

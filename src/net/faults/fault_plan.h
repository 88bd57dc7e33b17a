#ifndef HERMES_NET_FAULTS_FAULT_PLAN_H_
#define HERMES_NET_FAULTS_FAULT_PLAN_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/result.h"

namespace hermes::net {

/// One fault-injection rule. Rules are matched against a call's site and
/// the query's simulated clock; every probabilistic draw comes from a
/// stream derived via Rng::StreamSeed from (plan seed, query id, call
/// hash, attempt), so a plan's decisions are a pure function of those four
/// values — independent of thread interleaving and of the network
/// simulator's own jitter stream.
struct FaultRule {
  enum class Kind {
    kOutage,   ///< Site unreachable inside [from_ms, until_ms).
    kFlaky,    ///< Each attempt fails with `probability`.
    kLatency,  ///< Network times multiplied by `factor` inside the window.
    kSlow,     ///< Response delayed by `extra_ms` with `probability`
               ///< (deadline-exceeding injection).
  };

  Kind kind = Kind::kOutage;
  /// Site the rule applies to; "*" matches every site.
  std::string site = "*";
  /// Window on the query's simulated clock (each query's timeline starts
  /// at 0). Default: always active.
  double from_ms = 0.0;
  double until_ms = std::numeric_limits<double>::infinity();
  double probability = 1.0;  ///< Flaky/slow draw probability.
  double factor = 1.0;       ///< Latency multiplier (kLatency).
  double extra_ms = 0.0;     ///< Added response delay (kSlow).

  std::string ToString() const;
};

/// A deterministic fault-injection plan: a seed plus an ordered rule list.
///
/// Text spec grammar (one rule per line; '#' starts a comment):
///
///   seed 42
///   outage  site=umd from=0 until=5000
///   flaky   site=cornell p=0.25
///   latency site=* factor=3 from=1000 until=2000
///   slow    site=umd extra_ms=40000 p=0.5
///
/// Every keyword argument is optional except `site`; omitted window bounds
/// mean "always", omitted p means 1.0. Each number is one whole, finite
/// value, and extra_ms is never negative.
struct FaultPlan {
  uint64_t seed = 0x51713;  ///< Base seed of the plan's RNG streams.
  std::vector<FaultRule> rules;

  bool empty() const { return rules.empty(); }

  /// Parses the text spec above.
  static Result<FaultPlan> Parse(const std::string& text);
  /// Reads and parses a spec file (the --faults=FILE payload).
  static Result<FaultPlan> Load(const std::string& path);

  /// Renders the plan back in spec syntax (one rule per line).
  std::string ToString() const;
};

/// What the injector decided for one call attempt.
struct FaultDecision {
  bool unavailable = false;       ///< Fail this attempt.
  const char* cause = "";         ///< "outage" or "flaky" when unavailable.
  double latency_factor = 1.0;    ///< Multiplier on planned network times.
  double extra_response_ms = 0.0; ///< Added response lag (slow injection).
};

/// Evaluates a FaultPlan for individual call attempts. Immutable and
/// thread-safe: Decide() draws from a stream it derives per call attempt,
/// never from shared state.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

  const FaultPlan& plan() const { return plan_; }

  /// Decides the fate of attempt `attempt` of the call identified by
  /// `call_hash` from query `query_id` against `site`, at simulated time
  /// `now_ms` on the query's clock. Deterministic in its arguments.
  FaultDecision Decide(const std::string& site, uint64_t query_id,
                       size_t call_hash, uint64_t attempt,
                       double now_ms) const;

 private:
  FaultPlan plan_;
};

}  // namespace hermes::net

#endif  // HERMES_NET_FAULTS_FAULT_PLAN_H_

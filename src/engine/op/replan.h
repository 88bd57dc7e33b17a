#ifndef HERMES_ENGINE_OP_REPLAN_H_
#define HERMES_ENGINE_OP_REPLAN_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "domain/cost.h"
#include "engine/op/compile.h"
#include "engine/op/op.h"

namespace hermes::engine::op {

/// Knobs of mid-query re-optimization. Every default keeps the feature
/// inert; the mediator enables it per query. Once enabled, a suffix goal
/// whose site has an open circuit breaker in this query's CallContext
/// (per-query state — deterministic under any thread count) always
/// triggers a re-plan.
struct ReplanOptions {
  bool enabled = false;
  /// Re-plan when an executed call's observed latency or cardinality
  /// diverges from its compile-time estimate by more than this factor
  /// (observed > N·est or observed < est/N). 0 disables the divergence
  /// trigger; it compares against each call's compile-time estimate stamp
  /// (DomainCallOp::estimate), never the live DCSM.
  double divergence_factor = 0.0;
  /// Upper bound on replans per query (each replan splices new subtrees).
  size_t max_replans = 1;
};

/// One replan decision, kept for EXPLAIN/diagnostics: what fired, what the
/// suffix looked like before and after, and the estimate delta.
struct ReplanEvent {
  size_t spine_index = 0;
  std::string trigger;     ///< "breaker_open site=... domain=..." / "divergence ...".
  std::string old_suffix;  ///< Unexecuted goals, previous order.
  std::string new_suffix;  ///< Unexecuted goals, spliced order (redirects applied).
  double old_est_ms = 0.0;
  double new_est_ms = 0.0;
  double sim_ms = 0.0;

  std::string ToString() const;
};

/// Orchestrates mid-query re-optimization over one compiled tree. The
/// executing spine joins call MaybeReplan() at their open-right boundary;
/// DomainCallOp reports actuals through ObserveCall(). When a trigger
/// fires, the unexecuted suffix of the top-level goal chain is re-ordered
/// (independent goals only) and breaker-open goals are redirected to their
/// CIM wrapper domain, then each affected spine join's right subtree is
/// re-lowered and spliced in place.
///
/// The manager owns every rewritten Atom (ops borrow them), so it must
/// outlive the tree's execution *and* any later EXPLAIN of the tree. A
/// tree that replanned must not be reused for another query.
class ReplanManager {
 public:
  struct Setup {
    const lang::Program* program = nullptr;
    /// The plan's top-level query goals (the vector CompileGoals lowered);
    /// borrowed, must outlive the manager.
    const std::vector<lang::Atom>* goals = nullptr;
    std::vector<SpineSlot> spine;
    CompileOptions compile_options;
    /// Maps a domain name to the site serving it ("" when unknown).
    std::function<std::string(const std::string&)> site_of;
    /// Domains with a registered "cim_<domain>" wrapper to redirect to.
    std::vector<std::string> cim_domains;
    ReplanOptions options;
  };

  explicit ReplanManager(Setup setup);

  ReplanManager(const ReplanManager&) = delete;
  ReplanManager& operator=(const ReplanManager&) = delete;

  /// Replan hook, called by the spine join at `spine_index` just before it
  /// opens its right subtree at virtual time `t_now`. Splices re-planned
  /// subtrees into spine positions >= spine_index when a trigger fires.
  Status MaybeReplan(ExecContext& cx, size_t spine_index, double t_now);

  /// Actual-cost feedback from a completed domain call. Goals that are not
  /// top-level spine goals are ignored.
  void ObserveCall(const lang::Atom* goal, double all_ms, double card);

  const std::vector<ReplanEvent>& events() const { return events_; }
  uint64_t triggers() const { return static_cast<uint64_t>(events_.size()); }
  uint64_t splices() const { return splices_; }
  bool replanned() const { return !events_.empty(); }

 private:
  struct Position {
    SpineSlot slot;
    const lang::Atom* atom = nullptr;  ///< Current goal (null: fixed subtree).
    /// The goal's estimate stamp, read only when the divergence trigger is
    /// armed — not the live DCSM, whose contents depend on cross-query
    /// flush interleaving. Unset: no estimate.
    std::optional<CostVector> estimate;
  };

  bool BreakerTrigger(const ExecContext& cx, size_t from, std::string* trigger,
                      std::string* site, std::string* domain) const;
  double RankOf(const Position& pos) const;
  void SpliceSuffix(ExecContext& cx, size_t from, size_t trigger_pos,
                    const std::string& trigger, const std::string& site,
                    const std::string& domain, double t_now);

  const lang::Program* program_;
  CompileOptions compile_options_;
  std::function<std::string(const std::string&)> site_of_;
  std::vector<std::string> cim_domains_;
  ReplanOptions options_;

  std::vector<Position> positions_;           ///< One per spine slot.
  std::map<const lang::Atom*, size_t> goal_positions_;
  std::deque<lang::Atom> owned_atoms_;        ///< Rewritten goals (stable).

  // Pending divergence observation (set by ObserveCall, consumed by the
  // next MaybeReplan).
  bool divergence_pending_ = false;
  std::string divergence_domain_;
  std::string divergence_detail_;
  double divergence_ratio_ = 1.0;

  std::vector<ReplanEvent> events_;
  uint64_t splices_ = 0;
};

}  // namespace hermes::engine::op

#endif  // HERMES_ENGINE_OP_REPLAN_H_

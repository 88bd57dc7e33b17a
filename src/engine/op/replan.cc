#include "engine/op/replan.h"

#include <algorithm>
#include <utility>

#include "engine/op/domain_call_op.h"
#include "engine/op/explain.h"
#include "engine/op/join_op.h"
#include "obs/flight_recorder.h"

namespace hermes::engine::op {

namespace {

/// Variables a domain-call goal touches: argument variables are read, the
/// output variable is written (a membership check reads it — treating it
/// as touched either way keeps the criterion conservative).
bool GoalTouchesVar(const lang::Atom& goal, const std::string& var) {
  for (const lang::Term& arg : goal.call.args) {
    if (arg.is_variable() && arg.var_name == var) return true;
  }
  return goal.output.is_variable() && goal.output.var_name == var;
}

/// True when the two domain-call goals may be reordered: neither touches
/// the variable the other binds. The same criterion family as the
/// scatter-gather grouping in compile.cc, applied pairwise.
bool IndependentGoals(const lang::Atom& a, const lang::Atom& b) {
  if (a.output.is_variable() && GoalTouchesVar(b, a.output.var_name)) {
    return false;
  }
  if (b.output.is_variable() && GoalTouchesVar(a, b.output.var_name)) {
    return false;
  }
  return true;
}

std::string GoalName(const lang::Atom& goal) {
  return goal.call.domain + ":" + goal.call.function;
}

}  // namespace

std::string ReplanEvent::ToString() const {
  std::string out = "replanned@spine[" + std::to_string(spine_index) +
                    "] trigger=" + trigger + " t=" +
                    ExplainPrinter::FormatNum(sim_ms) + "ms\n";
  out += "  old: " + old_suffix;
  if (old_est_ms > 0.0) {
    out += " est=[Ta=" + ExplainPrinter::FormatNum(old_est_ms) + "ms]";
  }
  out += "\n  new: " + new_suffix;
  if (new_est_ms > 0.0) {
    out += " est=[Ta=" + ExplainPrinter::FormatNum(new_est_ms) + "ms]";
  }
  out += "\n";
  return out;
}

ReplanManager::ReplanManager(Setup setup)
    : program_(setup.program),
      compile_options_(setup.compile_options),
      site_of_(std::move(setup.site_of)),
      cim_domains_(std::move(setup.cim_domains)),
      options_(setup.options) {
  positions_.reserve(setup.spine.size());
  for (const SpineSlot& slot : setup.spine) {
    Position pos;
    pos.slot = slot;
    if (slot.single_domain_call && setup.goals != nullptr &&
        slot.goal_start < setup.goals->size()) {
      pos.atom = &(*setup.goals)[slot.goal_start];
      const std::optional<CallEstimate>& stamp =
          static_cast<const DomainCallOp*>(slot.join->right())->estimate();
      if (options_.divergence_factor > 0.0 && stamp.has_value() &&
          stamp->answer.has_value()) {
        pos.estimate = stamp->answer->cost;
      }
      goal_positions_[pos.atom] = positions_.size();
    }
    positions_.push_back(std::move(pos));
  }
}

void ReplanManager::ObserveCall(const lang::Atom* goal, double all_ms,
                                double card) {
  if (!options_.enabled || options_.divergence_factor <= 0.0) return;
  if (divergence_pending_) return;
  auto it = goal_positions_.find(goal);
  if (it == goal_positions_.end()) return;
  const std::optional<CostVector>& est = positions_[it->second].estimate;
  if (!est.has_value()) return;
  const double n = options_.divergence_factor;
  bool diverged = false;
  double ratio = 1.0;
  if (est->t_all_ms > 0.0) {
    const double r = all_ms / est->t_all_ms;
    if (r > n || r < 1.0 / n) {
      diverged = true;
      ratio = r;
    }
  }
  if (!diverged && est->cardinality > 0.0) {
    const double r = card / est->cardinality;
    if (r > n || r < 1.0 / n) {
      diverged = true;
      ratio = r;
    }
  }
  if (!diverged) return;
  divergence_pending_ = true;
  divergence_domain_ = goal->call.domain;
  divergence_ratio_ = ratio;
  divergence_detail_ =
      "divergence domain=" + GoalName(*goal) +
      " observed=[Ta=" + ExplainPrinter::FormatNum(all_ms) +
      "ms card=" + ExplainPrinter::FormatNum(card) +
      "] est=[Ta=" + ExplainPrinter::FormatNum(est->t_all_ms) +
      "ms card=" + ExplainPrinter::FormatNum(est->cardinality) + "]";
}

bool ReplanManager::BreakerTrigger(const ExecContext& cx, size_t from,
                                   std::string* trigger, std::string* site,
                                   std::string* domain) const {
  if (site_of_ == nullptr) return false;
  for (size_t p = from; p < positions_.size(); ++p) {
    const Position& pos = positions_[p];
    if (pos.atom == nullptr) continue;
    const std::string s = site_of_(pos.atom->call.domain);
    if (s.empty()) continue;
    auto it = cx.ctx->breaker_states.find(s);
    if (it == cx.ctx->breaker_states.end()) continue;
    if (it->second.state != CallContext::BreakerState::kOpen) continue;
    *site = s;
    *domain = pos.atom->call.domain;
    *trigger = "breaker_open site=" + s + " domain=" + *domain;
    return true;
  }
  return false;
}

double ReplanManager::RankOf(const Position& pos) const {
  double rank = pos.estimate.has_value() ? pos.estimate->t_all_ms : 0.0;
  if (divergence_pending_ && pos.atom != nullptr &&
      pos.atom->call.domain == divergence_domain_ &&
      divergence_ratio_ > 1.0) {
    rank *= divergence_ratio_;
  }
  return rank;
}

Status ReplanManager::MaybeReplan(ExecContext& cx, size_t spine_index,
                                  double t_now) {
  if (!options_.enabled) return Status::OK();
  if (events_.size() >= options_.max_replans) return Status::OK();
  if (spine_index >= positions_.size()) return Status::OK();

  std::string trigger, site, domain;
  if (!BreakerTrigger(cx, spine_index, &trigger, &site, &domain)) {
    if (divergence_pending_) {
      trigger = divergence_detail_;
      domain = divergence_domain_;
      if (site_of_ != nullptr) site = site_of_(domain);
    }
  }
  if (trigger.empty()) return Status::OK();

  SpliceSuffix(cx, spine_index, spine_index, trigger, site, domain, t_now);
  divergence_pending_ = false;
  return Status::OK();
}

void ReplanManager::SpliceSuffix(ExecContext& cx, size_t from,
                                 size_t trigger_pos,
                                 const std::string& trigger,
                                 const std::string& site,
                                 const std::string& domain, double t_now) {
  (void)trigger_pos;
  // Snapshot the old suffix for the event record.
  ReplanEvent event;
  event.spine_index = from;
  event.trigger = trigger;
  event.sim_ms = t_now;
  for (size_t p = from; p < positions_.size(); ++p) {
    const Position& pos = positions_[p];
    if (!event.old_suffix.empty()) event.old_suffix += " & ";
    event.old_suffix += pos.atom != nullptr ? pos.atom->ToString()
                                            : std::string("<subtree>");
    if (pos.estimate.has_value()) event.old_est_ms += pos.estimate->t_all_ms;
  }

  // 1) Redirect breaker-open goals to their CIM wrapper domain when one is
  //    registered (an owned rewritten copy of the goal; the CIM serves the
  //    cached answers locally instead of the broken site).
  for (size_t p = from; p < positions_.size(); ++p) {
    Position& pos = positions_[p];
    if (pos.atom == nullptr || site_of_ == nullptr) continue;
    const std::string s = site_of_(pos.atom->call.domain);
    if (s.empty()) continue;
    auto it = cx.ctx->breaker_states.find(s);
    if (it == cx.ctx->breaker_states.end() ||
        it->second.state != CallContext::BreakerState::kOpen) {
      continue;
    }
    bool redirectable =
        std::find(cim_domains_.begin(), cim_domains_.end(),
                  pos.atom->call.domain) != cim_domains_.end();
    if (!redirectable) continue;
    owned_atoms_.push_back(*pos.atom);
    lang::Atom& rewritten = owned_atoms_.back();
    rewritten.call.domain = "cim_" + rewritten.call.domain;
    goal_positions_.erase(pos.atom);
    pos.atom = &rewritten;
    pos.estimate.reset();  // the wrapper's cost is unknown
    goal_positions_[pos.atom] = p;
  }

  // 2) Stable dependency-respecting reorder of the replannable suffix:
  //    cheaper (or non-broken) goals bubble ahead of pricier ones, but a
  //    goal never moves past a goal it shares a bound variable with, and
  //    fixed positions (scatter-gather runs, rules, filters) are barriers.
  auto rank_with_breaker = [this, &cx](const Position& pos) {
    double rank = RankOf(pos);
    if (pos.atom != nullptr && site_of_ != nullptr) {
      const std::string s = site_of_(pos.atom->call.domain);
      if (!s.empty()) {
        auto it = cx.ctx->breaker_states.find(s);
        if (it != cx.ctx->breaker_states.end() &&
            it->second.state == CallContext::BreakerState::kOpen) {
          rank += 1e12;  // still broken and unredirectable: run it last
        }
      }
    }
    return rank;
  };
  for (size_t pass = from; pass < positions_.size(); ++pass) {
    for (size_t p = from; p + 1 < positions_.size(); ++p) {
      Position& a = positions_[p];
      Position& b = positions_[p + 1];
      if (a.atom == nullptr || b.atom == nullptr) continue;  // barrier
      if (rank_with_breaker(a) <= rank_with_breaker(b)) continue;
      if (!IndependentGoals(*a.atom, *b.atom)) continue;
      std::swap(a.atom, b.atom);
      std::swap(a.estimate, b.estimate);
      goal_positions_[a.atom] = p;
      goal_positions_[b.atom] = p + 1;
    }
  }

  // 3) Splice: re-lower every suffix position whose goal assignment
  //    changed and swap it into its spine join. Safe here: the right
  //    subtree of every spine join at positions >= from is closed.
  uint64_t spliced = 0;
  for (size_t p = from; p < positions_.size(); ++p) {
    Position& pos = positions_[p];
    if (pos.atom == nullptr) continue;
    NestedLoopJoinOp* join = pos.slot.join;
    DomainCallOp* current = dynamic_cast<DomainCallOp*>(join->right());
    if (current != nullptr && &current->goal() == pos.atom) continue;
    join->ReplaceRight(CompileGoal(*pos.atom, *program_, 0, compile_options_));
    join->set_replanned_marker("replanned@" + GoalName(*pos.atom));
    ++spliced;
  }
  if (spliced == 0) {
    // Nothing to change (no redirect available, no legal reorder): don't
    // record a replan, and disarm the triggers so the check does not
    // re-fire at every remaining open-right boundary.
    divergence_pending_ = false;
    options_.enabled = false;
    return;
  }
  splices_ += spliced;

  for (size_t p = from; p < positions_.size(); ++p) {
    const Position& pos = positions_[p];
    if (!event.new_suffix.empty()) event.new_suffix += " & ";
    event.new_suffix += pos.atom != nullptr ? pos.atom->ToString()
                                            : std::string("<subtree>");
    if (pos.estimate.has_value()) event.new_est_ms += pos.estimate->t_all_ms;
  }

  if (cx.ctx->observed()) {
    obs::FlightEvent ev =
        obs::FlightEvent::At(obs::FlightEventKind::kReplan, t_now);
    ev.set_site(site).set_domain(domain).set_detail(
        std::string_view(trigger).substr(0, trigger.find(' ')));
    ev.value = static_cast<double>(from);
    ev.aux = spliced;
    cx.ctx->Emit(ev);
  }
  events_.push_back(std::move(event));
}

}  // namespace hermes::engine::op

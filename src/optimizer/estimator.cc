#include "optimizer/estimator.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>

#include "optimizer/rewriter.h"

namespace hermes::optimizer {

namespace {

constexpr double kEqSelectivity = 0.10;   ///< Fraction surviving `X = const`.
constexpr double kNeqSelectivity = 0.90;  ///< Fraction surviving `X != const`.
/// in(X, ...) with X already bound.
constexpr double kMembershipSelectivity = 0.5;
/// Simulated charge per predicate-statistics row scanned.
constexpr double kPerPredicateStatRowMs = 0.02;

/// Static binding knowledge about one variable or term during estimation
/// (Section 5/6's adornments): free, bound to an unknown value (`$b`), or
/// bound to a known constant. A constant is not copied: it points into the
/// plan's own atoms, which outlive the walk.
struct Binding {
  enum class Kind : uint8_t { kFree, kBound, kConst };
  Kind kind = Kind::kFree;
  const Value* constant = nullptr;  ///< Set when kind == kConst.

  static Binding Bound() { return {Kind::kBound, nullptr}; }
  static Binding Const(const Value* v) { return {Kind::kConst, v}; }

  bool is_free() const { return kind == Kind::kFree; }
  bool is_bound() const { return kind != Kind::kFree; }
  bool is_const() const { return kind == Kind::kConst; }

  /// Marks the variable bound-unknown unless it is already const.
  void MarkBound() {
    if (kind == Kind::kFree) kind = Kind::kBound;
  }
};

/// Resolves `term`, whose variable (if it has one) is in `slot`, to a
/// static binding description under the frame `env`.
Binding Describe(const lang::Term& term, uint32_t slot, const Binding* env) {
  if (term.is_constant()) return Binding::Const(&term.constant);
  if (term.is_bound_pattern()) return Binding::Bound();
  const Binding& base = env[slot];
  if (term.path.empty()) return base;
  if (base.is_const()) {
    Result<const Value*> resolved = base.constant->GetPathPtr(term.path);
    return resolved.ok() ? Binding::Const(*resolved) : Binding::Bound();
  }
  // A path over a bound-unknown variable is bound-unknown; over a free
  // variable it is free.
  return base.is_bound() ? Binding::Bound() : Binding{};
}

/// Exact equality: the same type and value, int and double kept apart and
/// doubles compared bit for bit.
bool SameValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case Value::Type::kDouble:
      return std::bit_cast<uint64_t>(a.as_double()) ==
             std::bit_cast<uint64_t>(b.as_double());
    case Value::Type::kList: {
      const ValueList& x = a.as_list();
      const ValueList& y = b.as_list();
      return std::equal(x.begin(), x.end(), y.begin(), y.end(), SameValue);
    }
    case Value::Type::kStruct: {
      const StructFields& x = a.as_struct();
      const StructFields& y = b.as_struct();
      return std::equal(x.begin(), x.end(), y.begin(), y.end(),
                        [](const auto& f, const auto& g) {
                          return f.first == g.first &&
                                 SameValue(f.second, g.second);
                        });
    }
    default:
      return a == b;
  }
}

/// Is the pattern of `a` with constant arguments `a_args` (null for `$b`)
/// that of `b` with `b_args`?
bool SamePattern(const lang::DomainCallSpec& a, const Value* const* a_args,
                 const lang::DomainCallSpec& b, const Value* const* b_args) {
  if (a.args.size() != b.args.size() || a.function != b.function ||
      a.domain != b.domain) {
    return false;
  }
  for (size_t i = 0; i < a.args.size(); ++i) {
    if (a_args[i] == nullptr || b_args[i] == nullptr
            ? a_args[i] != b_args[i]
            : !SameValue(*a_args[i], *b_args[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace

const Result<dcsm::CostEstimate>& PatternMemo::Cost(
    const dcsm::Dcsm& dcsm, const lang::DomainCallSpec& call,
    const Value* const* args) {
  for (const Entry& entry : entries_) {
    if (SamePattern(*entry.call, entry.args.data(), call, args)) {
      return entry.answer;
    }
  }
  const size_t arity = call.args.size();
  Result<dcsm::CostEstimate> answer =
      dcsm.Cost(dcsm::PatternView(call.domain, call.function, args, arity));
  entries_.push_back({&call, std::vector<const Value*>(args, args + arity),
                      std::move(answer)});
  return entries_.back().answer;
}

/// The state of one candidate's walk.
struct RuleCostEstimator::Walk {
  Walk(const PlanSpace& space, size_t candidate, PatternMemo* memo,
       bool describe_failures)
      : space(space),
        candidate(candidate),
        variant(space.variant_of(candidate)),
        memo(memo),
        describe_failures(describe_failures) {}

  const PlanSpace& space;
  size_t candidate;
  const PlanVariant& variant;
  PatternMemo* memo;
  bool describe_failures;
  double estimation_ms = 0.0;
  /// The frames of the bodies on the walk, innermost last: a body's
  /// variables in its slot order.
  std::vector<Binding> slots;
  /// Per rule: its predicate is being estimated (marked at the predicate's
  /// first rule), to reject recursion.
  std::vector<char> active;
  /// One domain call's constant arguments, null for `$b`.
  std::vector<const Value*> args;

  template <typename Message>
  Status Fail(StatusCode code, Message&& message) const {
    return Status(code, describe_failures ? message() : std::string());
  }
};

Result<CostVector> RuleCostEstimator::EstimatePredicate(Walk* walk,
                                                        size_t body,
                                                        size_t atom_index,
                                                        size_t frame,
                                                        size_t depth) const {
  const PlanVariant& variant = walk->variant;
  const lang::Atom& atom = variant.atoms(body)[atom_index];
  const PlanBody& caller = variant.bodies[body];
  const uint32_t* arg_slot = caller.slots_of(atom_index);
  const uint32_t* callee =
      caller.callees.data() + caller.callee_begin[atom_index];
  const uint32_t* callee_end =
      caller.callees.data() + caller.callee_begin[atom_index + 1];
  auto key = [&atom] {
    return atom.predicate + "/" + std::to_string(atom.args.size());
  };
  char* active = callee != callee_end ? &walk->active[*callee] : nullptr;
  if (depth >= params_.max_recursion_depth ||
      (active != nullptr && *active != 0)) {
    return walk->Fail(StatusCode::kUnimplemented, [&key] {
      return "recursive predicate '" + key() +
             "' is not supported by the cost estimator (see [33])";
    });
  }
  if (active != nullptr) *active = 1;

  bool any_rule = false;
  double t_first = 0, t_all = 0, card = 0;
  bool first_rule = true;
  Status failure = Status::OK();

  for (; callee != callee_end; ++callee) {
    const size_t r = *callee;
    const lang::Rule& rule = variant.program.rules[r];
    const PlanBody& rule_body = variant.bodies[1 + r];
    // Build the rule-local frame by unifying head terms with the caller's
    // argument descriptions.
    const size_t local = walk->slots.size();
    walk->slots.resize(local + rule_body.slot_count);
    const Binding* env = walk->slots.data() + frame;
    Binding* local_env = walk->slots.data() + local;
    bool head_compatible = true;
    for (size_t i = 0; i < atom.args.size(); ++i) {
      Binding from_caller = Describe(atom.args[i], arg_slot[i], env);
      const lang::Term& head_term = rule.head.args[i];
      if (head_term.is_constant()) {
        if (from_caller.is_const() &&
            *from_caller.constant != head_term.constant) {
          head_compatible = false;  // this rule can never match the call
          break;
        }
        continue;
      }
      // Not a variable, or a variable the body never reads.
      const uint32_t slot = rule_body.head_slot[i];
      if (slot == PlanBody::kNoSlot) continue;
      // Join variables repeated in the head: keep the strongest knowledge.
      Binding& existing = local_env[slot];
      if (!existing.is_bound() ||
          (from_caller.is_const() && !existing.is_const())) {
        existing = from_caller;
      }
    }
    if (!head_compatible) {
      walk->slots.resize(local);
      continue;
    }

    Result<CostVector> rule_cost =
        EstimateBodyInternal(walk, 1 + r, local, depth + 1);
    walk->slots.resize(local);
    if (!rule_cost.ok()) {
      // Recursion is a hard error (the paper defers recursive mediators to
      // [33]); an infeasible ordering merely disqualifies this rule.
      if (rule_cost.status().code() == StatusCode::kUnimplemented) {
        *active = 0;
        return rule_cost.status();
      }
      failure = rule_cost.status();
      continue;
    }
    any_rule = true;
    // "Adding up the cardinalities and the execution times of the results
    // produced by each rule." Rules are tried sequentially, so the first
    // answer comes from the first feasible rule.
    if (first_rule) {
      t_first = rule_cost->t_first_ms;
      first_rule = false;
    }
    t_all += rule_cost->t_all_ms;
    card += rule_cost->cardinality;
  }

  if (active != nullptr) *active = 0;
  if (!any_rule) {
    if (!failure.ok()) return failure;
    return walk->Fail(StatusCode::kNotFound, [&key] {
      return "no rule defines predicate '" + key() + "'";
    });
  }

  // Predicate-Tf caching extension: replace the formula-derived T_f with
  // the observed first-answer time of comparable past invocations.
  if (params_.use_predicate_first_answer_stats) {
    const Binding* env = walk->slots.data() + frame;
    lang::DomainCallSpec pattern;
    pattern.domain = "idb";
    pattern.function = atom.predicate;
    pattern.args.reserve(atom.args.size());
    for (size_t i = 0; i < atom.args.size(); ++i) {
      Binding info = Describe(atom.args[i], arg_slot[i], env);
      pattern.args.push_back(info.is_const() ? lang::Term::Const(*info.constant)
                                             : lang::Term::Bound());
    }
    Result<dcsm::Aggregate> observed = dcsm_->database().Estimate(pattern);
    if (!observed.ok()) {
      // Relax fully: any past invocation of this predicate.
      for (lang::Term& arg : pattern.args) arg = lang::Term::Bound();
      observed = dcsm_->database().Estimate(pattern);
    }
    if (observed.ok() && observed->has_t_first) {
      t_first = observed->cost.t_first_ms;
      walk->estimation_ms += kPerPredicateStatRowMs *
                             static_cast<double>(observed->rows_scanned);
    }
  }
  return CostVector(t_first, t_all, card);
}

Result<CostVector> RuleCostEstimator::EstimateBodyInternal(Walk* walk,
                                                           size_t body,
                                                           size_t frame,
                                                           size_t depth) const {
  const PlanBody& prepared = walk->variant.bodies[body];
  const std::vector<lang::Atom>& goals = walk->variant.atoms(body);
  const uint32_t* order = walk->space.Order(walk->candidate, body);
  double t_first = 0.0;
  double t_all = 0.0;
  double prefix_card = 1.0;  // Π_{j<i} Card_j

  for (size_t p = 0; p < goals.size(); ++p) {
    const size_t index = order[p];
    const lang::Atom& goal = goals[index];
    const uint32_t* slot = prepared.slots_of(index);
    CostVector goal_cost;
    double selectivity = 1.0;

    switch (goal.kind) {
      case lang::Atom::Kind::kDomainCall: {
        Binding* env = walk->slots.data() + frame;
        walk->args.clear();
        for (size_t a = 0; a < goal.call.args.size(); ++a) {
          Binding arg = Describe(goal.call.args[a], slot[1 + a], env);
          if (arg.is_free()) {
            return walk->Fail(StatusCode::kInvalidArgument, [&] {
              return "argument '" + goal.call.args[a].ToString() + "' of " +
                     goal.call.ToString() +
                     " is free at execution time (invalid ordering)";
            });
          }
          walk->args.push_back(arg.constant);
        }
        const Result<dcsm::CostEstimate>& est =
            walk->memo->Cost(*dcsm_, goal.call, walk->args.data());
        if (!est.ok()) return est.status();
        walk->estimation_ms += est->lookup_ms;
        goal_cost = est->cost;
        if (Describe(goal.output, slot[0], env).is_bound()) {
          // Membership check: at most one continuation per call.
          goal_cost.cardinality = std::min(
              1.0, goal_cost.cardinality * kMembershipSelectivity);
        } else if (goal.output.is_variable()) {
          env[slot[0]].MarkBound();
        }
        break;
      }
      case lang::Atom::Kind::kComparison: {
        goal_cost = CostVector(params_.comparison_cost_ms,
                               params_.comparison_cost_ms, 1.0);
        Binding* env = walk->slots.data() + frame;
        Binding lhs = Describe(goal.lhs, slot[0], env);
        Binding rhs = Describe(goal.rhs, slot[1], env);
        if (lhs.is_const() && rhs.is_const()) {
          // Statically decidable.
          selectivity =
              lang::EvalRelOp(goal.op, *lhs.constant, *rhs.constant) ? 1.0
                                                                     : 0.0;
        } else if (lhs.is_bound() && rhs.is_bound()) {
          switch (goal.op) {
            case lang::RelOp::kEq:
              selectivity = kEqSelectivity;
              break;
            case lang::RelOp::kNeq:
              selectivity = kNeqSelectivity;
              break;
            default:
              selectivity = params_.range_selectivity;
              break;
          }
        } else if (goal.op == lang::RelOp::kEq) {
          // Assignment: binds the free side.
          const bool binds_rhs = lhs.is_bound();
          const lang::Term& free_term = binds_rhs ? goal.rhs : goal.lhs;
          if (!free_term.is_variable() || !free_term.path.empty()) {
            return walk->Fail(StatusCode::kInvalidArgument, [&] {
              return "cannot bind through '" + free_term.ToString() +
                     "' in " + goal.ToString();
            });
          }
          if (!lhs.is_bound() && !rhs.is_bound()) {
            return walk->Fail(StatusCode::kInvalidArgument, [&] {
              return "comparison with two free variables: " + goal.ToString();
            });
          }
          env[binds_rhs ? slot[1] : slot[0]] = binds_rhs ? lhs : rhs;
          selectivity = 1.0;
        } else {
          return walk->Fail(StatusCode::kInvalidArgument, [&] {
            return "comparison over a free variable: " + goal.ToString();
          });
        }
        goal_cost.cardinality = selectivity;
        break;
      }
      case lang::Atom::Kind::kPredicate: {
        HERMES_ASSIGN_OR_RETURN(
            goal_cost, EstimatePredicate(walk, body, index, frame, depth));
        // The callee's frames may have moved the slot array.
        Binding* env = walk->slots.data() + frame;
        for (size_t a = 0; a < goal.args.size(); ++a) {
          if (goal.args[a].is_variable()) env[slot[a]].MarkBound();
        }
        break;
      }
    }

    t_first += goal_cost.t_first_ms;
    t_all += prefix_card * goal_cost.t_all_ms;
    prefix_card *= std::max(goal_cost.cardinality, 0.0);
  }

  return CostVector(t_first, t_all, prefix_card);
}

Result<RuleCostEstimator::Estimate> RuleCostEstimator::EstimateCandidate(
    const PlanSpace& space, size_t k, PatternMemo* memo,
    bool describe_failures) const {
  Walk walk(space, k, memo, describe_failures);
  const PlanVariant& variant = walk.variant;
  // No body is on the walk twice at once (recursion is rejected), so the
  // frames never outgrow this.
  size_t max_slots = 0;
  for (const PlanBody& body : variant.bodies) max_slots += body.slot_count;
  walk.slots.reserve(max_slots);
  walk.slots.resize(variant.bodies[0].slot_count);
  walk.active.assign(variant.program.rules.size(), 0);
  Estimate estimate;
  HERMES_ASSIGN_OR_RETURN(estimate.cost,
                          EstimateBodyInternal(&walk, 0, 0, 0));
  estimate.estimation_ms = walk.estimation_ms;
  return estimate;
}

Result<RuleCostEstimator::Estimate> RuleCostEstimator::EstimateBody(
    const lang::Program& program, const std::vector<lang::Atom>& goals) const {
  PlanSpace space = RuleRewriter::AsWritten(program, goals);
  PatternMemo memo;
  return EstimateCandidate(space, 0, &memo, /*describe_failures=*/true);
}

Result<RuleCostEstimator::Estimate> RuleCostEstimator::EstimatePlan(
    const CandidatePlan& plan) const {
  return EstimateBody(plan.program, plan.query.goals);
}

}  // namespace hermes::optimizer

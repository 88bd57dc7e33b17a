#ifndef HERMES_OPTIMIZER_PLAN_H_
#define HERMES_OPTIMIZER_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "domain/cost.h"
#include "lang/ast.h"

namespace hermes::optimizer {

/// One candidate as the query path reports it: the transformations that
/// produced it and its estimate, without its rules.
struct CandidateSummary {
  std::string description;  ///< The transformations that produced it.

  // Filled by the rule cost estimator:
  CostVector estimated;
  double estimation_ms = 0.0;  ///< Simulated DCSM time spent estimating.
  bool estimatable = false;    ///< False when the ordering is infeasible.
};

/// One fully-ordered execution plan for a query: a rewritten program (rule
/// bodies in execution order, selections pushed, calls possibly redirected
/// to CIM) plus the reordered query goals.
struct CandidatePlan : CandidateSummary {
  lang::Program program;
  lang::Query query;

  std::string ToString() const {
    std::string out = "-- plan: " + description + "\n";
    out += query.ToString() + "\n";
    out += program.ToString();
    return out;
  }
};

/// Index permutations of one body, `width` indexes per ordering, stored
/// back to back.
struct Orderings {
  size_t width = 0;
  size_t count = 0;
  std::vector<uint32_t> index;

  /// The body's written order as its only ordering.
  static Orderings AsWritten(size_t width);

  const uint32_t* at(size_t k) const { return index.data() + k * width; }
  void Add(const uint32_t* order) {
    index.insert(index.end(), order, order + width);
    ++count;
  }
};

/// One body of a plan variant, the query goals or a rule body, prepared
/// once for every candidate that orders it: its valid orderings, its
/// variables interned into slots, and the rules each predicate goal calls.
struct PlanBody {
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  Orderings orderings;
  uint32_t slot_count = 0;
  /// The slot of every term, atom by atom; kNoSlot for a term that is not
  /// a variable. Atom i's terms start at term_begin[i], in this order: a
  /// predicate's arguments; a domain call's output, then its arguments; a
  /// comparison's lhs, then its rhs.
  std::vector<uint32_t> term_begin, term_slot;
  /// Rule bodies only: the slot of each head argument; kNoSlot when it is
  /// not a variable or the body never mentions it.
  std::vector<uint32_t> head_slot;
  /// The variant's rules (by index) that the predicate goal i calls, in
  /// program order, are callees[callee_begin[i] .. callee_begin[i + 1]).
  std::vector<uint32_t> callee_begin, callees;

  const uint32_t* slots_of(size_t atom) const {
    return term_slot.data() + term_begin[atom];
  }
};

/// One rewrite of a query and the rules it reaches (as written, with
/// selections pushed down, redirected to CIM), with its bodies prepared.
struct PlanVariant {
  lang::Program program;
  lang::Query query;
  std::string description;  ///< "direct" or "pushdown", "+cim" if redirected.
  size_t cim_calls = 0;     ///< CIM-redirected domain calls, all bodies.
  /// [0] prepares the query goals, [1 + r] the body of program.rules[r].
  std::vector<PlanBody> bodies;

  const std::vector<lang::Atom>& atoms(size_t body) const {
    return body == 0 ? query.goals : program.rules[body - 1].body;
  }
};

/// Every candidate plan of one query, without copies: a candidate is a
/// variant plus one ordering per body of it. Only the plans someone asks
/// for become CandidatePlans (Materialize).
struct PlanSpace {
  struct Candidate {
    uint32_t variant = 0;
    /// Where the candidate's choices start in `choices`: one ordering
    /// number per body of its variant.
    uint32_t first_choice = 0;
  };

  std::vector<PlanVariant> variants;
  std::vector<Candidate> candidates;
  std::vector<uint32_t> choices;

  const PlanVariant& variant_of(size_t k) const {
    return variants[candidates[k].variant];
  }
  /// The order in which candidate `k` runs body `body` of its variant.
  const uint32_t* Order(size_t k, size_t body) const {
    const Candidate& c = candidates[k];
    return variants[c.variant].bodies[body].orderings.at(
        choices[c.first_choice + body]);
  }
  /// "<variant description> #k".
  std::string Description(size_t k) const;
  /// Candidate `k` as a plan of its own, with no estimate filled.
  CandidatePlan Materialize(size_t k) const;
};

}  // namespace hermes::optimizer

#endif  // HERMES_OPTIMIZER_PLAN_H_

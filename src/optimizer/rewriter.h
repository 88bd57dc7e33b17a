#ifndef HERMES_OPTIMIZER_REWRITER_H_
#define HERMES_OPTIMIZER_REWRITER_H_

#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "lang/ast.h"
#include "optimizer/plan.h"

namespace hermes::optimizer {

/// Section 5's rule rewriter.
///
/// Given a program and a query, produces candidate plans by applying:
///   1. CIM redirection — `in(X, d:f(args))` → `in(X, cim_d:f(args))` for
///      domains that have a CIM wrapper,
///   2. selection push-down — `in(T, d:all(tbl)) & =(T.attr, c)` →
///      `in(T, d:equal(tbl, 'attr', c))` (and the comparison-select
///      family) when the domain exports the target function,
///   3. subgoal reordering — every permutation of each body that keeps
///      domain-call arguments ground at execution time.
///
/// Variants hold only the rules reachable from the query, in program
/// order; the other rules can never run for it. A candidate is a variant
/// plus one ordering per body, so enumerating copies no rules per plan.
class RuleRewriter {
 public:
  struct Options {
    bool reorder_subgoals = true;
    bool push_selections = true;
    /// Generate CIM-redirected variants for these domains (in addition to
    /// the direct variants). Empty: no CIM variants.
    std::vector<std::string> cim_domains;
    /// When true, only CIM-redirected variants are emitted.
    bool cim_only = false;
    /// Predicate deciding whether `domain` exports `function` at `arity`
    /// (used by selection push-down). Unset: push-down applies to the
    /// select_* family by name.
    std::function<bool(const std::string& domain, const std::string& function,
                       size_t arity)>
        domain_has_function;
    size_t max_orderings_per_body = 24;
    size_t max_plans = 128;
  };

  /// Enumerates the candidate plans: each variant once, with its bodies
  /// prepared, and each candidate as orderings of the variant's bodies. At
  /// least one candidate (the original ordering) exists for a well-formed
  /// input.
  static Result<PlanSpace> Enumerate(const lang::Program& program,
                                     const lang::Query& query,
                                     const Options& options);

  /// Enumerate, then materialize every candidate.
  static Result<std::vector<CandidatePlan>> Rewrite(
      const lang::Program& program, const lang::Query& query,
      const Options& options);

  /// The plan space of `goals` over `program` exactly as written: one
  /// variant with the rules the goals reach, one candidate.
  static PlanSpace AsWritten(const lang::Program& program,
                             const std::vector<lang::Atom>& goals);

  /// Indexes, in program order, of the rules `goals` reach: those whose
  /// head matches a predicate goal by name and arity, and in turn those
  /// their bodies reach.
  static std::vector<size_t> ReachableRules(
      const lang::Program& program, const std::vector<lang::Atom>& goals);

  /// Redirects every domain call in `atoms` whose domain is in
  /// `cim_domains` to its CIM wrapper (`cim_<domain>`); returns how many
  /// calls were redirected.
  static size_t RedirectToCim(std::vector<lang::Atom>* atoms,
                              const std::vector<std::string>& cim_domains);

  /// Applies selection push-down to one body in place; returns the number
  /// of selections pushed.
  static size_t PushSelections(
      std::vector<lang::Atom>* body,
      const std::function<bool(const std::string&, const std::string&,
                               size_t)>& domain_has_function);

  /// Enumerates permutations of `body` under which every domain call's
  /// arguments and every comparison's operands are bound when reached.
  /// The original order, when valid, is first. Capped at `max_orderings`.
  /// Orderings whose atoms print the same at every position are one.
  static std::vector<std::vector<lang::Atom>> ValidOrderings(
      const std::vector<lang::Atom>& body,
      const std::vector<std::string>& initially_bound, size_t max_orderings);
};

}  // namespace hermes::optimizer

#endif  // HERMES_OPTIMIZER_REWRITER_H_

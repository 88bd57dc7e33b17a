#include "optimizer/rewriter.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>

namespace hermes::optimizer {

namespace {

/// Index permutations of one body, `width` indexes per ordering, stored
/// back to back.
struct Orderings {
  size_t width = 0;
  size_t count = 0;
  std::vector<uint32_t> index;

  const uint32_t* at(size_t k) const { return index.data() + k * width; }
  void Add(const uint32_t* order) {
    index.insert(index.end(), order, order + width);
    ++count;
  }
};

/// The valid orderings of one body. Its variables are interned once, and
/// each atom's prerequisites and bindings become bitmasks over them,
/// `words_` 64-bit words wide, so no body size needs a special case.
/// Orderings whose atoms print the same at every position are one; each
/// atom is printed once, into a class shared by the atoms that print the
/// same.
class BodyOrderer {
 public:
  explicit BodyOrderer(const std::vector<lang::Atom>& body)
      : body_(body), used_(body.size(), 0), current_(body.size(), 0) {
    for (const lang::Atom& atom : body) {
      ForEachTerm(atom, [this](const lang::Term& t) {
        if (t.is_variable() && Find(t.var_name) == kNone) {
          names_.push_back(&t.var_name);
        }
      });
    }
    words_ = std::max<size_t>(1, (names_.size() + 63) / 64);
    masks_.assign(body.size() * kMasksPerAtom * words_, 0);
    bound_.assign((body.size() + 1) * words_, 0);
    info_.resize(body.size());
    for (size_t i = 0; i < body.size(); ++i) Describe(i);
  }

  /// Marks `name` bound before the body runs.
  void Bind(const std::string& name) {
    size_t bit = Find(name);
    if (bit != kNone) Set(bound_.data(), bit);
  }

  /// At most `max_orderings` valid orderings, the original order first
  /// when it is valid.
  Orderings Valid(size_t max_orderings) {
    const size_t n = body_.size();
    Orderings out{n, 0, {}};
    std::iota(current_.begin(), current_.end(), 0u);
    bool original_valid = true;
    for (size_t i = 0; i < n && original_valid; ++i) {
      original_valid = Step(i, Level(i), Level(i + 1));
    }
    if (original_valid) out.Add(current_.data());

    // One more than the cap: the original order, when valid, is also the
    // first ordering enumerated.
    Orderings enumerated{n, 0, {}};
    Enumerate(0, max_orderings + 1, &enumerated);
    std::vector<uint32_t> cls = AtomClasses();
    for (size_t k = 0; k < enumerated.count; ++k) {
      if (out.count >= max_orderings) break;
      const uint32_t* order = enumerated.at(k);
      bool duplicate = false;
      for (size_t e = 0; e < out.count && !duplicate; ++e) {
        const uint32_t* existing = out.at(e);
        duplicate = true;
        for (size_t p = 0; p < n; ++p) {
          if (cls[existing[p]] != cls[order[p]]) {
            duplicate = false;
            break;
          }
        }
      }
      if (!duplicate) out.Add(order);
    }
    return out;
  }

 private:
  static constexpr size_t kNone = static_cast<size_t>(-1);
  // Per atom: the variables side A needs bound (a domain call's arguments,
  // a comparison's lhs), those side B needs (a comparison's rhs), those
  // bound once side A resolves (a call's output, a predicate's arguments,
  // the rhs of '=') and those bound once side B resolves (the lhs of '=').
  enum Mask { kNeedA, kNeedB, kBindA, kBindB, kMasksPerAtom };

  struct AtomInfo {
    bool never_a = false;  ///< Side A holds a `$b` placeholder.
    bool never_b = false;
    bool binds_a = false;  ///< '=' may bind its rhs once its lhs resolves.
    bool binds_b = false;
  };

  template <typename Fn>
  static void ForEachTerm(const lang::Atom& atom, Fn&& fn) {
    switch (atom.kind) {
      case lang::Atom::Kind::kPredicate:
        for (const lang::Term& t : atom.args) fn(t);
        break;
      case lang::Atom::Kind::kDomainCall:
        fn(atom.output);
        for (const lang::Term& t : atom.call.args) fn(t);
        break;
      case lang::Atom::Kind::kComparison:
        fn(atom.lhs);
        fn(atom.rhs);
        break;
    }
  }

  size_t Find(const std::string& name) const {
    for (size_t k = 0; k < names_.size(); ++k) {
      if (*names_[k] == name) return k;
    }
    return kNone;
  }

  static void Set(uint64_t* mask, size_t bit) {
    mask[bit / 64] |= uint64_t{1} << (bit % 64);
  }

  uint64_t* MaskOf(size_t atom, Mask which) {
    return masks_.data() + (atom * kMasksPerAtom + which) * words_;
  }
  const uint64_t* MaskOf(size_t atom, Mask which) const {
    return masks_.data() + (atom * kMasksPerAtom + which) * words_;
  }
  uint64_t* Level(size_t depth) { return bound_.data() + depth * words_; }

  /// Adds what `term` needs bound to `mask`; false for a `$b` placeholder,
  /// which never resolves.
  bool Need(const lang::Term& term, uint64_t* mask) const {
    if (term.is_bound_pattern()) return false;
    if (term.is_variable()) Set(mask, Find(term.var_name));
    return true;
  }

  void Describe(size_t i) {
    const lang::Atom& atom = body_[i];
    AtomInfo& info = info_[i];
    switch (atom.kind) {
      case lang::Atom::Kind::kDomainCall:
        for (const lang::Term& arg : atom.call.args) {
          if (!Need(arg, MaskOf(i, kNeedA))) info.never_a = true;
        }
        if (atom.output.is_variable()) {
          // Binding through an attribute path needs the base bound.
          if (!atom.output.path.empty()) Need(atom.output, MaskOf(i, kNeedA));
          Set(MaskOf(i, kBindA), Find(atom.output.var_name));
        }
        break;
      case lang::Atom::Kind::kComparison:
        info.never_a = !Need(atom.lhs, MaskOf(i, kNeedA));
        info.never_b = !Need(atom.rhs, MaskOf(i, kNeedB));
        // '=' with exactly one resolvable side binds the other, provided
        // the free side is a plain variable.
        if (atom.op == lang::RelOp::kEq) {
          if (atom.rhs.is_variable() && atom.rhs.path.empty()) {
            info.binds_a = true;
            Set(MaskOf(i, kBindA), Find(atom.rhs.var_name));
          }
          if (atom.lhs.is_variable() && atom.lhs.path.empty()) {
            info.binds_b = true;
            Set(MaskOf(i, kBindB), Find(atom.lhs.var_name));
          }
        }
        break;
      case lang::Atom::Kind::kPredicate:
        // IDB predicates can generate bindings; feasibility of the chosen
        // adornment is checked later by the cost estimator / executor.
        for (const lang::Term& arg : atom.args) {
          if (arg.is_variable()) Set(MaskOf(i, kBindA), Find(arg.var_name));
        }
        break;
    }
  }

  bool Covered(const uint64_t* need, const uint64_t* bound) const {
    for (size_t w = 0; w < words_; ++w) {
      if ((need[w] & ~bound[w]) != 0) return false;
    }
    return true;
  }

  void Union(const uint64_t* bound, const uint64_t* more,
             uint64_t* after) const {
    for (size_t w = 0; w < words_; ++w) after[w] = bound[w] | more[w];
  }

  /// Can atom `i` execute with `bound` variables available? On success,
  /// writes the variables bound after it to `after`.
  bool Step(size_t i, const uint64_t* bound, uint64_t* after) const {
    const AtomInfo& info = info_[i];
    switch (body_[i].kind) {
      case lang::Atom::Kind::kDomainCall:
        if (info.never_a || !Covered(MaskOf(i, kNeedA), bound)) return false;
        Union(bound, MaskOf(i, kBindA), after);
        return true;
      case lang::Atom::Kind::kComparison: {
        bool lhs_ok = !info.never_a && Covered(MaskOf(i, kNeedA), bound);
        bool rhs_ok = !info.never_b && Covered(MaskOf(i, kNeedB), bound);
        if (lhs_ok && rhs_ok) {
          std::copy(bound, bound + words_, after);
          return true;
        }
        if (lhs_ok && info.binds_a) {
          Union(bound, MaskOf(i, kBindA), after);
          return true;
        }
        if (rhs_ok && info.binds_b) {
          Union(bound, MaskOf(i, kBindB), after);
          return true;
        }
        return false;
      }
      case lang::Atom::Kind::kPredicate:
        Union(bound, MaskOf(i, kBindA), after);
        return true;
    }
    return false;
  }

  /// Depth-first enumeration of valid orderings, at most `cap` of them.
  void Enumerate(size_t depth, size_t cap, Orderings* out) {
    if (out->count >= cap) return;
    if (depth == body_.size()) {
      out->Add(current_.data());
      return;
    }
    for (size_t i = 0; i < body_.size(); ++i) {
      if (used_[i] || !Step(i, Level(depth), Level(depth + 1))) continue;
      used_[i] = 1;
      current_[depth] = static_cast<uint32_t>(i);
      Enumerate(depth + 1, cap, out);
      used_[i] = 0;
      if (out->count >= cap) return;
    }
  }

  /// For each atom, the index of the first atom that prints the same.
  std::vector<uint32_t> AtomClasses() const {
    std::vector<std::string> text;
    text.reserve(body_.size());
    std::vector<uint32_t> cls(body_.size());
    for (size_t i = 0; i < body_.size(); ++i) {
      text.push_back(body_[i].ToString());
      cls[i] = static_cast<uint32_t>(i);
      for (size_t j = 0; j < i; ++j) {
        if (text[j] == text[i]) {
          cls[i] = cls[j];
          break;
        }
      }
    }
    return cls;
  }

  const std::vector<lang::Atom>& body_;
  std::vector<const std::string*> names_;
  size_t words_ = 1;
  std::vector<uint64_t> masks_;
  std::vector<AtomInfo> info_;
  std::vector<uint64_t> bound_;  ///< Bound variables before each depth.
  std::vector<char> used_;
  std::vector<uint32_t> current_;
};

/// `body` in the order `order` gives.
std::vector<lang::Atom> Reordered(const std::vector<lang::Atom>& body,
                                  const uint32_t* order) {
  std::vector<lang::Atom> out;
  out.reserve(body.size());
  for (size_t p = 0; p < body.size(); ++p) out.push_back(body[order[p]]);
  return out;
}

/// Maps a comparison operator to the select-family function that
/// implements it source-side, with the comparison's constant on the right:
/// `V.attr op c`.
const char* SelectFunctionFor(lang::RelOp op) {
  switch (op) {
    case lang::RelOp::kEq: return "equal";
    case lang::RelOp::kNeq: return "select_neq";
    case lang::RelOp::kLt: return "select_lt";
    case lang::RelOp::kLe: return "select_le";
    case lang::RelOp::kGt: return "select_gt";
    case lang::RelOp::kGe: return "select_ge";
  }
  return "equal";
}

bool DefaultDomainHasFunction(const std::string& domain,
                              const std::string& function, size_t arity) {
  (void)domain;
  (void)arity;
  // By default assume the relational select family exists; other domains
  // should be described via Options::domain_has_function.
  return function == "equal" || function == "select_eq" ||
         function == "select_neq" || function == "select_lt" ||
         function == "select_le" || function == "select_gt" ||
         function == "select_ge";
}

}  // namespace

size_t RuleRewriter::RedirectToCim(std::vector<lang::Atom>* atoms,
                                   const std::vector<std::string>& cim_domains) {
  size_t redirected = 0;
  for (lang::Atom& atom : *atoms) {
    if (!atom.is_domain_call()) continue;
    for (const std::string& d : cim_domains) {
      if (atom.call.domain == d) {
        atom.call.domain = "cim_" + d;
        ++redirected;
        break;
      }
    }
  }
  return redirected;
}

size_t RuleRewriter::PushSelections(
    std::vector<lang::Atom>* body,
    const std::function<bool(const std::string&, const std::string&, size_t)>&
        domain_has_function) {
  auto has_function =
      domain_has_function ? domain_has_function : DefaultDomainHasFunction;
  size_t pushed = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t ci = 0; ci < body->size() && !changed; ++ci) {
      const lang::Atom& cmp = (*body)[ci];
      if (!cmp.is_comparison()) continue;

      // Normalize to: Var.attr op Constant.
      lang::Term var_side, const_side;
      lang::RelOp op = cmp.op;
      if (cmp.lhs.is_variable() && cmp.lhs.path.size() == 1 &&
          cmp.rhs.is_constant()) {
        var_side = cmp.lhs;
        const_side = cmp.rhs;
      } else if (cmp.rhs.is_variable() && cmp.rhs.path.size() == 1 &&
                 cmp.lhs.is_constant()) {
        var_side = cmp.rhs;
        const_side = cmp.lhs;
        op = lang::FlipRelOp(op);
      } else {
        continue;
      }

      // Find the full-scan call producing this variable.
      for (size_t di = 0; di < body->size() && !changed; ++di) {
        lang::Atom& call_atom = (*body)[di];
        if (!call_atom.is_domain_call() || !call_atom.output.is_variable() ||
            call_atom.output.var_name != var_side.var_name ||
            !call_atom.output.path.empty()) {
          continue;
        }
        if (call_atom.call.function != "all" ||
            call_atom.call.args.size() != 1) {
          continue;
        }
        const std::string target = SelectFunctionFor(op);
        if (!has_function(call_atom.call.domain, target, 3)) continue;

        // Other comparisons may still reference the variable's remaining
        // attributes — that is fine because select answers keep the full
        // row structure.
        call_atom.call.function = target;
        call_atom.call.args.push_back(
            lang::Term::Const(Value::Str(var_side.path[0])));
        call_atom.call.args.push_back(const_side);
        body->erase(body->begin() + ci);
        ++pushed;
        changed = true;
      }
    }
  }
  return pushed;
}

std::vector<size_t> RuleRewriter::ReachableRules(
    const lang::Program& program, const std::vector<lang::Atom>& goals) {
  std::vector<char> reached(program.rules.size(), 0);
  std::vector<const lang::Atom*> frontier;
  auto visit = [&frontier](const std::vector<lang::Atom>& atoms) {
    for (const lang::Atom& atom : atoms) {
      if (atom.is_predicate()) frontier.push_back(&atom);
    }
  };
  if (!program.rules.empty()) visit(goals);
  while (!frontier.empty()) {
    const lang::Atom* atom = frontier.back();
    frontier.pop_back();
    for (size_t r = 0; r < program.rules.size(); ++r) {
      const lang::Rule& rule = program.rules[r];
      if (reached[r] || rule.head.predicate != atom->predicate ||
          rule.head.args.size() != atom->args.size()) {
        continue;
      }
      reached[r] = 1;
      visit(rule.body);
    }
  }
  std::vector<size_t> out;
  for (size_t r = 0; r < reached.size(); ++r) {
    if (reached[r]) out.push_back(r);
  }
  return out;
}

std::vector<std::vector<lang::Atom>> RuleRewriter::ValidOrderings(
    const std::vector<lang::Atom>& body,
    const std::vector<std::string>& initially_bound, size_t max_orderings) {
  BodyOrderer orderer(body);
  for (const std::string& name : initially_bound) orderer.Bind(name);
  Orderings valid = orderer.Valid(max_orderings);
  std::vector<std::vector<lang::Atom>> out;
  out.reserve(valid.count);
  for (size_t k = 0; k < valid.count; ++k) {
    out.push_back(Reordered(body, valid.at(k)));
  }
  return out;
}

Result<std::vector<CandidatePlan>> RuleRewriter::Rewrite(
    const lang::Program& program, const lang::Query& query,
    const Options& options) {
  // Variants along two axes, selection push-down and CIM redirection, over
  // the rules the query reaches. Neither rewrite touches predicate goals,
  // so every variant reaches the same rules.
  struct Variant {
    lang::Program program;
    lang::Query query;
    std::string description;
    std::string query_key, program_key;  ///< Printed once, for dedup.
  };
  // The bases: the rules as written, then with selections pushed down. A
  // push-down that pushes nothing would repeat its direct twin, so it
  // makes no base.
  std::vector<Variant> bases(1);
  bases[0].query = query;
  for (size_t r : ReachableRules(program, query.goals)) {
    bases[0].program.rules.push_back(program.rules[r]);
  }
  bases[0].description = "direct";
  if (options.push_selections) {
    Variant pushed = bases[0];
    size_t n = PushSelections(&pushed.query.goals, options.domain_has_function);
    for (lang::Rule& rule : pushed.program.rules) {
      n += PushSelections(&rule.body, options.domain_has_function);
    }
    if (n > 0) {
      pushed.description = "pushdown";
      bases.push_back(std::move(pushed));
    }
  }

  // The bases as they are, then each redirected to CIM.
  std::vector<Variant> variants;
  auto add = [&variants](Variant v) {
    v.query_key = v.query.ToString();
    v.program_key = v.program.ToString();
    for (const Variant& existing : variants) {
      if (existing.query_key == v.query_key &&
          existing.program_key == v.program_key) {
        return;
      }
    }
    variants.push_back(std::move(v));
  };
  if (!options.cim_only) {
    for (const Variant& base : bases) add(base);
  }
  if (!options.cim_domains.empty()) {
    for (Variant& base : bases) {
      size_t redirected = RedirectToCim(&base.query.goals, options.cim_domains);
      for (lang::Rule& rule : base.program.rules) {
        redirected += RedirectToCim(&rule.body, options.cim_domains);
      }
      if (redirected > 0) base.description += "+cim";
      add(std::move(base));
    }
  }

  // Expand each variant into ordered plans: orderings of the query goals ×
  // orderings of every rule body.
  std::vector<CandidatePlan> plans;
  for (const Variant& variant : variants) {
    const std::vector<lang::Atom>& goals = variant.query.goals;
    Orderings query_orderings{goals.size(), 0, {}};
    if (options.reorder_subgoals) {
      query_orderings =
          BodyOrderer(goals).Valid(options.max_orderings_per_body);
    } else {
      std::vector<uint32_t> as_written(goals.size());
      std::iota(as_written.begin(), as_written.end(), 0u);
      query_orderings.Add(as_written.data());
    }
    if (query_orderings.count == 0) continue;  // no executable order

    // Rules with more than one valid ordering, by index into the variant's
    // program.
    std::vector<size_t> rule_indexes;
    std::vector<Orderings> rule_orderings;
    for (size_t r = 0; r < variant.program.rules.size(); ++r) {
      const lang::Rule& rule = variant.program.rules[r];
      if (!options.reorder_subgoals || rule.body.size() <= 1) continue;
      BodyOrderer orderer(rule.body);
      for (const lang::Term& arg : rule.head.args) {
        if (arg.is_variable()) orderer.Bind(arg.var_name);
      }
      Orderings orderings = orderer.Valid(options.max_orderings_per_body);
      if (orderings.count > 1) {
        rule_indexes.push_back(r);
        rule_orderings.push_back(std::move(orderings));
      }
    }

    // Cartesian product with a global cap.
    std::vector<size_t> cursor(rule_indexes.size(), 0);
    bool exhausted = false;
    while (!exhausted && plans.size() < options.max_plans) {
      for (size_t q = 0; q < query_orderings.count; ++q) {
        if (plans.size() >= options.max_plans) break;
        CandidatePlan plan;
        plan.query.goals = Reordered(goals, query_orderings.at(q));
        plan.program.rules.reserve(variant.program.rules.size());
        for (size_t r = 0, k = 0; r < variant.program.rules.size(); ++r) {
          const lang::Rule& rule = variant.program.rules[r];
          if (k < rule_indexes.size() && rule_indexes[k] == r) {
            lang::Rule& ordered = plan.program.rules.emplace_back();
            ordered.head = rule.head;
            ordered.body =
                Reordered(rule.body, rule_orderings[k].at(cursor[k]));
            ++k;
          } else {
            plan.program.rules.push_back(rule);
          }
        }
        plan.description = variant.description;
        plans.push_back(std::move(plan));
      }
      // Advance the cartesian cursor.
      exhausted = true;
      for (size_t k = 0; k < cursor.size(); ++k) {
        if (++cursor[k] < rule_orderings[k].count) {
          exhausted = false;
          break;
        }
        cursor[k] = 0;
      }
      if (cursor.empty()) exhausted = true;
    }
  }

  if (plans.empty()) {
    return Status::InvalidArgument(
        "no executable ordering exists for the query (a domain call's "
        "arguments can never all be bound)");
  }
  // Number the plans for readability.
  for (size_t i = 0; i < plans.size(); ++i) {
    plans[i].description += " #" + std::to_string(i);
  }
  return plans;
}

}  // namespace hermes::optimizer

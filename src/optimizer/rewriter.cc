#include "optimizer/rewriter.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>

namespace hermes::optimizer {

namespace {

/// Calls `fn` on each term of `atom` in PlanBody's slot order.
template <typename Fn>
void ForEachTerm(const lang::Atom& atom, Fn&& fn) {
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

/// Interns the variables of `atoms` into slots in first-occurrence order
/// and fills `body`'s slot tables, and its head slots for a rule's `head`.
/// `names` receives each slot's variable name.
void InternSlots(const std::vector<lang::Atom>& atoms, const lang::Atom* head,
                 PlanBody* body, std::vector<const std::string*>* names) {
  names->clear();
  auto find = [names](const std::string& name) {
    for (size_t k = 0; k < names->size(); ++k) {
      if (*(*names)[k] == name) return static_cast<uint32_t>(k);
    }
    return PlanBody::kNoSlot;
  };
  body->term_begin.reserve(atoms.size());
  for (const lang::Atom& atom : atoms) {
    body->term_begin.push_back(static_cast<uint32_t>(body->term_slot.size()));
    ForEachTerm(atom, [&](const lang::Term& t) {
      uint32_t slot = PlanBody::kNoSlot;
      if (t.is_variable()) {
        slot = find(t.var_name);
        if (slot == PlanBody::kNoSlot) {
          slot = static_cast<uint32_t>(names->size());
          names->push_back(&t.var_name);
        }
      }
      body->term_slot.push_back(slot);
    });
  }
  body->slot_count = static_cast<uint32_t>(names->size());
  if (head == nullptr) return;
  body->head_slot.reserve(head->args.size());
  for (const lang::Term& t : head->args) {
    body->head_slot.push_back(t.is_variable() ? find(t.var_name)
                                              : PlanBody::kNoSlot);
  }
}

/// Fills `body`'s callee tables: for each predicate goal of `atoms`, the
/// indexes of the `rules` with its name and arity.
void LinkCallees(const std::vector<lang::Atom>& atoms,
                 const std::vector<lang::Rule>& rules, PlanBody* body) {
  body->callee_begin.reserve(atoms.size() + 1);
  for (const lang::Atom& atom : atoms) {
    body->callee_begin.push_back(static_cast<uint32_t>(body->callees.size()));
    if (!atom.is_predicate()) continue;
    for (size_t r = 0; r < rules.size(); ++r) {
      if (rules[r].head.predicate == atom.predicate &&
          rules[r].head.args.size() == atom.args.size()) {
        body->callees.push_back(static_cast<uint32_t>(r));
      }
    }
  }
  body->callee_begin.push_back(static_cast<uint32_t>(body->callees.size()));
}

/// The valid orderings of one body. Each atom's prerequisites and bindings
/// become bitmasks over the body's variable slots, `words_` 64-bit words
/// wide, so no body size needs a special case. Orderings whose atoms print
/// the same at every position are one; atoms fall into classes of those
/// that print the same, and only atoms that may have a twin are printed.
class BodyOrderer {
 public:
  BodyOrderer(const std::vector<lang::Atom>& body, const PlanBody& slots)
      : body_(body), slots_(slots), used_(body.size(), 0),
        current_(body.size(), 0) {
    words_ = std::max<size_t>(1, (slots.slot_count + 63) / 64);
    masks_.assign(body.size() * kMasksPerAtom * words_, 0);
    bound_.assign((body.size() + 1) * words_, 0);
    info_.resize(body.size());
    for (size_t i = 0; i < body.size(); ++i) Describe(i);
  }

  /// Marks the variable in `slot` bound before the body runs.
  void Bind(uint32_t slot) {
    if (slot != PlanBody::kNoSlot) Set(bound_.data(), slot);
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

  /// Adds what `term`, in `slot`, needs bound to `mask`; false for a `$b`
  /// placeholder, which never resolves.
  static bool Need(const lang::Term& term, uint32_t slot, uint64_t* mask) {
    if (term.is_bound_pattern()) return false;
    if (term.is_variable()) Set(mask, slot);
    return true;
  }

  void Describe(size_t i) {
    const lang::Atom& atom = body_[i];
    const uint32_t* slot = slots_.slots_of(i);
    AtomInfo& info = info_[i];
    switch (atom.kind) {
      case lang::Atom::Kind::kDomainCall:
        for (size_t a = 0; a < atom.call.args.size(); ++a) {
          if (!Need(atom.call.args[a], slot[1 + a], MaskOf(i, kNeedA))) {
            info.never_a = true;
          }
        }
        if (atom.output.is_variable()) {
          // Binding through an attribute path needs the base bound.
          if (!atom.output.path.empty()) {
            Need(atom.output, slot[0], MaskOf(i, kNeedA));
          }
          Set(MaskOf(i, kBindA), slot[0]);
        }
        break;
      case lang::Atom::Kind::kComparison:
        info.never_a = !Need(atom.lhs, slot[0], MaskOf(i, kNeedA));
        info.never_b = !Need(atom.rhs, slot[1], MaskOf(i, kNeedB));
        // '=' with exactly one resolvable side binds the other, provided
        // the free side is a plain variable.
        if (atom.op == lang::RelOp::kEq) {
          if (atom.rhs.is_variable() && atom.rhs.path.empty()) {
            info.binds_a = true;
            Set(MaskOf(i, kBindA), slot[1]);
          }
          if (atom.lhs.is_variable() && atom.lhs.path.empty()) {
            info.binds_b = true;
            Set(MaskOf(i, kBindB), slot[0]);
          }
        }
        break;
      case lang::Atom::Kind::kPredicate:
        // IDB predicates can generate bindings; feasibility of the chosen
        // adornment is checked later by the cost estimator / executor.
        for (size_t a = 0; a < atom.args.size(); ++a) {
          if (atom.args[a].is_variable()) Set(MaskOf(i, kBindA), slot[a]);
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

  /// Can atoms `a` and `b` print the same? Only if they agree on kind and
  /// on what is printed before their terms.
  static bool MayPrintAlike(const lang::Atom& a, const lang::Atom& b) {
    if (a.kind != b.kind) return false;
    switch (a.kind) {
      case lang::Atom::Kind::kPredicate:
        return a.predicate == b.predicate && a.args.size() == b.args.size();
      case lang::Atom::Kind::kDomainCall:
        return a.call.domain == b.call.domain &&
               a.call.function == b.call.function &&
               a.call.args.size() == b.call.args.size();
      case lang::Atom::Kind::kComparison:
        return a.op == b.op;
    }
    return true;
  }

  /// For each atom, the index of the first atom that prints the same. An
  /// atom is printed only when another may print alike.
  std::vector<uint32_t> AtomClasses() const {
    const size_t n = body_.size();
    std::vector<std::string> text(n);
    std::vector<uint32_t> cls(n);
    std::iota(cls.begin(), cls.end(), 0u);
    for (size_t i = 1; i < n; ++i) {
      // The first atom of a class is the first to print its text.
      for (size_t j = 0; j < i; ++j) {
        if (cls[j] != j || !MayPrintAlike(body_[j], body_[i])) continue;
        if (text[j].empty()) text[j] = body_[j].ToString();
        if (text[i].empty()) text[i] = body_[i].ToString();
        if (text[j] == text[i]) {
          cls[i] = static_cast<uint32_t>(j);
          break;
        }
      }
    }
    return cls;
  }

  const std::vector<lang::Atom>& body_;
  const PlanBody& slots_;
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

/// Prepares every body of `variant` (slots, callees and, when `reorder`,
/// at most `max_orderings` valid orderings) and counts its CIM calls.
/// False when the query goals have no executable order.
bool Prepare(PlanVariant* variant, bool reorder, size_t max_orderings) {
  const size_t n_bodies = 1 + variant->program.rules.size();
  variant->bodies.resize(n_bodies);
  std::vector<const std::string*> names;
  for (size_t b = 0; b < n_bodies; ++b) {
    const std::vector<lang::Atom>& atoms = variant->atoms(b);
    PlanBody& body = variant->bodies[b];
    InternSlots(atoms, b == 0 ? nullptr : &variant->program.rules[b - 1].head,
                &body, &names);
    LinkCallees(atoms, variant->program.rules, &body);
    for (const lang::Atom& atom : atoms) {
      if (atom.is_domain_call() && atom.call.domain.rfind("cim_", 0) == 0) {
        ++variant->cim_calls;
      }
    }
    if (!reorder || (b > 0 && atoms.size() <= 1)) {
      body.orderings = Orderings::AsWritten(atoms.size());
      continue;
    }
    BodyOrderer orderer(atoms, body);
    for (uint32_t slot : body.head_slot) orderer.Bind(slot);
    body.orderings = orderer.Valid(max_orderings);
    if (b == 0) {
      if (body.orderings.count == 0) return false;
    } else if (body.orderings.count <= 1) {
      // A rule body with one valid ordering, or none, runs as written.
      body.orderings = Orderings::AsWritten(atoms.size());
    }
  }
  return true;
}

}  // namespace

Orderings Orderings::AsWritten(size_t width) {
  Orderings out{width, 1, std::vector<uint32_t>(width)};
  std::iota(out.index.begin(), out.index.end(), 0u);
  return out;
}

std::string PlanSpace::Description(size_t k) const {
  return variant_of(k).description + " #" + std::to_string(k);
}

CandidatePlan PlanSpace::Materialize(size_t k) const {
  const PlanVariant& variant = variant_of(k);
  CandidatePlan plan;
  plan.description = Description(k);
  plan.query.goals = Reordered(variant.query.goals, Order(k, 0));
  plan.program.rules.reserve(variant.program.rules.size());
  for (size_t r = 0; r < variant.program.rules.size(); ++r) {
    lang::Rule& rule = plan.program.rules.emplace_back();
    rule.head = variant.program.rules[r].head;
    rule.body = Reordered(variant.program.rules[r].body, Order(k, 1 + r));
  }
  return plan;
}

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
  PlanBody slots;
  std::vector<const std::string*> names;
  InternSlots(body, nullptr, &slots, &names);
  BodyOrderer orderer(body, slots);
  for (const std::string& name : initially_bound) {
    for (size_t k = 0; k < names.size(); ++k) {
      if (*names[k] == name) orderer.Bind(static_cast<uint32_t>(k));
    }
  }
  Orderings valid = orderer.Valid(max_orderings);
  std::vector<std::vector<lang::Atom>> out;
  out.reserve(valid.count);
  for (size_t k = 0; k < valid.count; ++k) {
    out.push_back(Reordered(body, valid.at(k)));
  }
  return out;
}

Result<PlanSpace> RuleRewriter::Enumerate(const lang::Program& program,
                                          const lang::Query& query,
                                          const Options& options) {
  // Variants along two axes, selection push-down and CIM redirection, over
  // the rules the query reaches. Neither rewrite touches predicate goals,
  // so every variant reaches the same rules.
  //
  // The bases: the rules as written, then with selections pushed down. A
  // push-down that pushes nothing would repeat its direct twin, so it
  // makes no base.
  std::vector<PlanVariant> bases(1);
  bases[0].query = query;
  for (size_t r : ReachableRules(program, query.goals)) {
    bases[0].program.rules.push_back(program.rules[r]);
  }
  bases[0].description = "direct";
  if (options.push_selections) {
    PlanVariant pushed = bases[0];
    size_t n = PushSelections(&pushed.query.goals, options.domain_has_function);
    for (lang::Rule& rule : pushed.program.rules) {
      n += PushSelections(&rule.body, options.domain_has_function);
    }
    if (n > 0) {
      pushed.description = "pushdown";
      bases.push_back(std::move(pushed));
    }
  }

  // The bases as they are, then each redirected to CIM. A redirection that
  // redirects nothing would repeat its base, so it makes a variant only
  // when the bases themselves are left out (cim_only). No two variants
  // print the same: a push-down base drops a comparison, a redirection
  // renames a domain.
  std::vector<PlanVariant> variants;
  if (options.cim_domains.empty()) {
    if (!options.cim_only) variants = std::move(bases);
  } else {
    if (!options.cim_only) variants = bases;
    for (PlanVariant& base : bases) {
      size_t redirected = RedirectToCim(&base.query.goals, options.cim_domains);
      for (lang::Rule& rule : base.program.rules) {
        redirected += RedirectToCim(&rule.body, options.cim_domains);
      }
      if (redirected > 0) {
        base.description += "+cim";
      } else if (!options.cim_only) {
        continue;
      }
      variants.push_back(std::move(base));
    }
  }

  // Each variant's candidates: orderings of the query goals × orderings of
  // every rule body, the query goals varying fastest, under a global cap.
  PlanSpace space;
  for (PlanVariant& v : variants) {
    if (space.candidates.size() >= options.max_plans) break;
    if (!Prepare(&v, options.reorder_subgoals,
                 options.max_orderings_per_body)) {
      continue;  // no executable order
    }
    const uint32_t index = static_cast<uint32_t>(space.variants.size());
    const PlanVariant& variant = space.variants.emplace_back(std::move(v));
    std::vector<uint32_t> cursor(variant.bodies.size(), 0);
    bool exhausted = false;
    while (!exhausted && space.candidates.size() < options.max_plans) {
      for (uint32_t q = 0; q < variant.bodies[0].orderings.count; ++q) {
        if (space.candidates.size() >= options.max_plans) break;
        cursor[0] = q;
        space.candidates.push_back(
            {index, static_cast<uint32_t>(space.choices.size())});
        space.choices.insert(space.choices.end(), cursor.begin(),
                             cursor.end());
      }
      // Advance the rule bodies' cartesian cursor.
      exhausted = true;
      for (size_t b = 1; b < cursor.size(); ++b) {
        if (++cursor[b] < variant.bodies[b].orderings.count) {
          exhausted = false;
          break;
        }
        cursor[b] = 0;
      }
    }
  }

  if (space.candidates.empty()) {
    return Status::InvalidArgument(
        "no executable ordering exists for the query (a domain call's "
        "arguments can never all be bound)");
  }
  return space;
}

Result<std::vector<CandidatePlan>> RuleRewriter::Rewrite(
    const lang::Program& program, const lang::Query& query,
    const Options& options) {
  HERMES_ASSIGN_OR_RETURN(PlanSpace space,
                          Enumerate(program, query, options));
  std::vector<CandidatePlan> plans;
  plans.reserve(space.candidates.size());
  for (size_t k = 0; k < space.candidates.size(); ++k) {
    plans.push_back(space.Materialize(k));
  }
  return plans;
}

PlanSpace RuleRewriter::AsWritten(const lang::Program& program,
                                  const std::vector<lang::Atom>& goals) {
  PlanSpace space;
  PlanVariant& variant = space.variants.emplace_back();
  variant.query.goals = goals;
  for (size_t r : ReachableRules(program, goals)) {
    variant.program.rules.push_back(program.rules[r]);
  }
  Prepare(&variant, /*reorder=*/false, /*max_orderings=*/1);
  space.candidates.push_back({0, 0});
  space.choices.assign(variant.bodies.size(), 0);
  return space;
}

}  // namespace hermes::optimizer

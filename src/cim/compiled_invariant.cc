#include "cim/compiled_invariant.h"

#include <algorithm>

namespace hermes::cim {

namespace {

using Term = CompiledInvariant::Term;

/// The value `term` names under `slots`, or null when it names none.
const Value* Resolve(const Term& term, const Value* const* slots) {
  switch (term.kind) {
    case Term::Kind::kConstant:
      return &term.constant;
    case Term::Kind::kSlot: {
      const Value* bound = slots[term.slot];
      if (bound == nullptr || term.path.empty()) return bound;
      Result<const Value*> at = bound->GetPathPtr(term.path);
      return at.ok() ? *at : nullptr;
    }
    case Term::Kind::kNever:
      break;
  }
  return nullptr;
}

}  // namespace

CompiledInvariant::CompiledInvariant(const lang::Invariant& invariant)
    : equality_(invariant.relation == lang::InvariantRelation::kEqual) {
  const lang::DomainCallSpec* specs[2] = {&invariant.lhs, &invariant.rhs};
  for (size_t s = 0; s < 2; ++s) {
    sides_[s].domain = specs[s]->domain;
    sides_[s].function = specs[s]->function;
    sides_[s].args.reserve(specs[s]->args.size());
    for (const lang::Term& arg : specs[s]->args) {
      sides_[s].args.push_back(Compile(arg, /*keep_path=*/false));
    }
  }
  conditions_.reserve(invariant.conditions.size());
  for (const lang::Atom& cond : invariant.conditions) {
    Condition& compiled = conditions_.emplace_back();
    if (!cond.is_comparison()) continue;  // kNever operands: never holds
    compiled.op = cond.op;
    compiled.lhs = Compile(cond.lhs, /*keep_path=*/true);
    compiled.rhs = Compile(cond.rhs, /*keep_path=*/true);
  }

  auto binds_target = [this](size_t pattern) {
    const std::vector<Term>& from = sides_[pattern].args;
    for (const Term& t : sides_[1 - pattern].args) {
      if (t.kind == Term::Kind::kNever) return false;
      if (t.kind == Term::Kind::kSlot &&
          std::none_of(from.begin(), from.end(), [&t](const Term& p) {
            return p.kind == Term::Kind::kSlot && p.slot == t.slot;
          })) {
        return false;
      }
    }
    return true;
  };
  if (equality_) {
    directions_ = {{0, binds_target(0)}, {1, binds_target(1)}};
  } else {
    const size_t superset =
        invariant.relation == lang::InvariantRelation::kSuperset ? 0 : 1;
    directions_ = {{superset, binds_target(superset)}};
  }
}

size_t CompiledInvariant::SlotFor(const std::string& name) {
  for (size_t i = 0; i < slot_names_.size(); ++i) {
    if (slot_names_[i] == name) return i;
  }
  slot_names_.push_back(name);
  return slot_names_.size() - 1;
}

CompiledInvariant::Term CompiledInvariant::Compile(const lang::Term& term,
                                                   bool keep_path) {
  Term out;
  switch (term.kind) {
    case lang::Term::Kind::kConstant:
      out.kind = Term::Kind::kConstant;
      out.constant = term.constant;
      break;
    case lang::Term::Kind::kVariable:
      out.kind = Term::Kind::kSlot;
      out.slot = SlotFor(term.var_name);
      if (keep_path) out.path = term.path;
      break;
    case lang::Term::Kind::kBoundPattern:
      break;
  }
  return out;
}

std::optional<size_t> CompiledInvariant::SlotOf(std::string_view name) const {
  for (size_t i = 0; i < slot_names_.size(); ++i) {
    if (slot_names_[i] == name) return i;
  }
  return std::nullopt;
}

bool CompiledInvariant::Match(const Side& side, const CallKey& call,
                              const Value** slots) {
  if (side.domain != call.domain || side.function != call.function ||
      side.args.size() != call.arity) {
    return false;
  }
  for (size_t i = 0; i < side.args.size(); ++i) {
    const Term& t = side.args[i];
    const Value& v = call.arg(i);
    switch (t.kind) {
      case Term::Kind::kConstant:
        if (t.constant != v) return false;
        break;
      case Term::Kind::kSlot:
        if (slots[t.slot] == nullptr) {
          slots[t.slot] = &v;
        } else if (*slots[t.slot] != v) {
          return false;
        }
        break;
      case Term::Kind::kNever:
        return false;
    }
  }
  return true;
}

void CompiledInvariant::Gather(const Side& side, const Value* const* slots,
                               const Value** args) {
  for (size_t i = 0; i < side.args.size(); ++i) {
    const Term& t = side.args[i];
    args[i] = t.kind == Term::Kind::kConstant ? &t.constant : slots[t.slot];
  }
}

bool CompiledInvariant::ConditionsHold(const Value* const* slots) const {
  for (const Condition& cond : conditions_) {
    const Value* lhs = Resolve(cond.lhs, slots);
    const Value* rhs = Resolve(cond.rhs, slots);
    if (lhs == nullptr || rhs == nullptr ||
        !lang::EvalRelOp(cond.op, *lhs, *rhs)) {
      return false;
    }
  }
  return true;
}

}  // namespace hermes::cim

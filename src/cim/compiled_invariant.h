#ifndef HERMES_CIM_COMPILED_INVARIANT_H_
#define HERMES_CIM_COMPILED_INVARIANT_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/value.h"
#include "domain/call.h"
#include "lang/ast.h"

namespace hermes::cim {

/// Section 4's invariant, compiled once when it is registered.
///
/// Each distinct variable gets a slot. Each argument of either side is a
/// constant or a slot, and each condition compares two constant-or-slot
/// terms, keeping their attribute paths. θ, the substitution of Section
/// 4.1, is then an array of `const Value*` indexed by slot: null while the
/// variable is unbound, otherwise a view of the argument it was bound to,
/// in the call being matched or in a cache entry. Matching copies nothing,
/// so a θ lives no longer than the arguments it views.
///
/// Compilation keeps the meaning of the invariant as written: a path on a
/// call argument is ignored (the variable binds the whole argument), and
/// `$b` or a condition that is not a comparison never holds.
class CompiledInvariant {
 public:
  /// An argument of a side, or an operand of a condition.
  struct Term {
    enum class Kind {
      kConstant,
      kSlot,
      kNever,  ///< `$b`: matches no value and resolves to none.
    };
    Kind kind = Kind::kNever;
    Value constant;                 ///< kConstant.
    size_t slot = 0;                ///< kSlot.
    std::vector<std::string> path;  ///< kSlot in a condition.
  };

  /// One side, `domain:function(args)`.
  struct Side {
    std::string domain;
    std::string function;
    std::vector<Term> args;
  };

  struct Condition {
    lang::RelOp op = lang::RelOp::kEq;
    Term lhs;
    Term rhs;
  };

  /// One way to use the invariant: a call matching the `pattern` side is
  /// answered, wholly (equality) or in part (containment), by a cached call
  /// matching the other side, the target.
  struct Direction {
    size_t pattern = 0;  ///< 0: lhs, 1: rhs.
    /// The pattern binds every slot of the target, so the target is one
    /// ground call; otherwise finding it takes a cache scan.
    bool target_bound = false;
  };

  explicit CompiledInvariant(const lang::Invariant& invariant);

  /// True for `=`; false for `>=` and `<=`.
  bool equality() const { return equality_; }
  /// Both directions of an equality in source order (lhs as the pattern
  /// first); the ⊇ side as the pattern of a containment.
  const std::vector<Direction>& directions() const { return directions_; }
  const Side& pattern(const Direction& d) const { return sides_[d.pattern]; }
  const Side& target(const Direction& d) const {
    return sides_[1 - d.pattern];
  }
  const Side& lhs() const { return sides_[0]; }
  const Side& rhs() const { return sides_[1]; }

  size_t num_slots() const { return slot_names_.size(); }
  /// The slot of variable `name`, or nullopt if the invariant has none.
  std::optional<size_t> SlotOf(std::string_view name) const;

  /// Matches the ground `call` against `side` under θ = `slots`: constants
  /// must equal the call's arguments, an unbound slot binds to a view of
  /// its argument, and a bound one must equal it. On a mismatch `slots`
  /// may be left partly bound.
  static bool Match(const Side& side, const CallKey& call,
                    const Value** slots);

  /// Writes into `args` a view of each argument of `side`, every slot of
  /// which `slots` binds: the arguments of the ground call it names.
  static void Gather(const Side& side, const Value* const* slots,
                     const Value** args);

  /// Whether every condition holds under `slots`. A condition over an
  /// unbound slot, or whose attribute path does not resolve, does not hold.
  bool ConditionsHold(const Value* const* slots) const;

 private:
  size_t SlotFor(const std::string& name);
  Term Compile(const lang::Term& term, bool keep_path);

  bool equality_ = false;
  Side sides_[2];
  std::vector<Condition> conditions_;
  std::vector<Direction> directions_;
  std::vector<std::string> slot_names_;
};

}  // namespace hermes::cim

#endif  // HERMES_CIM_COMPILED_INVARIANT_H_

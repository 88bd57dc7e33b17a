// θ, the substitution of Section 4.1, as a compiled invariant builds it: an
// array of `const Value*` indexed by the invariant's variable slots, each
// bound slot viewing an argument of the call it was matched against.

#include "cim/compiled_invariant.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cim/cim.h"
#include "lang/parser.h"

namespace hermes::cim {
namespace {

using Term = CompiledInvariant::Term;

CompiledInvariant Compiled(const std::string& invariant_text) {
  Result<lang::Invariant> inv = lang::Parser::ParseInvariant(invariant_text);
  EXPECT_TRUE(inv.ok()) << inv.status();
  return CompiledInvariant(*inv);
}

/// An unbound θ for `inv`.
std::vector<const Value*> Theta(const CompiledInvariant& inv) {
  return std::vector<const Value*>(inv.num_slots(), nullptr);
}

/// Binds `var` in `theta` to a view of `value`.
void Bind(const CompiledInvariant& inv, std::vector<const Value*>& theta,
          const std::string& var, const Value& value) {
  std::optional<size_t> slot = inv.SlotOf(var);
  ASSERT_TRUE(slot.has_value()) << var;
  theta[*slot] = &value;
}

TEST(SubstitutionTest, MatchBindsVariables) {
  CompiledInvariant inv =
      Compiled("=> spatial:range(F, X, Y, D) = spatial:range(F, X, Y, D).");
  DomainCall call{"spatial",
                  "range",
                  {Value::Str("map1"), Value::Int(3), Value::Int(4),
                   Value::Int(50)}};
  std::vector<const Value*> theta = Theta(inv);
  ASSERT_TRUE(CompiledInvariant::Match(inv.lhs(), call, theta.data()));
  EXPECT_EQ(*theta[*inv.SlotOf("F")], Value::Str("map1"));
  EXPECT_EQ(*theta[*inv.SlotOf("D")], Value::Int(50));
  // A binding views the call's own argument; nothing is copied.
  EXPECT_EQ(theta[*inv.SlotOf("F")], &call.args[0]);
}

TEST(SubstitutionTest, MatchChecksConstants) {
  CompiledInvariant inv = Compiled(
      "=> spatial:range('map1', X, Y, D) = spatial:range('p', X, Y, D).");
  DomainCall wrong{"spatial",
                   "range",
                   {Value::Str("other"), Value::Int(0), Value::Int(0),
                    Value::Int(1)}};
  std::vector<const Value*> theta = Theta(inv);
  EXPECT_FALSE(CompiledInvariant::Match(inv.lhs(), wrong, theta.data()));
}

TEST(SubstitutionTest, MatchRejectsDomainFunctionArityMismatch) {
  CompiledInvariant inv = Compiled("=> d:f(X) = d:g(X).");
  std::vector<const Value*> theta = Theta(inv);
  EXPECT_FALSE(CompiledInvariant::Match(
      inv.lhs(), DomainCall{"e", "f", {Value::Int(1)}}, theta.data()));
  EXPECT_FALSE(CompiledInvariant::Match(
      inv.lhs(), DomainCall{"d", "g", {Value::Int(1)}}, theta.data()));
  EXPECT_FALSE(CompiledInvariant::Match(
      inv.lhs(), DomainCall{"d", "f", {Value::Int(1), Value::Int(2)}},
      theta.data()));
}

TEST(SubstitutionTest, RepeatedVariableMustAgree) {
  CompiledInvariant inv = Compiled("=> d:f(X, X) = d:g(X).");
  std::vector<const Value*> theta = Theta(inv);
  EXPECT_TRUE(CompiledInvariant::Match(
      inv.lhs(), DomainCall{"d", "f", {Value::Int(1), Value::Int(1)}},
      theta.data()));
  std::vector<const Value*> theta2 = Theta(inv);
  EXPECT_FALSE(CompiledInvariant::Match(
      inv.lhs(), DomainCall{"d", "f", {Value::Int(1), Value::Int(2)}},
      theta2.data()));
}

TEST(SubstitutionTest, ApplySubstitutionGroundsBoundVars) {
  CompiledInvariant inv =
      Compiled("D > 142 => spatial:range('map1', X, Y, D) = "
               "spatial:range('points', X, Y, 142).");
  // Matching the lhs binds every slot of the rhs: one ground target.
  ASSERT_EQ(inv.directions().size(), 2u);
  const CompiledInvariant::Direction& lhs_to_rhs = inv.directions()[0];
  EXPECT_EQ(&inv.target(lhs_to_rhs), &inv.rhs());
  EXPECT_TRUE(lhs_to_rhs.target_bound);

  const Value x = Value::Int(7);
  const Value y = Value::Int(9);
  std::vector<const Value*> theta = Theta(inv);
  Bind(inv, theta, "X", x);
  Bind(inv, theta, "Y", y);
  std::vector<const Value*> args(inv.rhs().args.size());
  CompiledInvariant::Gather(inv.rhs(), theta.data(), args.data());
  EXPECT_EQ(*args[0], Value::Str("points"));
  EXPECT_EQ(*args[1], Value::Int(7));
  EXPECT_EQ(*args[3], Value::Int(142));
}

TEST(SubstitutionTest, ApplySubstitutionLeavesUnboundVars) {
  CompiledInvariant inv = Compiled("V1 <= V2 => d:sel(T, V2) >= d:sel(T, V1).");
  ASSERT_EQ(inv.directions().size(), 1u);
  const CompiledInvariant::Direction& dir = inv.directions()[0];
  EXPECT_EQ(&inv.target(dir), &inv.rhs());
  // V1 is the rhs's own variable: finding the target takes a cache scan.
  EXPECT_FALSE(dir.target_bound);

  DomainCall call{"d", "sel", {Value::Str("t"), Value::Int(10)}};
  std::vector<const Value*> theta = Theta(inv);
  ASSERT_TRUE(CompiledInvariant::Match(inv.pattern(dir), call, theta.data()));
  const Term& free = inv.rhs().args[1];
  ASSERT_EQ(free.kind, Term::Kind::kSlot);
  EXPECT_EQ(free.slot, *inv.SlotOf("V1"));
  EXPECT_EQ(theta[free.slot], nullptr);
  EXPECT_EQ(*theta[*inv.SlotOf("T")], Value::Str("t"));
}

TEST(SubstitutionTest, ResolveTermWithPath) {
  CompiledInvariant inv = Compiled("T.loc = 'depot' => d:f(T) = d:g(T).");
  const Value depot = Value::Struct({{"loc", Value::Str("depot")}});
  const Value elsewhere = Value::Struct({{"loc", Value::Str("field")}});
  std::vector<const Value*> theta = Theta(inv);
  Bind(inv, theta, "T", depot);
  EXPECT_TRUE(inv.ConditionsHold(theta.data()));
  Bind(inv, theta, "T", elsewhere);
  EXPECT_FALSE(inv.ConditionsHold(theta.data()));
}

TEST(SubstitutionTest, EvalConditionsAllHold) {
  CompiledInvariant inv = Compiled(
      "F2 <= F1 & L1 <= L2 => v:f(V, F2, L2) >= v:f(V, F1, L1).");
  const Value f1 = Value::Int(4), f2 = Value::Int(1);
  const Value l1 = Value::Int(47), l2 = Value::Int(100);
  std::vector<const Value*> theta = Theta(inv);
  Bind(inv, theta, "F1", f1);
  Bind(inv, theta, "F2", f2);
  Bind(inv, theta, "L1", l1);
  Bind(inv, theta, "L2", l2);
  EXPECT_TRUE(inv.ConditionsHold(theta.data()));
}

TEST(SubstitutionTest, EvalConditionsFailsWhenViolated) {
  CompiledInvariant inv = Compiled("A < B => d:f(A) <= d:f(B).");
  const Value a = Value::Int(5), b = Value::Int(3);
  std::vector<const Value*> theta = Theta(inv);
  Bind(inv, theta, "A", a);
  Bind(inv, theta, "B", b);
  EXPECT_FALSE(inv.ConditionsHold(theta.data()));
}

TEST(SubstitutionTest, EvalConditionsUnboundVariableIsFalse) {
  CompiledInvariant inv = Compiled("A < B => d:f(A) <= d:f(B).");
  const Value a = Value::Int(5);
  std::vector<const Value*> theta = Theta(inv);
  Bind(inv, theta, "A", a);  // B unbound
  EXPECT_FALSE(inv.ConditionsHold(theta.data()));
}

/// Answers every call with one value after 100 ms.
class StubDomain : public Domain {
 public:
  const std::string& name() const override { return name_; }
  std::vector<FunctionInfo> Functions() const override { return {}; }
  Result<CallOutput> Run(const DomainCall&) override {
    ++calls;
    CallOutput out;
    out.answers = {Value::Int(1)};
    out.first_ms = 100.0;
    out.all_ms = 100.0;
    return out;
  }
  int calls = 0;

 private:
  std::string name_ = "d";
};

TEST(SubstitutionTest, ConditionOnAVariableNeitherSideBindsNeverApplies) {
  // The parser rejects such an invariant, so build it by hand: Z is in
  // the condition only, and stays unbound whatever the calls bind.
  Result<lang::Invariant> parsed =
      lang::Parser::ParseInvariant("B <= A => d:f(A) >= d:f(B).");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  parsed->conditions[0].lhs = lang::Term::Var("Z");
  CompiledInvariant inv(*parsed);
  ASSERT_TRUE(inv.SlotOf("Z").has_value());
  const Value a = Value::Int(9), b = Value::Int(1);
  std::vector<const Value*> theta = Theta(inv);
  Bind(inv, theta, "A", a);
  Bind(inv, theta, "B", b);
  EXPECT_FALSE(inv.ConditionsHold(theta.data()));

  // Through the CIM: the call matches the ⊇ side, so the scan visits and
  // charges every entry, but no entry ever satisfies the condition.
  auto stub = std::make_shared<StubDomain>();
  CimCostParams params;
  CimDomain cim("cim_d", "d", stub, CimOptions{}, params);
  cim.AddInvariant(*parsed);
  constexpr int kEntries = 5;
  for (int i = 0; i < kEntries; ++i) {
    cim.cache().Put(DomainCall{"d", "f", {Value::Int(i)}}, {Value::Int(i)});
  }
  CimOutcome outcome = CimOutcome::kExactHit;
  Result<CallOutput> out = cim.RunWith(
      DomainCall{"cim_d", "f", {Value::Int(9)}},
      [&stub](const DomainCall& call) { return stub->Run(call); }, &outcome);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(outcome, CimOutcome::kMiss);
  EXPECT_EQ(stub->calls, 1);
  const double lead_ms = params.exact_lookup_ms +
                         params.per_invariant_attempt_ms +
                         params.per_invariant_ms +
                         kEntries * params.per_cache_probe_ms;
  EXPECT_DOUBLE_EQ(out->first_ms, 100.0 + lead_ms);
}

}  // namespace
}  // namespace hermes::cim

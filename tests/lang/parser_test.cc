#include "lang/parser.h"

#include <gtest/gtest.h>

namespace hermes::lang {
namespace {

Rule MustParseRule(const std::string& text) {
  Result<Rule> r = Parser::ParseRule(text);
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ok() ? *r : Rule{};
}

TEST(ParserTest, ParsesFact) {
  Rule rule = MustParseRule("p(a, 1).");
  EXPECT_EQ(rule.head.predicate, "p");
  ASSERT_EQ(rule.head.args.size(), 2u);
  EXPECT_EQ(rule.head.args[0].constant, Value::Str("a"));
  EXPECT_EQ(rule.head.args[1].constant, Value::Int(1));
  EXPECT_TRUE(rule.body.empty());
}

TEST(ParserTest, ParsesSectionTwoExampleRule) {
  Rule rule = MustParseRule(
      "routetosupplies(From, Sup1, To, R) :- "
      "in(Tuple, ingres:select_eq('inventory', item, Sup1)) & "
      "=(Tuple.loc, To) & "
      "in(R, terraindb:findrte(From, To)).");
  EXPECT_EQ(rule.head.predicate, "routetosupplies");
  ASSERT_EQ(rule.body.size(), 3u);
  EXPECT_TRUE(rule.body[0].is_domain_call());
  EXPECT_EQ(rule.body[0].call.domain, "ingres");
  EXPECT_EQ(rule.body[0].call.function, "select_eq");
  EXPECT_TRUE(rule.body[1].is_comparison());
  EXPECT_EQ(rule.body[1].lhs.var_name, "Tuple");
  EXPECT_EQ(rule.body[1].lhs.path, (std::vector<std::string>{"loc"}));
  EXPECT_TRUE(rule.body[2].is_domain_call());
}

TEST(ParserTest, CommaAndAmpersandBothSeparate) {
  Rule a = MustParseRule("m(A, C) :- p(A, B), q(B, C).");
  Rule b = MustParseRule("m(A, C) :- p(A, B) & q(B, C).");
  EXPECT_EQ(a.ToString(), b.ToString());
}

TEST(ParserTest, InfixAndPrefixComparisons) {
  Rule a = MustParseRule("f(X) :- g(X) & X <= 5.");
  Rule b = MustParseRule("f(X) :- g(X) & <=(X, 5).");
  EXPECT_EQ(a.body[1].ToString(), b.body[1].ToString());
  EXPECT_EQ(a.body[1].op, RelOp::kLe);
}

TEST(ParserTest, PositionalAttributeSelectors) {
  Rule rule = MustParseRule(
      "p(A, B) :- in($ans, d1:p_ff()) & =($ans.1, A) & =($ans.2, B).");
  EXPECT_EQ(rule.body[1].lhs.var_name, "$ans");
  EXPECT_EQ(rule.body[1].lhs.path, (std::vector<std::string>{"1"}));
}

TEST(ParserTest, ZeroArgDomainCall) {
  Rule rule = MustParseRule("p(B, C) :- in(B, d2:q_ff()).");
  EXPECT_TRUE(rule.body[0].is_domain_call());
  EXPECT_TRUE(rule.body[0].call.args.empty());
}

TEST(ParserTest, RuleHeadMustBePredicate) {
  EXPECT_TRUE(Parser::ParseRule("X = 5 :- p(X).").status().IsParseError());
}

TEST(ParserTest, MissingDotIsError) {
  EXPECT_TRUE(Parser::ParseRule("p(a) :- q(a)").status().IsParseError());
}

TEST(ParserTest, TrailingInputIsError) {
  EXPECT_TRUE(Parser::ParseRule("p(a). q(b).").status().IsParseError());
}

TEST(ParserTest, LexingErrorWinsOverAnEarlierParseError) {
  // The whole text is lexed first: the stray ')' would fail the parse at
  // column 8, but the unterminated string at the end is reported.
  Status s = Parser::ParseQuery("?- p(X)) & q('oops").status();
  ASSERT_TRUE(s.IsParseError());
  EXPECT_EQ(s.message(), "unterminated string literal at line 1, column 19");
}

TEST(ParserTest, ProgramParsesMultipleRules) {
  Result<Program> p = Parser::ParseProgram(
      "m(A, C) :- p(A, B) & q(B, C).\n"
      "p(A, B) :- in(B, d1:p_bf(A)).\n"
      "q(B, C) :- in(C, d2:q_bf(B)).\n");
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_EQ(p->rules.size(), 3u);
}

TEST(ParserTest, ProgramRoundTripsThroughToString) {
  const std::string text =
      "m(A, C) :- p(A, B) & q(B, C).\n"
      "p(A, B) :- in(B, d1:p_bf(A)) & A != 'x'.\n";
  Result<Program> p1 = Parser::ParseProgram(text);
  ASSERT_TRUE(p1.ok());
  Result<Program> p2 = Parser::ParseProgram(p1->ToString());
  ASSERT_TRUE(p2.ok()) << p2.status();
  EXPECT_EQ(p1->ToString(), p2->ToString());
}

TEST(ParserTest, QueryWithAndWithoutArrow) {
  Result<Query> a = Parser::ParseQuery("?- m(a, C).");
  Result<Query> b = Parser::ParseQuery("m(a, C).");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->ToString(), b->ToString());
}

TEST(ParserTest, QueryWithConjunction) {
  Result<Query> q =
      Parser::ParseQuery("?- in(X, d:f(1)) & X > 3 & p(X, Y).");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->goals.size(), 3u);
}

TEST(ParserTest, ListLiterals) {
  Rule rule = MustParseRule("p(X) :- in(X, d:f([1, 2.5, 'a'])).");
  const Value& v = rule.body[0].call.args[0].constant;
  ASSERT_TRUE(v.is_list());
  EXPECT_EQ(v.as_list().size(), 3u);
}

TEST(ParserTest, ListsMayNotContainVariables) {
  EXPECT_TRUE(Parser::ParseRule("p(X) :- in(X, d:f([Y])).")
                  .status()
                  .IsParseError());
}

TEST(ParserTest, TrueFalseNullLiterals) {
  Rule rule = MustParseRule("p(X) :- in(X, d:f(true, false, null)).");
  EXPECT_EQ(rule.body[0].call.args[0].constant, Value::Bool(true));
  EXPECT_EQ(rule.body[0].call.args[1].constant, Value::Bool(false));
  EXPECT_TRUE(rule.body[0].call.args[2].constant.is_null());
}

// ---- Invariants -----------------------------------------------------------

TEST(ParserTest, ParsesEqualityInvariant) {
  Result<Invariant> inv = Parser::ParseInvariant(
      "Dist > 142 => spatial:range('map1', X, Y, Dist) = "
      "spatial:range('points', X, Y, 142).");
  ASSERT_TRUE(inv.ok()) << inv.status();
  EXPECT_EQ(inv->relation, InvariantRelation::kEqual);
  ASSERT_EQ(inv->conditions.size(), 1u);
  EXPECT_EQ(inv->conditions[0].op, RelOp::kGt);
  EXPECT_EQ(inv->lhs.domain, "spatial");
  EXPECT_EQ(inv->rhs.args[3].constant, Value::Int(142));
}

TEST(ParserTest, ParsesContainmentInvariant) {
  Result<Invariant> inv = Parser::ParseInvariant(
      "V1 <= V2 => relation:select_lt(Table, Attr, V2) >= "
      "relation:select_lt(Table, Attr, V1).");
  ASSERT_TRUE(inv.ok()) << inv.status();
  EXPECT_EQ(inv->relation, InvariantRelation::kSuperset);
}

TEST(ParserTest, InvariantWithoutConditions) {
  Result<Invariant> inv =
      Parser::ParseInvariant("=> d:f(X) = d:g(X).");
  ASSERT_TRUE(inv.ok()) << inv.status();
  EXPECT_TRUE(inv->conditions.empty());
}

TEST(ParserTest, InvariantConditionsMustBeComparisons) {
  EXPECT_FALSE(
      Parser::ParseInvariant("p(X) => d:f(X) = d:g(X).").ok());
}

TEST(ParserTest, InvariantFreeConditionVariableRejected) {
  Status s = Parser::ParseInvariant("Z > 1 => d:f(X) = d:g(X).").status();
  ASSERT_TRUE(s.IsParseError());
  EXPECT_NE(s.message().find("'Z'"), std::string::npos);
}

TEST(ParserTest, ParsesMultipleInvariants) {
  Result<std::vector<Invariant>> invs = Parser::ParseInvariants(
      "=> d:f(X) = d:g(X).\n"
      "A <= B => d:h(A) <= d:h(B).\n");
  ASSERT_TRUE(invs.ok()) << invs.status();
  EXPECT_EQ(invs->size(), 2u);
  EXPECT_EQ((*invs)[1].relation, InvariantRelation::kSubset);
}

TEST(ParserTest, InvariantRoundTrip) {
  const std::string text =
      "F2 <= F1 & L1 <= L2 => video:frames_to_objects(V, F2, L2) >= "
      "video:frames_to_objects(V, F1, L1).";
  Result<Invariant> inv1 = Parser::ParseInvariant(text);
  ASSERT_TRUE(inv1.ok());
  Result<Invariant> inv2 = Parser::ParseInvariant(inv1->ToString());
  ASSERT_TRUE(inv2.ok()) << inv2.status();
  EXPECT_EQ(inv1->ToString(), inv2->ToString());
}

// ---- Call patterns -----------------------------------------------------------

TEST(ParserTest, ParsesCallPatternWithBound) {
  Result<DomainCallSpec> spec = Parser::ParseCallPattern("d:f(5, $b)");
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->domain, "d");
  EXPECT_TRUE(spec->args[0].is_constant());
  EXPECT_TRUE(spec->args[1].is_bound_pattern());
  EXPECT_FALSE(spec->is_ground());
}

TEST(ParserTest, CallPatternRejectsVariables) {
  EXPECT_FALSE(Parser::ParseCallPattern("d:f(X)").ok());
}

TEST(ParserTest, CallPatternOptionalDot) {
  EXPECT_TRUE(Parser::ParseCallPattern("d:f(1).").ok());
  EXPECT_TRUE(Parser::ParseCallPattern("d:f(1)").ok());
}

// ---- Atom helpers -----------------------------------------------------------

TEST(AstTest, AtomVariablesDeduplicates) {
  Rule rule = MustParseRule("p(X, Y) :- in(X, d:f(Y, X)).");
  std::vector<std::string> vars = rule.body[0].Variables();
  EXPECT_EQ(vars, (std::vector<std::string>{"X", "Y"}));
}

TEST(AstTest, FlipRelOp) {
  EXPECT_EQ(FlipRelOp(RelOp::kLt), RelOp::kGt);
  EXPECT_EQ(FlipRelOp(RelOp::kLe), RelOp::kGe);
  EXPECT_EQ(FlipRelOp(RelOp::kEq), RelOp::kEq);
  EXPECT_EQ(FlipRelOp(RelOp::kNeq), RelOp::kNeq);
}

TEST(AstTest, EvalRelOpOnValues) {
  EXPECT_TRUE(EvalRelOp(RelOp::kLe, Value::Int(3), Value::Double(3.0)));
  EXPECT_TRUE(EvalRelOp(RelOp::kLt, Value::Str("a"), Value::Str("b")));
  EXPECT_FALSE(EvalRelOp(RelOp::kGt, Value::Int(1), Value::Int(2)));
  EXPECT_TRUE(EvalRelOp(RelOp::kNeq, Value::Int(1), Value::Str("1")));
}

}  // namespace
}  // namespace hermes::lang

// Property sweep: every construct the printer can emit, the parser
// re-reads to an identical AST (fixed point after one round trip).

#include <gtest/gtest.h>

#include "lang/parser.h"

namespace hermes::lang {
namespace {

class RuleRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(RuleRoundTrip, ParsePrintParseIsIdentity) {
  Result<Rule> first = Parser::ParseRule(GetParam());
  ASSERT_TRUE(first.ok()) << GetParam() << ": " << first.status();
  std::string printed = first->ToString();
  Result<Rule> second = Parser::ParseRule(printed);
  ASSERT_TRUE(second.ok()) << printed << ": " << second.status();
  EXPECT_EQ(printed, second->ToString());
}

INSTANTIATE_TEST_SUITE_P(
    Constructs, RuleRoundTrip,
    ::testing::Values(
        // Facts and constants of every type.
        "p(1, -2, 2.5, 'str', sym, true, false, null).",
        "p([1, [2, 'x'], []]).",
        // Domain calls: zero args, nested structure in answers.
        "p(X) :- in(X, d:f()).",
        "p(X, Y) :- in(X, d1:p_ff()) & in(Y, d2:q_bf(X)).",
        // Attribute paths, positional and named, chained.
        "q(A) :- in(T, d:rows()) & =(A, T.name).",
        "q(A) :- in(T, d:rows()) & =(A, $ans.1.loc).",
        "q(A) :- in(T, d:rows()) & T.qty.1 >= 7.",
        // All comparison operators, both orientations.
        "r(X) :- in(X, d:f()) & X = 1 & X != 2 & X < 3 & X <= 4 & X > 0 & "
        "X >= -1.",
        // Membership checks (bound output term).
        "m(X) :- in(X, d:f()) & in(X, e:g()).",
        "m() :- in('fixed', d:f()).",
        // A bare `in` is a predicate, not a domain call.
        "p :- in.",
        // The paper's Section 2 rule.
        "routetosupplies(From, Sup, To, R) :- "
        "in(T, ingres:select_eq('inventory', item, Sup)) & =(T.loc, To) & "
        "in(R, terraindb:findrte(From, To))."));

class InvariantRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(InvariantRoundTrip, ParsePrintParseIsIdentity) {
  Result<Invariant> first = Parser::ParseInvariant(GetParam());
  ASSERT_TRUE(first.ok()) << GetParam() << ": " << first.status();
  std::string printed = first->ToString();
  Result<Invariant> second = Parser::ParseInvariant(printed);
  ASSERT_TRUE(second.ok()) << printed << ": " << second.status();
  EXPECT_EQ(printed, second->ToString());
}

INSTANTIATE_TEST_SUITE_P(
    Constructs, InvariantRoundTrip,
    ::testing::Values(
        "=> d:f(X) = d:g(X).",
        "X > 142 => spatial:range('map1', X, Y, D) = "
        "spatial:range('points', X, Y, 142).",
        "V1 <= V2 => r:select_lt(T, A, V2) >= r:select_lt(T, A, V1).",
        "A != B & A < 10 => d:f(A, B) <= d:g(B, A).",
        "F2 <= F1 & L1 <= L2 => v:fto(V, F2, L2) >= v:fto(V, F1, L1)."));

class QueryRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(QueryRoundTrip, ParsePrintParseIsIdentity) {
  Result<Query> first = Parser::ParseQuery(GetParam());
  ASSERT_TRUE(first.ok()) << GetParam() << ": " << first.status();
  std::string printed = first->ToString();
  Result<Query> second = Parser::ParseQuery(printed);
  ASSERT_TRUE(second.ok()) << printed << ": " << second.status();
  EXPECT_EQ(printed, second->ToString());
}

INSTANTIATE_TEST_SUITE_P(
    Constructs, QueryRoundTrip,
    ::testing::Values("?- m(a, C).",
                      "?- in(X, d:f(1, 'two', 3.5)) & X.size > 10.",
                      "?- q(A) & r(A, B) & B != A.",
                      "?- in([1, 2], d:f()).",
                      // A bare `in` is a predicate, not a domain call.
                      "?- in.",
                      // Constants that lex as identifiers on the left.
                      "?- =(true, X).",
                      "?- =(false, X).",
                      "?- =(null, X)."));

TEST(RoundTripTest, CallPatternsPreserveBoundMarkers) {
  for (const char* text :
       {"d:f(5, $b)", "d:f($b, $b, $b)", "video:size('rope')",
        "d:f(1.5, 'x', $b, [1, 2])"}) {
    Result<DomainCallSpec> first = Parser::ParseCallPattern(text);
    ASSERT_TRUE(first.ok()) << text;
    Result<DomainCallSpec> second =
        Parser::ParseCallPattern(first->ToString());
    ASSERT_TRUE(second.ok()) << first->ToString();
    EXPECT_EQ(first->ToString(), second->ToString());
  }
}

TEST(RoundTripTest, StringEscapesSurvive) {
  Result<Rule> rule = Parser::ParseRule(R"(p('it\'s', 'a\\b').)");
  ASSERT_TRUE(rule.ok()) << rule.status();
  Result<Rule> again = Parser::ParseRule(rule->ToString());
  ASSERT_TRUE(again.ok()) << rule->ToString();
  EXPECT_EQ(again->head.args[0].constant, Value::Str("it's"));
  EXPECT_EQ(again->head.args[1].constant, Value::Str("a\\b"));
}

}  // namespace
}  // namespace hermes::lang

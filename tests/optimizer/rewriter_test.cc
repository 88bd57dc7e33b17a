#include "optimizer/rewriter.h"

#include <gtest/gtest.h>

#include "lang/parser.h"

namespace hermes::optimizer {
namespace {

lang::Program MustProgram(const std::string& text) {
  Result<lang::Program> p = lang::Parser::ParseProgram(text);
  EXPECT_TRUE(p.ok()) << p.status();
  return p.ok() ? *p : lang::Program{};
}

lang::Query MustQuery(const std::string& text) {
  Result<lang::Query> q = lang::Parser::ParseQuery(text);
  EXPECT_TRUE(q.ok()) << q.status();
  return q.ok() ? *q : lang::Query{};
}

std::string BodyString(const std::vector<lang::Atom>& body) {
  std::string out;
  for (size_t i = 0; i < body.size(); ++i) {
    if (i > 0) out += " & ";
    out += body[i].ToString();
  }
  return out;
}

TEST(ValidOrderingsTest, DomainCallArgsMustBeBound) {
  // in(C, d:f(B)) cannot run before B is produced.
  lang::Rule rule = *lang::Parser::ParseRule(
      "m(C) :- in(B, d1:p()) & in(C, d2:q(B)).");
  std::vector<std::vector<lang::Atom>> orderings =
      RuleRewriter::ValidOrderings(rule.body, {}, 10);
  ASSERT_EQ(orderings.size(), 1u);
  EXPECT_EQ(BodyString(orderings[0]),
            "in(B, d1:p()) & in(C, d2:q(B))");
}

TEST(ValidOrderingsTest, IndependentCallsPermute) {
  lang::Rule rule = *lang::Parser::ParseRule(
      "m(A, B) :- in(A, d1:p()) & in(B, d2:q()).");
  std::vector<std::vector<lang::Atom>> orderings =
      RuleRewriter::ValidOrderings(rule.body, {}, 10);
  EXPECT_EQ(orderings.size(), 2u);
  // The original order is listed first.
  EXPECT_EQ(BodyString(orderings[0]), "in(A, d1:p()) & in(B, d2:q())");
}

TEST(ValidOrderingsTest, InitiallyBoundVarsEnableMoreOrders) {
  lang::Rule rule = *lang::Parser::ParseRule(
      "m(B, C) :- in(B, d1:p()) & in(C, d2:q(B)).");
  // With B initially bound (head adornment bb), d2:q(B) may run first.
  std::vector<std::vector<lang::Atom>> orderings =
      RuleRewriter::ValidOrderings(rule.body, {"B"}, 10);
  EXPECT_EQ(orderings.size(), 2u);
}

TEST(ValidOrderingsTest, ComparisonNeedsBoundOperands) {
  lang::Rule rule = *lang::Parser::ParseRule(
      "m(X) :- in(X, d:f()) & X > 5.");
  std::vector<std::vector<lang::Atom>> orderings =
      RuleRewriter::ValidOrderings(rule.body, {}, 10);
  ASSERT_EQ(orderings.size(), 1u);  // the comparison cannot lead
}

TEST(ValidOrderingsTest, EqualityAssignmentBindsFreeSide) {
  lang::Rule rule = *lang::Parser::ParseRule(
      "m(A) :- in(T, d:f()) & =(A, T.name) & in(X, e:g(A)).");
  std::vector<std::vector<lang::Atom>> orderings =
      RuleRewriter::ValidOrderings(rule.body, {}, 10);
  ASSERT_GE(orderings.size(), 1u);
  EXPECT_EQ(BodyString(orderings[0]),
            "in(T, d:f()) & A = T.name & in(X, e:g(A))");
}

TEST(ValidOrderingsTest, CapIsHonored) {
  lang::Rule rule = *lang::Parser::ParseRule(
      "m(A, B, C, D) :- in(A, d:f()) & in(B, d:f()) & in(C, d:f()) & "
      "in(D, d:f()).");
  std::vector<std::vector<lang::Atom>> orderings =
      RuleRewriter::ValidOrderings(rule.body, {}, 5);
  EXPECT_EQ(orderings.size(), 5u);  // 4! = 24 valid, capped at 5
}

TEST(ValidOrderingsTest, AtomsThatPrintTheSameAreInterchangeable) {
  lang::Rule rule = *lang::Parser::ParseRule(
      "m(X) :- in(X, d:f()) & X > 1 & X > 1.");
  std::vector<std::vector<lang::Atom>> orderings =
      RuleRewriter::ValidOrderings(rule.body, {}, 10);
  EXPECT_EQ(orderings.size(), 1u);
}

TEST(ValidOrderingsTest, EqualConstantsThatPrintDifferentlyStayDistinct) {
  // Value::operator== calls 1 and 1.0 equal, but the two comparisons print
  // differently, so swapping them is a different ordering.
  lang::Rule rule = *lang::Parser::ParseRule(
      "m(X) :- in(X, d:f()) & X > 1 & X > 1.0.");
  ASSERT_TRUE(rule.body[1].rhs.constant == rule.body[2].rhs.constant);
  std::vector<std::vector<lang::Atom>> orderings =
      RuleRewriter::ValidOrderings(rule.body, {}, 10);
  ASSERT_EQ(orderings.size(), 2u);
  EXPECT_EQ(BodyString(orderings[0]), "in(X, d:f()) & X > 1 & X > 1.0");
  EXPECT_EQ(BodyString(orderings[1]), "in(X, d:f()) & X > 1.0 & X > 1");
}

TEST(ValidOrderingsTest, BodiesWiderThanOneMaskWordStillEnumerate) {
  // 70 calls, each binding its own variable and the last 69 consuming the
  // previous call's: 70 variables and 70 atoms, past 64 of either.
  std::string text = "m(V0) :- in(V0, d:f())";
  for (int i = 1; i < 70; ++i) {
    text += " & in(V" + std::to_string(i) + ", d:g(V" +
            std::to_string(i - 1) + "))";
  }
  // Two independent tail calls give the enumeration a choice to make.
  text += " & in(A, d:f()) & in(B, d:f()).";
  lang::Rule rule = *lang::Parser::ParseRule(text);
  ASSERT_EQ(rule.body.size(), 72u);
  std::vector<std::vector<lang::Atom>> orderings =
      RuleRewriter::ValidOrderings(rule.body, {}, 3);
  ASSERT_EQ(orderings.size(), 3u);
  EXPECT_EQ(BodyString(orderings[0]), BodyString(rule.body));
  for (const std::vector<lang::Atom>& ordering : orderings) {
    EXPECT_EQ(ordering.size(), rule.body.size());
  }
  // A call whose argument only the 70th variable binds never runs before
  // that variable's call.
  lang::Rule late = *lang::Parser::ParseRule(text.substr(
      0, text.size() - 1) + " & in(Z, d:g(V69)).");
  std::vector<std::vector<lang::Atom>> late_orderings =
      RuleRewriter::ValidOrderings(late.body, {}, 24);
  EXPECT_EQ(late_orderings.size(), 24u);
  for (const std::vector<lang::Atom>& ordering : late_orderings) {
    size_t z = 0, v69 = 0;
    for (size_t p = 0; p < ordering.size(); ++p) {
      if (!ordering[p].is_domain_call()) continue;
      if (ordering[p].output.var_name == "Z") z = p;
      if (ordering[p].output.var_name == "V69") v69 = p;
    }
    EXPECT_LT(v69, z);
  }
}

TEST(RedirectToCimTest, RewritesOnlyListedDomains) {
  lang::Rule rule = *lang::Parser::ParseRule(
      "m(A, B) :- in(A, video:f()) & in(B, relation:g(A)).");
  size_t n = RuleRewriter::RedirectToCim(&rule.body, {"video"});
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(rule.body[0].call.domain, "cim_video");
  EXPECT_EQ(rule.body[1].call.domain, "relation");
}

TEST(PushSelectionsTest, EqualityPushesIntoEqualCall) {
  // The paper's query4 → query3 rewriting: relation:all + =(P.role, c)
  // becomes relation:equal('cast', 'role', c).
  lang::Rule rule = *lang::Parser::ParseRule(
      "q(A) :- in(P, relation:all('cast')) & =(P.role, 'rupert') & "
      "=(P.name, A).");
  size_t pushed = RuleRewriter::PushSelections(&rule.body, nullptr);
  EXPECT_EQ(pushed, 1u);
  ASSERT_EQ(rule.body.size(), 2u);
  EXPECT_EQ(rule.body[0].call.function, "equal");
  ASSERT_EQ(rule.body[0].call.args.size(), 3u);
  EXPECT_EQ(rule.body[0].call.args[1].constant, Value::Str("role"));
  EXPECT_EQ(rule.body[0].call.args[2].constant, Value::Str("rupert"));
}

TEST(PushSelectionsTest, RangePushesIntoSelectFamily) {
  lang::Rule rule = *lang::Parser::ParseRule(
      "q(P) :- in(P, relation:all('inv')) & P.qty < 10.");
  size_t pushed = RuleRewriter::PushSelections(&rule.body, nullptr);
  EXPECT_EQ(pushed, 1u);
  EXPECT_EQ(rule.body[0].call.function, "select_lt");
}

TEST(PushSelectionsTest, FlippedComparisonNormalizes) {
  lang::Rule rule = *lang::Parser::ParseRule(
      "q(P) :- in(P, relation:all('inv')) & 10 < P.qty.");
  size_t pushed = RuleRewriter::PushSelections(&rule.body, nullptr);
  EXPECT_EQ(pushed, 1u);
  EXPECT_EQ(rule.body[0].call.function, "select_gt");
}

TEST(PushSelectionsTest, RespectsDomainFunctionAvailability) {
  lang::Rule rule = *lang::Parser::ParseRule(
      "q(P) :- in(P, video:all('x')) & =(P.role, 'y').");
  auto has_fn = [](const std::string& domain, const std::string&, size_t) {
    return domain != "video";  // video exports no select family
  };
  EXPECT_EQ(RuleRewriter::PushSelections(&rule.body, has_fn), 0u);
  EXPECT_EQ(rule.body.size(), 2u);
}

TEST(PushSelectionsTest, MultipleSelectionsCascade) {
  lang::Rule rule = *lang::Parser::ParseRule(
      "q(P, Q) :- in(P, r:all('a')) & =(P.x, 1) & in(Q, r:all('b')) & "
      "=(Q.y, 2).");
  size_t pushed = RuleRewriter::PushSelections(&rule.body, nullptr);
  EXPECT_EQ(pushed, 2u);
  EXPECT_EQ(rule.body.size(), 2u);
}

TEST(RewriteTest, PaperSectionFivePlansP8AndP12) {
  // The (M1)/(Q7) example: with the query binding A and asking for C, the
  // rewriter must produce both plan P8 (d1 first) and P12 (d2 first).
  lang::Program program = MustProgram(R"(
    m(A, C) :- p(A, B) & q(B, C).
    p(A, B) :- in(B, d1:p_bf(A)).
    q(B, C) :- in(C, d2:q_bf(B)).
  )");
  lang::Query query = MustQuery("?- m('a', C).");
  RuleRewriter::Options options;
  Result<std::vector<CandidatePlan>> plans =
      RuleRewriter::Rewrite(program, query, options);
  ASSERT_TRUE(plans.ok()) << plans.status();
  // Both orderings of m's body appear in some plan.
  bool p_first = false, q_first = false;
  for (const CandidatePlan& plan : *plans) {
    for (const lang::Rule& rule : plan.program.rules) {
      if (rule.head.predicate != "m") continue;
      if (rule.body[0].predicate == "p") p_first = true;
      if (rule.body[0].predicate == "q") q_first = true;
    }
  }
  EXPECT_TRUE(p_first);
  EXPECT_TRUE(q_first);
}

TEST(RewriteTest, CimVariantsGenerated) {
  lang::Program program = MustProgram("m(A) :- in(A, video:f(1)).");
  lang::Query query = MustQuery("?- m(A).");
  RuleRewriter::Options options;
  options.cim_domains = {"video"};
  Result<std::vector<CandidatePlan>> plans =
      RuleRewriter::Rewrite(program, query, options);
  ASSERT_TRUE(plans.ok());
  bool direct = false, cim = false;
  for (const CandidatePlan& plan : *plans) {
    for (const lang::Rule& rule : plan.program.rules) {
      for (const lang::Atom& atom : rule.body) {
        if (!atom.is_domain_call()) continue;
        if (atom.call.domain == "video") direct = true;
        if (atom.call.domain == "cim_video") cim = true;
      }
    }
  }
  EXPECT_TRUE(direct);
  EXPECT_TRUE(cim);

  // A redirection that redirects nothing would repeat its base: it makes a
  // variant only when the bases are left out.
  lang::Program uncached = MustProgram("m(A) :- in(A, d:f(1)).");
  for (bool cim_only : {false, true}) {
    options.cim_only = cim_only;
    Result<std::vector<CandidatePlan>> one =
        RuleRewriter::Rewrite(uncached, query, options);
    ASSERT_TRUE(one.ok()) << one.status();
    ASSERT_EQ(one->size(), 1u);
    EXPECT_EQ((*one)[0].description, "direct #0");
  }
}

TEST(RewriteTest, CimOnlySuppressesDirectPlans) {
  lang::Program program = MustProgram("m(A) :- in(A, video:f(1)).");
  lang::Query query = MustQuery("?- m(A).");
  RuleRewriter::Options options;
  options.cim_domains = {"video"};
  options.cim_only = true;
  Result<std::vector<CandidatePlan>> plans =
      RuleRewriter::Rewrite(program, query, options);
  ASSERT_TRUE(plans.ok());
  for (const CandidatePlan& plan : *plans) {
    for (const lang::Rule& rule : plan.program.rules) {
      for (const lang::Atom& atom : rule.body) {
        if (atom.is_domain_call()) {
          EXPECT_EQ(atom.call.domain, "cim_video");
        }
      }
    }
  }
}

TEST(RewriteTest, InfeasibleQueryGoalsRejected) {
  // A query whose own goals can never be ordered executably is rejected
  // outright (rule-level infeasibility is left to the cost estimator,
  // which knows the actual adornments).
  lang::Program program = MustProgram("m(A) :- in(A, d:f(1)).");
  lang::Query query = MustQuery("?- in(A, d:f(X)).");
  EXPECT_FALSE(
      RuleRewriter::Rewrite(program, query, RuleRewriter::Options{}).ok());
}

TEST(RewriteTest, UnreachableRulesNeitherAppearInNorDuplicateCandidates) {
  // The push-down applies only in u, which ?- m(A) never reaches: it must
  // not produce a second candidate identical on m's one rule.
  lang::Program program = MustProgram(R"(
    m(A) :- in(A, d:f()).
    u(P) :- in(P, r:all('t')) & =(P.x, 1).
  )");
  lang::Query query = MustQuery("?- m(A).");
  Result<std::vector<CandidatePlan>> plans =
      RuleRewriter::Rewrite(program, query, RuleRewriter::Options{});
  ASSERT_TRUE(plans.ok()) << plans.status();
  ASSERT_EQ(plans->size(), 1u);
  const CandidatePlan& plan = (*plans)[0];
  EXPECT_EQ(plan.description, "direct #0");
  EXPECT_EQ(plan.program.ToString(), "m(A) :- in(A, d:f()).\n");
}

TEST(RewriteTest, CandidatesHoldTheReachableRulesInProgramOrder) {
  lang::Program program = MustProgram(R"(
    q(X) :- in(X, d:g()).
    u(X) :- in(X, d:h()).
    m(A, X) :- p(A) & q(X).
    p(A) :- in(A, d:f()).
  )");
  lang::Query query = MustQuery("?- m(A, X).");
  Result<std::vector<CandidatePlan>> plans =
      RuleRewriter::Rewrite(program, query, RuleRewriter::Options{});
  ASSERT_TRUE(plans.ok()) << plans.status();
  ASSERT_EQ(plans->size(), 2u);  // m's body in either order
  for (const CandidatePlan& plan : *plans) {
    ASSERT_EQ(plan.program.rules.size(), 3u);
    EXPECT_EQ(plan.program.rules[0].head.predicate, "q");
    EXPECT_EQ(plan.program.rules[1].head.predicate, "m");
    EXPECT_EQ(plan.program.rules[2].head.predicate, "p");
  }
  EXPECT_EQ(RuleRewriter::ReachableRules(program, query.goals),
            (std::vector<size_t>{0, 2, 3}));
}

TEST(RewriteTest, PlanCapRespected) {
  lang::Program program = MustProgram(
      "m(A, B, C) :- in(A, d:f()) & in(B, d:f()) & in(C, d:f()).");
  lang::Query query = MustQuery("?- m(A, B, C).");
  RuleRewriter::Options options;
  options.max_plans = 4;
  Result<std::vector<CandidatePlan>> plans =
      RuleRewriter::Rewrite(program, query, options);
  ASSERT_TRUE(plans.ok());
  EXPECT_LE(plans->size(), 4u);
}

}  // namespace
}  // namespace hermes::optimizer

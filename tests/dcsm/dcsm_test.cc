#include "dcsm/dcsm.h"

#include <gtest/gtest.h>

#include "lang/parser.h"
#include "relational/relational_domain.h"
#include "testbed/scenario.h"

namespace hermes::dcsm {
namespace {

lang::DomainCallSpec Pattern(const std::string& text) {
  Result<lang::DomainCallSpec> spec = lang::Parser::ParseCallPattern(text);
  EXPECT_TRUE(spec.ok()) << spec.status();
  return *spec;
}

/// Populates the Example 6.3 situation: a three-argument call d:f(A, B, C).
void LoadThreeArg(Dcsm* dcsm) {
  auto rec = [dcsm](int a, int b, int c, double ta) {
    dcsm->RecordExecution(
        DomainCall{"d", "f", {Value::Int(a), Value::Int(b), Value::Int(c)}},
        CostVector(ta / 3, ta, 1));
  };
  rec(1, 10, 2, 6.0);
  rec(1, 20, 2, 8.0);
  rec(1, 10, 3, 12.0);
  rec(2, 10, 2, 20.0);
}

TEST(DcsmTest, ExactRawEstimate) {
  Dcsm dcsm;
  LoadThreeArg(&dcsm);
  Result<CostEstimate> est = dcsm.Cost(Pattern("d:f(1, 10, 2)"));
  ASSERT_TRUE(est.ok()) << est.status();
  EXPECT_DOUBLE_EQ(est->cost.t_all_ms, 6.0);
  EXPECT_EQ(est->source.kind, EstimateSource::Kind::kRaw);
}

TEST(DcsmTest, RelaxationDropsConstantsUntilMatch) {
  // Example 6.3's flavor: d:f(A, $b, 2) with no exact match for A=9 must
  // relax to $b at position 0 and average the C=2 records.
  Dcsm dcsm;
  LoadThreeArg(&dcsm);
  Result<CostEstimate> est = dcsm.Cost(Pattern("d:f(9, $b, 2)"));
  ASSERT_TRUE(est.ok());
  // Records with C=2: 6.0, 8.0, 20.0 → 11.333...
  EXPECT_NEAR(est->cost.t_all_ms, 34.0 / 3.0, 1e-9);
}

TEST(DcsmTest, FullyRelaxedFallsBackToGlobalAverage) {
  Dcsm dcsm;
  LoadThreeArg(&dcsm);
  Result<CostEstimate> est = dcsm.Cost(Pattern("d:f(9, 99, 7)"));
  ASSERT_TRUE(est.ok());
  EXPECT_DOUBLE_EQ(est->cost.t_all_ms, (6 + 8 + 12 + 20) / 4.0);
}

TEST(DcsmTest, DefaultWhenNoStatistics) {
  Dcsm dcsm;
  Result<CostEstimate> est = dcsm.Cost(Pattern("ghost:none($b)"));
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->source.kind, EstimateSource::Kind::kDefault);
  DcsmOptions strict;
  strict.allow_default = false;
  Dcsm picky(strict);
  EXPECT_TRUE(picky.Cost(Pattern("ghost:none($b)")).status().IsNotFound());
}

TEST(DcsmTest, SummaryPreferredOverRawAndCheaper) {
  Dcsm dcsm;
  LoadThreeArg(&dcsm);
  ASSERT_TRUE(dcsm.BuildLosslessSummaries().ok());
  Result<CostEstimate> est = dcsm.Cost(Pattern("d:f(1, 10, 2)"));
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->source.kind, EstimateSource::Kind::kSummary);
  EXPECT_DOUBLE_EQ(est->cost.t_all_ms, 6.0);

  // The summary path must simulate less lookup time than raw aggregation.
  Dcsm raw_only;
  LoadThreeArg(&raw_only);
  Result<CostEstimate> raw = raw_only.Cost(Pattern("d:f(1, 10, 2)"));
  ASSERT_TRUE(raw.ok());
  EXPECT_LT(est->lookup_ms, raw->lookup_ms);
}

TEST(DcsmTest, LossySummariesLoseConstantResolution) {
  Dcsm dcsm;
  dcsm.options().use_raw_database = false;
  LoadThreeArg(&dcsm);
  ASSERT_TRUE(dcsm.BuildFullyLossySummaries().ok());
  // Constants cannot be honored: everything falls to the global average.
  Result<CostEstimate> est = dcsm.Cost(Pattern("d:f(1, 10, 2)"));
  ASSERT_TRUE(est.ok());
  EXPECT_DOUBLE_EQ(est->cost.t_all_ms, 11.5);
  EXPECT_EQ(est->source.kind, EstimateSource::Kind::kSummary);
}

TEST(DcsmTest, LosslessSummaryKeepsConstantResolution) {
  Dcsm dcsm;
  dcsm.options().use_raw_database = false;
  LoadThreeArg(&dcsm);
  ASSERT_TRUE(dcsm.BuildLosslessSummaries().ok());
  Result<CostEstimate> est = dcsm.Cost(Pattern("d:f(2, 10, 2)"));
  ASSERT_TRUE(est.ok());
  EXPECT_DOUBLE_EQ(est->cost.t_all_ms, 20.0);
}

TEST(DcsmTest, InstantiableArgsFromProgram) {
  // Example 6.2: positions bound only to body-local variables can never be
  // constants at rewrite time and may be dropped.
  Result<lang::Program> program = lang::Parser::ParseProgram(R"(
    m(A, C) :- p(A, B) & q(B, C).
    p(A, B) :- in(B, d1:p_bf(A)).
    q(B, C) :- in(C, d2:q_bf(B)).
  )");
  ASSERT_TRUE(program.ok()) << program.status();
  // d1:p_bf's argument is the head variable A of rule p: instantiable.
  EXPECT_EQ(Dcsm::InstantiableArgs(*program, CallGroupKey{"d1", "p_bf", 1}),
            (std::vector<size_t>{0}));
  // d2:q_bf's argument is B — head variable of q, so instantiable too.
  EXPECT_EQ(Dcsm::InstantiableArgs(*program, CallGroupKey{"d2", "q_bf", 1}),
            (std::vector<size_t>{0}));

  // But if the predicates are "hidden" behind m (the paper's assumption),
  // B never surfaces: model that with a rule whose body variable stays
  // local.
  Result<lang::Program> hidden = lang::Parser::ParseProgram(R"(
    m(A, C) :- in(B, d1:p_bf(A)) & in(C, d2:q_bf(B)).
  )");
  ASSERT_TRUE(hidden.ok());
  EXPECT_EQ(Dcsm::InstantiableArgs(*hidden, CallGroupKey{"d2", "q_bf", 1}),
            (std::vector<size_t>{}));
  EXPECT_EQ(Dcsm::InstantiableArgs(*hidden, CallGroupKey{"d1", "p_bf", 1}),
            (std::vector<size_t>{0}));
}

TEST(DcsmTest, BuildSummariesForProgramDropsHiddenDims) {
  Result<lang::Program> hidden = lang::Parser::ParseProgram(
      "m(A, C) :- in(B, d1:p_bf(A)) & in(C, d2:q_bf(B)).");
  ASSERT_TRUE(hidden.ok());
  Dcsm dcsm;
  dcsm.RecordExecution(DomainCall{"d2", "q_bf", {Value::Str("b1")}},
                       CostVector(1, 4, 2));
  dcsm.RecordExecution(DomainCall{"d2", "q_bf", {Value::Str("b2")}},
                       CostVector(1, 8, 4));
  ASSERT_TRUE(dcsm.BuildSummariesForProgram(*hidden).ok());
  const std::vector<SummaryTable>* tables =
      dcsm.SummariesFor(CallGroupKey{"d2", "q_bf", 1});
  ASSERT_NE(tables, nullptr);
  ASSERT_EQ(tables->size(), 1u);
  EXPECT_TRUE((*tables)[0].dims().empty());
  EXPECT_EQ((*tables)[0].num_rows(), 1u);
}

TEST(DcsmTest, NativeModelTakesPrecedence) {
  auto db = testbed::MakeCastDatabase();
  auto domain = std::make_shared<relational::RelationalDomain>(
      "ingres", db, relational::RelationalCostParams{},
      /*provide_cost_model=*/true);
  Dcsm dcsm;
  ASSERT_TRUE(dcsm.RegisterNativeModel("relation", domain).ok());
  // Even with contradictory cached statistics, the native model answers.
  dcsm.RecordExecution(DomainCall{"relation", "all", {Value::Str("cast")}},
                       CostVector(1000, 99999, 42));
  Result<CostEstimate> est = dcsm.Cost(Pattern("relation:all('cast')"));
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->source.ToString("relation"), "native:relation");
  EXPECT_DOUBLE_EQ(est->cost.cardinality, 9.0);
}

TEST(DcsmTest, NativeModelRegistrationRequiresCostModel) {
  auto db = testbed::MakeCastDatabase();
  auto plain = std::make_shared<relational::RelationalDomain>("ingres", db);
  Dcsm dcsm;
  EXPECT_FALSE(dcsm.RegisterNativeModel("relation", plain).ok());
}

TEST(DcsmTest, SummaryAccountingReportsFootprint) {
  Dcsm dcsm;
  LoadThreeArg(&dcsm);
  EXPECT_EQ(dcsm.TotalSummaryRows(), 0u);
  ASSERT_TRUE(dcsm.BuildLosslessSummaries().ok());
  EXPECT_EQ(dcsm.TotalSummaryRows(), 4u);  // 4 distinct argument triples
  EXPECT_GT(dcsm.TotalSummaryBytes(), 0u);
  ASSERT_TRUE(dcsm.BuildFullyLossySummaries().ok());
  EXPECT_EQ(dcsm.TotalSummaryRows(), 5u);  // + the one-row lossy table
  dcsm.ClearSummaries();
  EXPECT_EQ(dcsm.TotalSummaryRows(), 0u);
}

TEST(DcsmTest, VariablePatternRejected) {
  Dcsm dcsm;
  lang::DomainCallSpec bad;
  bad.domain = "d";
  bad.function = "f";
  bad.args.push_back(lang::Term::Var("X"));
  EXPECT_EQ(dcsm.Cost(bad).status().code(), StatusCode::kInvalidArgument);
}

TEST(DcsmTest, MostSpecificSummaryWins) {
  // With both a lossless and a fully-lossy table, a constant pattern uses
  // the lossless one.
  Dcsm dcsm;
  dcsm.options().use_raw_database = false;
  LoadThreeArg(&dcsm);
  ASSERT_TRUE(dcsm.BuildLosslessSummaries().ok());
  ASSERT_TRUE(dcsm.BuildFullyLossySummaries().ok());
  Result<CostEstimate> est = dcsm.Cost(Pattern("d:f(2, 10, 2)"));
  ASSERT_TRUE(est.ok());
  EXPECT_DOUBLE_EQ(est->cost.t_all_ms, 20.0);  // not the 11.5 global mean
}

}  // namespace
}  // namespace hermes::dcsm

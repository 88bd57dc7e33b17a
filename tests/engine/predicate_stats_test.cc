// Tests for the predicate first-answer statistics extension — the paper's
// Section 8 remedy: "cache, especially the time for the first answer of
// predicates in the same way we cache statistics for domain calls."

#include <gtest/gtest.h>

#include <cmath>

#include "engine/executor.h"
#include "engine/mediator.h"
#include "lang/parser.h"
#include "optimizer/estimator.h"
#include "testbed/scenario.h"

namespace hermes {
namespace {

/// A workload with heavy backtracking: objects from a frame range joined
/// against the *name* column of the cast relation. Role strings never
/// equal actor names, so every outer tuple fails downstream and the first
/// (non-)answer takes as long as the whole evaluation — the case where
/// the compositional Tf formula under-predicts massively.
constexpr const char* kBacktrackRule =
    "mismatched(F, L, Y) :- "
    "in(X, video:frames_to_objects('rope', F, L)) & "
    "in(T, relation:equal('cast', 'name', X)) & =(Y, T.role).";

struct Fixture {
  Mediator med;

  Fixture() {
    testbed::RopeScenarioOptions options;
    options.enable_caching = false;
    EXPECT_TRUE(testbed::SetupRopeScenario(&med, options).ok());
    EXPECT_TRUE(med.LoadProgram(kBacktrackRule).ok());
  }
};

TEST(PredicateStatsTest, ExecutorRecordsIdbStatistics) {
  Fixture fx;
  QueryOptions direct;
  direct.use_optimizer = false;
  direct.use_cim = false;
  ASSERT_TRUE(fx.med.Query("?- mismatched(4, 47, Y).", direct).ok());

  const std::vector<dcsm::CostRecord>* group = fx.med.dcsm().database().GetGroup(
      dcsm::CallGroupKey{"idb", "mismatched", 3});
  ASSERT_NE(group, nullptr);
  ASSERT_EQ(group->size(), 1u);
  const dcsm::CostRecord& record = (*group)[0];
  // Zero answers: Tf collapses to Ta (the full fruitless search).
  EXPECT_DOUBLE_EQ(record.cost.cardinality, 0.0);
  EXPECT_DOUBLE_EQ(record.cost.t_first_ms, record.cost.t_all_ms);
  EXPECT_GT(record.cost.t_all_ms, 1000.0);
  // Bound args recorded as values, the free output as null.
  EXPECT_EQ(record.call.args[0], Value::Int(4));
  EXPECT_TRUE(record.call.args[2].is_null());
}

TEST(PredicateStatsTest, RecordingCanBeDisabled) {
  Fixture fx;
  fx.med.executor_options().record_predicate_statistics = false;
  QueryOptions direct;
  direct.use_optimizer = false;
  direct.use_cim = false;
  ASSERT_TRUE(fx.med.Query("?- mismatched(4, 47, Y).", direct).ok());
  EXPECT_EQ(fx.med.dcsm().database().GetGroup(
                dcsm::CallGroupKey{"idb", "mismatched", 3}),
            nullptr);
}

TEST(PredicateStatsTest, ObservedTfFixesBacktrackingUnderPrediction) {
  Fixture fx;
  QueryOptions direct;
  direct.use_optimizer = false;
  direct.use_cim = false;

  // Observe the workload twice (warms both domain and predicate stats).
  Result<QueryResult> run1 = fx.med.Query("?- mismatched(4, 47, Y).", direct);
  ASSERT_TRUE(run1.ok());
  Result<QueryResult> run2 = fx.med.Query("?- mismatched(4, 47, Y).", direct);
  ASSERT_TRUE(run2.ok());
  double actual_tf = run2->execution.t_first_ms;

  Result<lang::Query> query =
      lang::Parser::ParseQuery("?- mismatched(4, 47, Y).");
  ASSERT_TRUE(query.ok());

  // Formula-only estimate: Tf = sum of per-subgoal first-answer times —
  // blind to the backtracking, so it under-predicts badly.
  optimizer::RuleCostEstimator formula_only(&fx.med.dcsm());
  Result<optimizer::RuleCostEstimator::Estimate> blind =
      formula_only.EstimateBody(fx.med.program(), query->goals);
  ASSERT_TRUE(blind.ok()) << blind.status();
  EXPECT_LT(blind->cost.t_first_ms, actual_tf / 2.0);

  // With predicate-Tf caching the estimate tracks the observation.
  optimizer::EstimatorParams params;
  params.use_predicate_first_answer_stats = true;
  optimizer::RuleCostEstimator informed(&fx.med.dcsm(), params);
  Result<optimizer::RuleCostEstimator::Estimate> learned =
      informed.EstimateBody(fx.med.program(), query->goals);
  ASSERT_TRUE(learned.ok()) << learned.status();
  double learned_error =
      std::fabs(learned->cost.t_first_ms - actual_tf) / actual_tf;
  double blind_error =
      std::fabs(blind->cost.t_first_ms - actual_tf) / actual_tf;
  EXPECT_LT(learned_error, 0.3);
  EXPECT_LT(learned_error, blind_error / 2.0);
}

TEST(PredicateStatsTest, TaAndCardinalityKeepCompositionalFormula) {
  Fixture fx;
  QueryOptions direct;
  direct.use_optimizer = false;
  direct.use_cim = false;
  ASSERT_TRUE(fx.med.Query("?- mismatched(4, 47, Y).", direct).ok());

  Result<lang::Query> query =
      lang::Parser::ParseQuery("?- mismatched(4, 47, Y).");
  optimizer::EstimatorParams params;
  params.use_predicate_first_answer_stats = true;
  optimizer::RuleCostEstimator informed(&fx.med.dcsm(), params);
  optimizer::RuleCostEstimator plain(&fx.med.dcsm());
  auto a = informed.EstimateBody(fx.med.program(), query->goals);
  auto b = plain.EstimateBody(fx.med.program(), query->goals);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a->cost.t_all_ms, b->cost.t_all_ms);
  EXPECT_DOUBLE_EQ(a->cost.cardinality, b->cost.cardinality);
}

TEST(PredicateStatsTest, RelaxesToAnyInvocationWhenArgsUnseen) {
  Fixture fx;
  QueryOptions direct;
  direct.use_optimizer = false;
  direct.use_cim = false;
  ASSERT_TRUE(fx.med.Query("?- mismatched(4, 47, Y).", direct).ok());

  // Different frame range, never executed: the fully-relaxed predicate
  // statistics still inform the estimate.
  Result<lang::Query> query =
      lang::Parser::ParseQuery("?- mismatched(40, 900, Y).");
  optimizer::EstimatorParams params;
  params.use_predicate_first_answer_stats = true;
  optimizer::RuleCostEstimator informed(&fx.med.dcsm(), params);
  auto est = informed.EstimateBody(fx.med.program(), query->goals);
  ASSERT_TRUE(est.ok()) << est.status();
  EXPECT_GT(est->cost.t_first_ms, 1000.0);  // inherited observed Tf
}

}  // namespace
}  // namespace hermes

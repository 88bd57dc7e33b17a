// PlanCompiler + EXPLAIN: structural checks of the lowered operator tree
// and golden-file tests of the EXPLAIN rendering for the paper's appendix
// queries over the rope testbed. Regenerate goldens after an intentional
// format change with:
//
//   HERMES_UPDATE_GOLDENS=1 ./tests/optimizer_plan_compiler_test

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>

#include "common/io.h"
#include "engine/mediator.h"
#include "optimizer/plan_compiler.h"
#include "testbed/scenario.h"

namespace hermes {
namespace {

std::string GoldenPath(const std::string& name) {
  return std::string(HERMES_TEST_SRCDIR) + "/golden/" + name;
}

void CompareGolden(const std::string& name, const std::string& actual) {
  const std::string path = GoldenPath(name);
  if (std::getenv("HERMES_UPDATE_GOLDENS") != nullptr) {
    ASSERT_TRUE(WriteStringToFile(path, actual).ok());
    GTEST_SKIP() << "golden updated: " << path;
  }
  Result<std::string> expected = ReadFileToString(path);
  ASSERT_TRUE(expected.ok()) << "missing golden " << path
                             << " (run with HERMES_UPDATE_GOLDENS=1)";
  EXPECT_EQ(*expected, actual) << "EXPLAIN drifted from " << path
                               << "; regenerate with HERMES_UPDATE_GOLDENS=1 "
                                  "if the change is intentional";
}

struct RopeFixture {
  Mediator med;

  RopeFixture() {
    EXPECT_TRUE(testbed::SetupRopeScenario(&med, {}).ok());
  }
};

TEST(PlanCompilerTest, CompiledPlanExposesTreeAndPlan) {
  RopeFixture fx;
  Result<optimizer::OptimizerResult> planned =
      fx.med.Plan(testbed::AppendixQuery(3, false, 4, 47), {});
  ASSERT_TRUE(planned.ok()) << planned.status();

  optimizer::PlanCompiler compiler(&fx.med.dcsm());
  optimizer::CompiledPlan compiled = compiler.Compile(planned->best);
  EXPECT_EQ(compiled.plan().description, planned->best.description);
  ASSERT_NE(compiled.tree().root, nullptr);
  EXPECT_EQ(compiled.tree().root->kind(),
            engine::op::OpKind::kAnswerSink);

  std::string text = compiled.Explain();
  EXPECT_NE(text.find("plan: "), std::string::npos);
  EXPECT_NE(text.find("AnswerSink"), std::string::npos);
  // Moving the compiled plan keeps the tree's borrowed pointers valid.
  optimizer::CompiledPlan moved = std::move(compiled);
  EXPECT_EQ(moved.Explain(), text);
}

uint64_t EstimatesTotal(Mediator& med) {
  return med.metrics()
      .GetOrAddCounter("hermes_dcsm_estimates_total", "")
      ->Value();
}

// EXPLAIN prints each call's estimate stamp and asks the DCSM nothing. The
// first rendering builds the rule body no execution has built yet, and its
// two calls are stamped as they are built; later renderings make no lookup.
TEST(PlanCompilerTest, ExplainPrintsStampsWithoutDcsmLookups) {
  RopeFixture fx;
  Result<optimizer::OptimizerResult> planned =
      fx.med.Plan(testbed::AppendixQuery(3, false, 4, 47), {});
  ASSERT_TRUE(planned.ok()) << planned.status();
  optimizer::PlanCompiler compiler(&fx.med.dcsm());
  optimizer::CompiledPlan compiled = compiler.Compile(planned->best);

  const uint64_t compiled_at = EstimatesTotal(fx.med);
  const std::string text = compiled.Explain();
  EXPECT_NE(text.find("est=[Tf=250 Ta=1000 card=10 src=default]"),
            std::string::npos)
      << text;
  EXPECT_EQ(EstimatesTotal(fx.med), compiled_at + 2);

  EXPECT_EQ(compiled.Explain(), text);
  EXPECT_NE(compiled.Explain(/*actuals=*/true).find("est=[Tf=250"),
            std::string::npos);
  EXPECT_EQ(EstimatesTotal(fx.med), compiled_at + 2);
}

TEST(PlanCompilerTest, CimRedirectionIsPlanVisible) {
  RopeFixture fx;
  QueryOptions as_written;
  as_written.use_optimizer = false;
  Result<std::string> with_cim =
      fx.med.Explain(testbed::AppendixQuery(3, false, 4, 47), as_written);
  ASSERT_TRUE(with_cim.ok()) << with_cim.status();
  EXPECT_NE(with_cim->find("cim_video:"), std::string::npos) << *with_cim;
  EXPECT_NE(with_cim->find(", cim"), std::string::npos) << *with_cim;

  as_written.use_cim = false;
  Result<std::string> direct =
      fx.med.Explain(testbed::AppendixQuery(3, false, 4, 47), as_written);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct->find("cim_video:"), std::string::npos) << *direct;
  EXPECT_EQ(direct->find(", cim"), std::string::npos) << *direct;
}

TEST(PlanCompilerGolden, AppendixQuery3AsWritten) {
  RopeFixture fx;
  QueryOptions options;
  options.use_optimizer = false;
  Result<std::string> text =
      fx.med.Explain(testbed::AppendixQuery(3, false, 4, 47), options);
  ASSERT_TRUE(text.ok()) << text.status();
  CompareGolden("explain_query3_as_written.txt", *text);
}

TEST(PlanCompilerGolden, AppendixQuery1AsWritten) {
  RopeFixture fx;
  QueryOptions options;
  options.use_optimizer = false;
  Result<std::string> text =
      fx.med.Explain(testbed::AppendixQuery(1, false, 4, 47), options);
  ASSERT_TRUE(text.ok()) << text.status();
  CompareGolden("explain_query1_as_written.txt", *text);
}

TEST(PlanCompilerGolden, AppendixQuery2NoCim) {
  RopeFixture fx;
  QueryOptions options;
  options.use_optimizer = false;
  options.use_cim = false;
  Result<std::string> text =
      fx.med.Explain(testbed::AppendixQuery(2, false, 4, 47), options);
  ASSERT_TRUE(text.ok()) << text.status();
  CompareGolden("explain_query2_no_cim.txt", *text);
}

TEST(PlanCompilerGolden, AppendixQuery3Optimized) {
  // Fresh DCSM: every call pattern estimates at the deterministic default
  // cost vector, so the optimizer's choice — and the rendering — is stable.
  RopeFixture fx;
  Result<std::string> text =
      fx.med.Explain(testbed::AppendixQuery(3, false, 4, 47), {});
  ASSERT_TRUE(text.ok()) << text.status();
  CompareGolden("explain_query3_optimized.txt", *text);
}

}  // namespace
}  // namespace hermes

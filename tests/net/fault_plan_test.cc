#include "net/faults/fault_plan.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

namespace hermes::net {
namespace {

TEST(FaultPlanParseTest, FullGrammar) {
  Result<FaultPlan> plan = FaultPlan::Parse(
      "# a comment line\n"
      "seed 42\n"
      "outage  site=umd from=0 until=5000\n"
      "flaky   site=cornell p=0.25\n"
      "latency site=* factor=3 from=1000 until=2000\n"
      "slow    site=umd extra_ms=40000 p=0.5  # trailing comment\n");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->seed, 42u);
  ASSERT_EQ(plan->rules.size(), 4u);

  EXPECT_EQ(plan->rules[0].kind, FaultRule::Kind::kOutage);
  EXPECT_EQ(plan->rules[0].site, "umd");
  EXPECT_DOUBLE_EQ(plan->rules[0].from_ms, 0.0);
  EXPECT_DOUBLE_EQ(plan->rules[0].until_ms, 5000.0);

  EXPECT_EQ(plan->rules[1].kind, FaultRule::Kind::kFlaky);
  EXPECT_DOUBLE_EQ(plan->rules[1].probability, 0.25);
  EXPECT_FALSE(std::isfinite(plan->rules[1].until_ms));  // default: always

  EXPECT_EQ(plan->rules[2].kind, FaultRule::Kind::kLatency);
  EXPECT_EQ(plan->rules[2].site, "*");
  EXPECT_DOUBLE_EQ(plan->rules[2].factor, 3.0);

  EXPECT_EQ(plan->rules[3].kind, FaultRule::Kind::kSlow);
  EXPECT_DOUBLE_EQ(plan->rules[3].extra_ms, 40000.0);
  EXPECT_DOUBLE_EQ(plan->rules[3].probability, 0.5);
}

TEST(FaultPlanParseTest, DefaultsAndBlankLines) {
  Result<FaultPlan> plan = FaultPlan::Parse("\n\nflaky site=x\n\n");
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->rules.size(), 1u);
  EXPECT_DOUBLE_EQ(plan->rules[0].probability, 1.0);
  EXPECT_DOUBLE_EQ(plan->rules[0].from_ms, 0.0);
  EXPECT_FALSE(std::isfinite(plan->rules[0].until_ms));
  EXPECT_EQ(plan->seed, FaultPlan{}.seed);  // default seed survives
}

TEST(FaultPlanParseTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(FaultPlan::Parse("explode site=umd").ok());     // unknown rule
  EXPECT_FALSE(FaultPlan::Parse("outage from=0 until=9").ok());  // no site
  EXPECT_FALSE(FaultPlan::Parse("outage site=umd from=abc").ok());
  EXPECT_FALSE(FaultPlan::Parse("flaky site=x p=1.5").ok());   // p out of range
  EXPECT_FALSE(FaultPlan::Parse("latency site=x factor=0").ok());
  EXPECT_FALSE(FaultPlan::Parse("outage site=x from=10 until=10").ok());
  EXPECT_FALSE(FaultPlan::Parse("seed\n").ok());               // seed w/o value
  EXPECT_FALSE(FaultPlan::Parse("seed banana\n").ok());
  // The seed is a whole unsigned number: no sign, no trailing text.
  EXPECT_TRUE(FaultPlan::Parse("seed -1\n").status().IsParseError());
  EXPECT_TRUE(FaultPlan::Parse("seed 12abc\n").status().IsParseError());
  // Numbers are finite, whole values; extra_ms is never negative.
  for (const char* spec : {"flaky site=x p=nan", "latency site=x factor=nan",
                           "latency site=x factor=inf",
                           "slow site=x extra_ms=-5",
                           "slow site=x extra_ms=nan",
                           "outage site=x from=nan",
                           "outage site=x until=nan"}) {
    EXPECT_TRUE(FaultPlan::Parse(spec).status().IsParseError()) << spec;
  }
  EXPECT_FALSE(FaultPlan::Parse("outage site=x naked-token").ok());
  EXPECT_FALSE(FaultPlan::Parse("outage site=x color=red").ok());
  // The error names the offending line.
  Status err = FaultPlan::Parse("seed 1\nbogus site=x\n").status();
  EXPECT_NE(err.message().find("line 2"), std::string::npos) << err;
}

TEST(FaultPlanParseTest, ToStringRoundTrips) {
  for (const char* text : {
           "seed 7\n"
           "outage site=umd until=5000\n"
           "flaky site=* p=0.25 from=100\n"
           "latency site=cornell factor=2.5\n"
           "slow site=umd extra_ms=1500 p=0.75\n",
           // Every digit must survive the printed form.
           "seed 18446744073709551615\n"
           "flaky site=umd p=0.1234567 from=0.1234567 until=12345.678901\n"
           "latency site=* factor=1.0000001 until=100000000\n"
           "slow site=cornell extra_ms=0.3333333333333333 p=0.1\n"}) {
    Result<FaultPlan> plan = FaultPlan::Parse(text);
    ASSERT_TRUE(plan.ok()) << plan.status();
    Result<FaultPlan> reparsed = FaultPlan::Parse(plan->ToString());
    ASSERT_TRUE(reparsed.ok()) << reparsed.status();
    EXPECT_EQ(plan->ToString(), reparsed->ToString());
    EXPECT_EQ(reparsed->seed, plan->seed);
    ASSERT_EQ(reparsed->rules.size(), plan->rules.size());
    for (size_t i = 0; i < plan->rules.size(); ++i) {
      const FaultRule& want = plan->rules[i];
      const FaultRule& got = reparsed->rules[i];
      EXPECT_EQ(got.kind, want.kind) << want.ToString();
      EXPECT_EQ(got.site, want.site) << want.ToString();
      EXPECT_EQ(got.probability, want.probability) << want.ToString();
      EXPECT_EQ(got.factor, want.factor) << want.ToString();
      EXPECT_EQ(got.extra_ms, want.extra_ms) << want.ToString();
      EXPECT_EQ(got.from_ms, want.from_ms) << want.ToString();
      EXPECT_EQ(got.until_ms, want.until_ms) << want.ToString();
    }
  }
}

TEST(FaultPlanParseTest, LoadReadsSpecFile) {
  std::string path = testing::TempDir() + "/fault_plan_test.faults";
  {
    std::ofstream out(path);
    out << "seed 9\noutage site=umd until=100\n";
  }
  Result<FaultPlan> plan = FaultPlan::Load(path);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->seed, 9u);
  ASSERT_EQ(plan->rules.size(), 1u);
  std::remove(path.c_str());
  EXPECT_FALSE(FaultPlan::Load(path).ok());  // gone now
}

FaultPlan MustParse(const std::string& text) {
  Result<FaultPlan> plan = FaultPlan::Parse(text);
  EXPECT_TRUE(plan.ok()) << plan.status();
  return std::move(plan).value();
}

TEST(FaultInjectorTest, OutageWindowIsHalfOpen) {
  FaultInjector inject(MustParse("outage site=umd from=100 until=200\n"));
  EXPECT_FALSE(inject.Decide("umd", 1, 7, 0, 50.0).unavailable);
  EXPECT_TRUE(inject.Decide("umd", 1, 7, 0, 100.0).unavailable);
  EXPECT_STREQ(inject.Decide("umd", 1, 7, 0, 100.0).cause, "outage");
  EXPECT_TRUE(inject.Decide("umd", 1, 7, 0, 199.9).unavailable);
  EXPECT_FALSE(inject.Decide("umd", 1, 7, 0, 200.0).unavailable);
  // A retry scheduled past the window's end succeeds: that's the property
  // the resilience layer's backoff waits exploit.
  EXPECT_FALSE(inject.Decide("umd", 1, 7, 1, 250.0).unavailable);
  // Other sites are untouched; "*" would match them all.
  EXPECT_FALSE(inject.Decide("cornell", 1, 7, 0, 150.0).unavailable);
  FaultInjector everywhere(MustParse("outage site=*\n"));
  EXPECT_TRUE(everywhere.Decide("cornell", 1, 7, 0, 150.0).unavailable);
}

TEST(FaultInjectorTest, FlakyEdgeProbabilities) {
  FaultInjector never(MustParse("flaky site=umd p=0\n"));
  FaultInjector always(MustParse("flaky site=umd p=1\n"));
  for (uint64_t attempt = 0; attempt < 32; ++attempt) {
    EXPECT_FALSE(never.Decide("umd", 3, 11, attempt, 0.0).unavailable);
    FaultDecision fate = always.Decide("umd", 3, 11, attempt, 0.0);
    EXPECT_TRUE(fate.unavailable);
    EXPECT_STREQ(fate.cause, "flaky");
  }
}

TEST(FaultInjectorTest, DecisionsAreAPureFunctionOfTheirInputs) {
  const std::string spec =
      "seed 1234\nflaky site=umd p=0.5\nslow site=umd extra_ms=100 p=0.5\n";
  FaultInjector a(MustParse(spec));
  FaultInjector b(MustParse(spec));  // independent instance, same plan
  bool saw_up = false, saw_down = false;
  for (uint64_t query = 1; query <= 4; ++query) {
    for (uint64_t attempt = 0; attempt < 16; ++attempt) {
      FaultDecision da = a.Decide("umd", query, 99, attempt, 0.0);
      FaultDecision db = b.Decide("umd", query, 99, attempt, 0.0);
      EXPECT_EQ(da.unavailable, db.unavailable);
      EXPECT_DOUBLE_EQ(da.extra_response_ms, db.extra_response_ms);
      (da.unavailable ? saw_down : saw_up) = true;
    }
  }
  // p=0.5 over 64 draws: both outcomes occur, so the draws are real.
  EXPECT_TRUE(saw_up);
  EXPECT_TRUE(saw_down);
  // A different plan seed redraws the fates.
  FaultInjector reseeded(
      MustParse("seed 4321\nflaky site=umd p=0.5\n"));
  bool any_differ = false;
  for (uint64_t attempt = 0; attempt < 64 && !any_differ; ++attempt) {
    any_differ = a.Decide("umd", 1, 99, attempt, 0.0).unavailable !=
                 reseeded.Decide("umd", 1, 99, attempt, 0.0).unavailable;
  }
  EXPECT_TRUE(any_differ);
}

TEST(FaultInjectorTest, LatencyAndSlowCompose) {
  FaultInjector inject(MustParse(
      "latency site=umd factor=3\n"
      "latency site=* factor=2 from=0 until=1000\n"
      "slow site=umd extra_ms=500 p=1\n"));
  FaultDecision in_window = inject.Decide("umd", 1, 7, 0, 10.0);
  EXPECT_DOUBLE_EQ(in_window.latency_factor, 6.0);  // factors multiply
  EXPECT_DOUBLE_EQ(in_window.extra_response_ms, 500.0);
  EXPECT_FALSE(in_window.unavailable);
  FaultDecision after = inject.Decide("umd", 1, 7, 0, 2000.0);
  EXPECT_DOUBLE_EQ(after.latency_factor, 3.0);  // windowed rule expired
  FaultDecision other = inject.Decide("cornell", 1, 7, 0, 10.0);
  EXPECT_DOUBLE_EQ(other.latency_factor, 2.0);  // only the wildcard matches
  EXPECT_DOUBLE_EQ(other.extra_response_ms, 0.0);
}

}  // namespace
}  // namespace hermes::net

// DriftTracker warm-up semantics: the EWMA seeds from the *trimmed mean*
// of the first min_samples observations, so a single outlier during
// warm-up cannot trip drift_exceeded (the regression this pins: the first
// sample used to seed the EWMA at full weight, so one bad draw flagged the
// group — and would now invalidate every dependent plan-cache entry).

#include "dcsm/drift.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dcsm/dcsm.h"
#include "lang/parser.h"

namespace hermes::dcsm {
namespace {

lang::DomainCallSpec Pattern(const std::string& text) {
  Result<lang::DomainCallSpec> spec = lang::Parser::ParseCallPattern(text);
  EXPECT_TRUE(spec.ok()) << spec.status();
  return *spec;
}

/// Gives `dcsm` one real statistic, so Cost("d:f(1)") has a non-default
/// source of Ta=10, card=4 (drift skips default-only estimates).
void Seed(Dcsm* dcsm) {
  dcsm->RecordExecution(DomainCall{"d", "f", {Value::Int(1)}},
                        CostVector(5.0, 10.0, 4.0));
}

struct HookLog {
  std::vector<std::string> fired;

  DriftTracker::ExceededHook hook() {
    return [this](const std::string& site, const std::string& domain,
                  const std::string& adorn) {
      fired.push_back(site + "/" + domain + "/" + adorn);
    };
  }
};

TEST(DriftWarmupTest, OneOutlierAmongWarmupSamplesDoesNotTrip) {
  Dcsm dcsm;
  Seed(&dcsm);
  DriftOptions options;
  options.threshold = 1.0;
  options.min_samples = 3;
  DriftTracker drift(&dcsm, options);
  HookLog log;
  drift.set_exceeded_hook(log.hook());

  // First observation is wildly off (20× the estimate); the next two are
  // dead on. The trimmed mean drops the outlier, so the group seeds calm.
  drift.Observe(Pattern("d:f(1)"), "c", CostVector(100.0, 200.0, 4.0), 0.0);
  drift.Observe(Pattern("d:f(1)"), "c", CostVector(5.0, 10.0, 4.0), 1.0);
  drift.Observe(Pattern("d:f(1)"), "c", CostVector(5.0, 10.0, 4.0), 2.0);

  EXPECT_EQ(drift.observations(), 3u);
  EXPECT_EQ(drift.exceeded_events(), 0u);
  EXPECT_TRUE(drift.Report().Exceeded().empty());
  EXPECT_TRUE(log.fired.empty());
}

TEST(DriftWarmupTest, SustainedErrorStillTripsAfterWarmup) {
  Dcsm dcsm;
  Seed(&dcsm);
  DriftOptions options;
  options.threshold = 1.0;
  options.min_samples = 3;
  DriftTracker drift(&dcsm, options);
  drift.SetSite("d", "umd");
  HookLog log;
  drift.set_exceeded_hook(log.hook());

  // Every observation is 20× the estimate: trimming one sample does not
  // rescue the seed, and the group flags as soon as warm-up completes.
  for (int i = 0; i < 3; ++i) {
    drift.Observe(Pattern("d:f(1)"), "c", CostVector(100.0, 200.0, 4.0),
                  static_cast<double>(i));
  }
  EXPECT_EQ(drift.exceeded_events(), 1u);
  ASSERT_EQ(drift.Report().Exceeded().size(), 1u);
  ASSERT_EQ(log.fired.size(), 1u);
  EXPECT_EQ(log.fired[0], "umd/d/c");

  // The flag is edge-triggered: staying past the threshold does not refire
  // the hook (re-invalidation storms on every call would thrash the cache).
  drift.Observe(Pattern("d:f(1)"), "c", CostVector(100.0, 200.0, 4.0), 3.0);
  EXPECT_EQ(drift.exceeded_events(), 1u);
  EXPECT_EQ(log.fired.size(), 1u);
}

TEST(DriftWarmupTest, MinSamplesOneKeepsTheEagerBehavior) {
  Dcsm dcsm;
  Seed(&dcsm);
  DriftOptions options;
  options.threshold = 1.0;
  options.min_samples = 1;  // opt back into flag-on-first-sample
  DriftTracker drift(&dcsm, options);
  HookLog log;
  drift.set_exceeded_hook(log.hook());

  drift.Observe(Pattern("d:f(1)"), "c", CostVector(100.0, 200.0, 4.0), 0.0);
  EXPECT_EQ(drift.exceeded_events(), 1u);
  EXPECT_EQ(log.fired.size(), 1u);
}

TEST(DriftWarmupTest, GroupsWarmUpIndependently) {
  Dcsm dcsm;
  Seed(&dcsm);
  dcsm.RecordExecution(DomainCall{"e", "g", {Value::Int(1)}},
                       CostVector(5.0, 10.0, 4.0));
  DriftOptions options;
  options.threshold = 1.0;
  options.min_samples = 2;
  DriftTracker drift(&dcsm, options);
  HookLog log;
  drift.set_exceeded_hook(log.hook());

  // d:f drifts hard; e:g stays calm. Only the drifted group flags.
  for (int i = 0; i < 2; ++i) {
    drift.Observe(Pattern("d:f(1)"), "c", CostVector(100.0, 200.0, 4.0),
                  static_cast<double>(i));
    drift.Observe(Pattern("e:g(1)"), "c", CostVector(5.0, 10.0, 4.0),
                  static_cast<double>(i));
  }
  ASSERT_EQ(log.fired.size(), 1u);
  EXPECT_EQ(log.fired[0], "local/d/c");
  EXPECT_EQ(drift.Report().Exceeded().size(), 1u);
}

}  // namespace
}  // namespace hermes::dcsm

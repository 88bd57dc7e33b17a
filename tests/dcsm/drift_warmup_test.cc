// DriftTracker warm-up semantics: the EWMA seeds from the *trimmed mean*
// of the first min_samples observations, so a single outlier during
// warm-up cannot trip drift_exceeded (the regression this pins: the first
// sample used to seed the EWMA at full weight, so one bad draw flagged the
// group — and would now invalidate every dependent plan-cache entry).

#include "dcsm/drift.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace hermes::dcsm {
namespace {

/// A call site's estimate of Ta=10, card=4 from recorded statistics (drift
/// skips default-only estimates).
const CostEstimate kEstimate{CostVector(5.0, 10.0, 4.0),
                              {EstimateSource::Kind::kRaw}};

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
  DriftOptions options;
  options.threshold = 1.0;
  options.min_samples = 3;
  DriftTracker drift(options);
  HookLog log;
  drift.set_exceeded_hook(log.hook());

  // First observation is wildly off (20× the estimate); the next two are
  // dead on. The trimmed mean drops the outlier, so the group seeds calm.
  drift.Observe("d", "c", kEstimate, CostVector(100.0, 200.0, 4.0), 0.0);
  drift.Observe("d", "c", kEstimate, CostVector(5.0, 10.0, 4.0), 1.0);
  drift.Observe("d", "c", kEstimate, CostVector(5.0, 10.0, 4.0), 2.0);

  EXPECT_EQ(drift.observations(), 3u);
  EXPECT_EQ(drift.exceeded_events(), 0u);
  EXPECT_TRUE(drift.Report().Exceeded().empty());
  EXPECT_TRUE(log.fired.empty());
}

TEST(DriftWarmupTest, SustainedErrorStillTripsAfterWarmup) {
  DriftOptions options;
  options.threshold = 1.0;
  options.min_samples = 3;
  DriftTracker drift(options);
  drift.SetSite("d", "umd");
  HookLog log;
  drift.set_exceeded_hook(log.hook());

  // Every observation is 20× the estimate: trimming one sample does not
  // rescue the seed, and the group flags as soon as warm-up completes.
  for (int i = 0; i < 3; ++i) {
    drift.Observe("d", "c", kEstimate, CostVector(100.0, 200.0, 4.0),
                  static_cast<double>(i));
  }
  EXPECT_EQ(drift.exceeded_events(), 1u);
  ASSERT_EQ(drift.Report().Exceeded().size(), 1u);
  ASSERT_EQ(log.fired.size(), 1u);
  EXPECT_EQ(log.fired[0], "umd/d/c");

  // The flag is edge-triggered: staying past the threshold does not refire
  // the hook (re-invalidation storms on every call would thrash the cache).
  drift.Observe("d", "c", kEstimate, CostVector(100.0, 200.0, 4.0), 3.0);
  EXPECT_EQ(drift.exceeded_events(), 1u);
  EXPECT_EQ(log.fired.size(), 1u);
}

TEST(DriftWarmupTest, MinSamplesOneKeepsTheEagerBehavior) {
  DriftOptions options;
  options.threshold = 1.0;
  options.min_samples = 1;  // opt back into flag-on-first-sample
  DriftTracker drift(options);
  HookLog log;
  drift.set_exceeded_hook(log.hook());

  drift.Observe("d", "c", kEstimate, CostVector(100.0, 200.0, 4.0), 0.0);
  EXPECT_EQ(drift.exceeded_events(), 1u);
  EXPECT_EQ(log.fired.size(), 1u);
}

TEST(DriftWarmupTest, GroupsWarmUpIndependently) {
  DriftOptions options;
  options.threshold = 1.0;
  options.min_samples = 2;
  DriftTracker drift(options);
  HookLog log;
  drift.set_exceeded_hook(log.hook());

  // d:f drifts hard; e:g stays calm. Only the drifted group flags.
  for (int i = 0; i < 2; ++i) {
    drift.Observe("d", "c", kEstimate, CostVector(100.0, 200.0, 4.0),
                  static_cast<double>(i));
    drift.Observe("e", "c", kEstimate, CostVector(5.0, 10.0, 4.0),
                  static_cast<double>(i));
  }
  ASSERT_EQ(log.fired.size(), 1u);
  EXPECT_EQ(log.fired[0], "local/d/c");
  EXPECT_EQ(drift.Report().Exceeded().size(), 1u);
}

}  // namespace
}  // namespace hermes::dcsm

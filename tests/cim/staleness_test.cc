#include <gtest/gtest.h>

#include "cim/cim.h"

namespace hermes::cim {
namespace {

/// Counts calls; answers change with every execution, so a stale cache is
/// observably wrong.
class VersionedDomain : public Domain {
 public:
  explicit VersionedDomain(std::string name) : name_(std::move(name)) {}
  int calls() const { return calls_; }

  const std::string& name() const override { return name_; }
  std::vector<FunctionInfo> Functions() const override { return {}; }
  Result<CallOutput> Run(const DomainCall& call) override {
    (void)call;
    ++calls_;
    CallOutput out;
    out.answers = {Value::Int(calls_)};  // version tag
    out.first_ms = out.all_ms = 100.0;
    return out;
  }

 private:
  std::string name_;
  int calls_ = 0;
};

DomainCall TheCall() { return DomainCall{"v", "now", {Value::Int(1)}}; }

TEST(CimStalenessTest, UnboundedAgeServesForever) {
  auto inner = std::make_shared<VersionedDomain>("v");
  CimDomain cim("cim_v", "v", inner);
  (void)cim.Run(TheCall());
  for (int i = 0; i < 10; ++i) {
    Result<CallOutput> out = cim.Run(TheCall());
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->answers, AnswerSet{Value::Int(1)});  // original version
  }
  EXPECT_EQ(inner->calls(), 1);
}

TEST(CimStalenessTest, AgedEntriesAreRefetched) {
  auto inner = std::make_shared<VersionedDomain>("v");
  CimOptions options;
  options.max_entry_age = 3;
  CimDomain cim("cim_v", "v", inner, options);

  (void)cim.Run(TheCall());                      // tick 1: miss, cached @1
  EXPECT_EQ(cim.Run(TheCall())->answers[0], Value::Int(1));  // tick 2: hit
  EXPECT_EQ(cim.Run(TheCall())->answers[0], Value::Int(1));  // tick 3: hit
  EXPECT_EQ(cim.Run(TheCall())->answers[0], Value::Int(1));  // tick 4: hit
  // tick 5: age (5-1) > 3 → stale, refetched and re-cached.
  Result<CallOutput> refreshed = cim.Run(TheCall());
  ASSERT_TRUE(refreshed.ok());
  EXPECT_EQ(refreshed->answers[0], Value::Int(2));
  EXPECT_EQ(inner->calls(), 2);
  EXPECT_EQ(cim.stats().exact_hits, 3u);
  EXPECT_EQ(cim.stats().misses, 2u);
}

TEST(CimStalenessTest, StaleEntriesInvisibleToInvariants) {
  auto inner = std::make_shared<VersionedDomain>("v");
  CimOptions options;
  options.max_entry_age = 1;
  CimDomain cim("cim_v", "v", inner, options);
  ASSERT_TRUE(cim.AddInvariants("=> v:now(X) = v:now(X).").ok());

  (void)cim.Run(TheCall());  // tick 1: cached @1
  (void)cim.Run(DomainCall{"v", "now", {Value::Int(2)}});  // tick 2
  // tick 3: the @1 entry is now 2 ticks old (> 1): neither the exact probe
  // nor the (self-)equality invariant may serve it.
  Result<CallOutput> out = cim.Run(TheCall());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->answers[0], Value::Int(3));
  EXPECT_EQ(cim.stats().equality_hits, 0u);
}

/// VersionedDomain that can be taken down: while `down`, Run fails
/// Unavailable the way a dead site's network layer does.
class OutageDomain : public VersionedDomain {
 public:
  using VersionedDomain::VersionedDomain;
  void set_down(bool down) { down_ = down; }
  Result<CallOutput> Run(const DomainCall& call) override {
    if (down_) return Status::Unavailable("site is down");
    return VersionedDomain::Run(call);
  }

 private:
  bool down_ = false;
};

TEST(CimStalenessTest, StaleFallbackMasksAMissPathOutage) {
  auto inner = std::make_shared<OutageDomain>("v");
  CimOptions options;
  options.max_entry_age = 1;
  options.serve_stale_on_unavailable = true;
  CimDomain cim("cim_v", "v", inner, options);

  (void)cim.Run(TheCall());                                // tick 1: cached @1
  (void)cim.Run(DomainCall{"v", "now", {Value::Int(2)}});  // tick 2: ages @1
  inner->set_down(true);
  // Tick 3: the @1 entry is 2 ticks old — an ordinary miss — and the
  // actual call fails. The degradation ladder's last rung serves the stale
  // entry anyway, marked degraded.
  Result<CallOutput> degraded = cim.Run(TheCall());
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_EQ(degraded->answers[0], Value::Int(1));  // the stale version
  EXPECT_TRUE(degraded->degraded);
  EXPECT_EQ(cim.stats().stale_serves, 1u);
  // A call with no cached material at all still fails cleanly.
  Result<CallOutput> lost = cim.Run(DomainCall{"v", "now", {Value::Int(9)}});
  EXPECT_FALSE(lost.ok());
  EXPECT_TRUE(lost.status().IsUnavailable());
  EXPECT_EQ(cim.stats().unavailable_failed, 1u);
  // Once the source recovers, the entry is refreshed and degradation ends.
  inner->set_down(false);
  Result<CallOutput> fresh = cim.Run(TheCall());
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh->degraded);
  EXPECT_EQ(cim.stats().stale_serves, 1u);
}

TEST(CimStalenessTest, BrownoutStaleServeCountsAsTheExactHitItReports) {
  auto inner = std::make_shared<VersionedDomain>("v");
  CimOptions options;
  options.max_entry_age = 1;
  CimDomain cim("cim_v", "v", inner, options);
  (void)cim.Run(TheCall());                                // tick 1: cached @1
  (void)cim.Run(DomainCall{"v", "now", {Value::Int(2)}});  // tick 2: ages @1
  const CimStats before = cim.stats();
  // Tick 3 under brownout: the stale complete entry stands in for the
  // source, and the CIM counts the exact hit it reports.
  CimOutcome outcome = CimOutcome::kMiss;
  Result<CallOutput> out = cim.RunWith(
      TheCall(),
      [&inner](const DomainCall& call) { return inner->Run(call); },
      &outcome, /*prefer_stale=*/true);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_TRUE(out->degraded);
  EXPECT_EQ(out->answers[0], Value::Int(1));
  EXPECT_EQ(outcome, CimOutcome::kExactHit);
  EXPECT_EQ(inner->calls(), 2);
  EXPECT_EQ(cim.stats().exact_hits - before.exact_hits, 1u);
  EXPECT_EQ(cim.stats().stale_serves - before.stale_serves, 1u);
  EXPECT_EQ(cim.stats().misses - before.misses, 0u);
}

TEST(CimStalenessTest, StaleFallbackIsOffByDefault) {
  auto inner = std::make_shared<OutageDomain>("v");
  CimOptions options;
  options.max_entry_age = 1;
  CimDomain cim("cim_v", "v", inner, options);
  (void)cim.Run(TheCall());                                // tick 1: cached @1
  (void)cim.Run(DomainCall{"v", "now", {Value::Int(2)}});  // tick 2: ages @1
  inner->set_down(true);
  // The historical miss-path behaviour: a miss over a dead source fails,
  // stale material or not.
  Result<CallOutput> lost = cim.Run(TheCall());
  EXPECT_FALSE(lost.ok());
  EXPECT_TRUE(lost.status().IsUnavailable());
  EXPECT_EQ(cim.stats().stale_serves, 0u);
}

}  // namespace
}  // namespace hermes::cim

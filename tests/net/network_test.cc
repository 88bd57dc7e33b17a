#include "net/network.h"

#include <gtest/gtest.h>

#include "domain/pipeline.h"
#include "net/network_interceptor.h"
#include "net/site.h"

namespace hermes::net {
namespace {

/// Fixed-latency local domain for wrapping tests.
class StubDomain : public Domain {
 public:
  StubDomain(std::string name, AnswerSet answers, double first_ms,
             double all_ms)
      : name_(std::move(name)),
        answers_(std::move(answers)),
        first_ms_(first_ms),
        all_ms_(all_ms) {}

  const std::string& name() const override { return name_; }
  std::vector<FunctionInfo> Functions() const override {
    return {{"f", 0, "f(): fixed answers"}};
  }
  Result<CallOutput> Run(const DomainCall& call) override {
    (void)call;
    CallOutput out;
    out.answers = answers_;
    out.first_ms = first_ms_;
    out.all_ms = all_ms_;
    return out;
  }

 private:
  std::string name_;
  AnswerSet answers_;
  double first_ms_;
  double all_ms_;
};

TEST(SitePresetsTest, LatencyOrdering) {
  EXPECT_LT(LocalSite().connect_ms, UsaSite().connect_ms);
  EXPECT_LT(UsaSite().connect_ms, ItalySite().connect_ms);
  EXPECT_GT(AustraliaSite().charge_per_call, 0.0);
}

TEST(NetworkSimulatorTest, PlanCallIsDeterministicFromSeed) {
  NetworkSimulator a(7), b(7);
  SiteParams site = UsaSite();
  for (int i = 0; i < 20; ++i) {
    NetworkSimulator::Transfer ta = a.PlanCall(site, 123);
    NetworkSimulator::Transfer tb = b.PlanCall(site, 123);
    EXPECT_DOUBLE_EQ(ta.request_ms, tb.request_ms);
    EXPECT_DOUBLE_EQ(ta.per_byte_ms, tb.per_byte_ms);
  }
}

TEST(NetworkSimulatorTest, RepeatedCallsJitterIndependently) {
  NetworkSimulator sim(7);
  SiteParams site = UsaSite();
  NetworkSimulator::Transfer t1 = sim.PlanCall(site, 123);
  NetworkSimulator::Transfer t2 = sim.PlanCall(site, 123);
  EXPECT_NE(t1.request_ms, t2.request_ms);
}

TEST(NetworkSimulatorTest, JitterStaysWithinBounds) {
  NetworkSimulator sim(3);
  SiteParams site = UsaSite();
  for (int i = 0; i < 200; ++i) {
    NetworkSimulator::Transfer t = sim.PlanCall(site, i);
    double lo = (site.connect_ms + site.rtt_ms / 2) * (1 - site.jitter);
    double hi = (site.connect_ms + site.rtt_ms / 2) * (1 + site.jitter);
    EXPECT_GE(t.request_ms, lo);
    EXPECT_LE(t.request_ms, hi);
  }
}

TEST(NetworkSimulatorTest, AvailabilityProducesFailures) {
  NetworkSimulator sim(5);
  SiteParams site = UsaSite();
  site.availability = 0.5;
  int failures = 0;
  for (int i = 0; i < 1000; ++i) {
    NetworkSimulator::Transfer t = sim.PlanCall(site, i);
    if (!t.available) {
      ++failures;
      EXPECT_EQ(t.penalty_ms, site.retry_timeout_ms);
    }
  }
  EXPECT_GT(failures, 350);
  EXPECT_LT(failures, 650);
}

TEST(NetworkSimulatorTest, StatsAccumulate) {
  // The simulator only plans; each link counts its own traffic, charged at
  // its site's tariff, and the query's context counts the same calls.
  SiteParams site = AustraliaSite();
  site.jitter = 0.0;
  EXPECT_NEAR(NetworkSimulator::Charge(site, 2048),
              site.charge_per_call + 2 * site.charge_per_kb, 1e-9);
  AnswerSet answers = {Value::Int(1), Value::Int(2)};
  auto link = std::make_shared<NetworkInterceptor>(
      site, std::make_shared<NetworkSimulator>(1));
  PipelineDomain remote("stub@australia", {link},
                        std::make_shared<StubDomain>("stub", answers, 1, 2));
  CallContext ctx;
  ASSERT_TRUE(remote.Run(ctx, DomainCall{"stub", "f", {}}).ok());
  link->mutable_site().availability = 0.0;
  EXPECT_TRUE(
      remote.Run(ctx, DomainCall{"stub", "f", {}}).status().IsUnavailable());

  const size_t bytes = AnswerSetByteSize(answers);
  EXPECT_EQ(link->calls().Value(), 2u);
  EXPECT_EQ(link->failures().Value(), 1u);
  EXPECT_EQ(link->bytes().Value(), bytes);
  EXPECT_NEAR(link->charge().Value(), NetworkSimulator::Charge(site, bytes),
              1e-9);
  EXPECT_EQ(link->hop_sim_ms().Snapshot().count, 1u);
  EXPECT_EQ(ctx.metrics.remote_calls, link->calls().Value());
  EXPECT_EQ(ctx.metrics.remote_failures, link->failures().Value());
  EXPECT_EQ(ctx.metrics.bytes_transferred, link->bytes().Value());
  EXPECT_DOUBLE_EQ(ctx.metrics.network_charge, link->charge().Value());
  EXPECT_DOUBLE_EQ(ctx.metrics.network_ms, link->hop_sim_ms().Snapshot().sum);
}

/// A remote domain as the mediator wires one: `inner` behind a network
/// layer for `site`.
PipelineDomain Remote(std::shared_ptr<Domain> inner, SiteParams site,
                      std::shared_ptr<NetworkSimulator> sim) {
  std::string name = inner->name() + "@" + site.name;
  return PipelineDomain(
      std::move(name),
      {std::make_shared<NetworkInterceptor>(std::move(site), std::move(sim))},
      std::move(inner));
}

TEST(RemoteDomainTest, AddsNetworkLatency) {
  auto sim = std::make_shared<NetworkSimulator>(42);
  auto inner = std::make_shared<StubDomain>(
      "stub", AnswerSet{Value::Int(1), Value::Int(2)}, 5.0, 10.0);
  SiteParams site = UsaSite();
  site.jitter = 0.0;
  PipelineDomain remote = Remote(inner, site, sim);

  DomainCall call{"stub", "f", {}};
  Result<CallOutput> out = remote.Run(call);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->answers.size(), 2u);
  // first = connect + rtt + inner.first + first answer bytes / bw
  double per_byte = 1.0 / site.bytes_per_ms;
  double expected_first = site.connect_ms + site.rtt_ms + 5.0 +
                          per_byte * Value::Int(1).ApproxByteSize();
  EXPECT_NEAR(out->first_ms, expected_first, 1e-6);
  EXPECT_GT(out->all_ms, out->first_ms);
}

TEST(RemoteDomainTest, LocalSiteIsNearlyFree) {
  auto sim = std::make_shared<NetworkSimulator>(42);
  auto inner =
      std::make_shared<StubDomain>("stub", AnswerSet{Value::Int(1)}, 2.0, 2.0);
  PipelineDomain remote = Remote(inner, LocalSite(), sim);
  Result<CallOutput> out = remote.Run(DomainCall{"stub", "f", {}});
  ASSERT_TRUE(out.ok());
  EXPECT_LT(out->all_ms, 3.0);
}

TEST(RemoteDomainTest, ItalyCostsFarMoreThanUsa) {
  auto sim = std::make_shared<NetworkSimulator>(2);
  auto inner =
      std::make_shared<StubDomain>("stub", AnswerSet{Value::Int(1)}, 50, 100);
  PipelineDomain usa = Remote(inner, UsaSite(), sim);
  PipelineDomain italy = Remote(inner, ItalySite(), sim);
  Result<CallOutput> u = usa.Run(DomainCall{"stub", "f", {}});
  Result<CallOutput> i = italy.Run(DomainCall{"stub", "f", {}});
  ASSERT_TRUE(u.ok() && i.ok());
  EXPECT_GT(i->all_ms, 10.0 * u->all_ms);
}

}  // namespace
}  // namespace hermes::net

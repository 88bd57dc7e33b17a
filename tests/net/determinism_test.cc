#include <gtest/gtest.h>

#include "domain/pipeline.h"
#include "net/network.h"
#include "net/network_interceptor.h"
#include "net/site.h"

namespace hermes::net {
namespace {

/// Fixed-latency source for wrapping tests.
class StubDomain : public Domain {
 public:
  explicit StubDomain(std::string name) : name_(std::move(name)) {}
  const std::string& name() const override { return name_; }
  std::vector<FunctionInfo> Functions() const override {
    return {{"f", 1, "f(x): {x, x}"}};
  }
  Result<CallOutput> Run(const DomainCall& call) override {
    CallOutput out;
    out.answers = {call.args[0], call.args[0]};
    out.first_ms = 4.0;
    out.all_ms = 9.0;
    return out;
  }

 private:
  std::string name_;
};

DomainCall F(int64_t x) { return DomainCall{"stub", "f", {Value::Int(x)}}; }

TEST(NetworkDeterminismTest, SameSeedSameSequenceReplaysIdentically) {
  // Same seed + same call sequence ⇒ identical Transfer plans, even across
  // distinct simulator instances.
  NetworkSimulator a(77), b(77);
  SiteParams site = ItalySite();
  site.availability = 0.9;  // exercise the availability branch too
  for (int i = 0; i < 200; ++i) {
    NetworkSimulator::Transfer ta = a.PlanCall(site, i % 7);
    NetworkSimulator::Transfer tb = b.PlanCall(site, i % 7);
    EXPECT_EQ(ta.available, tb.available);
    EXPECT_EQ(ta.request_ms, tb.request_ms);
    EXPECT_EQ(ta.response_lag_ms, tb.response_lag_ms);
    EXPECT_EQ(ta.per_byte_ms, tb.per_byte_ms);
    EXPECT_EQ(ta.penalty_ms, tb.penalty_ms);
  }
}

TEST(NetworkDeterminismTest, UnavailableSiteChargesPenaltyAndFails) {
  SiteParams site = UsaSite();
  site.availability = 0.0;
  auto sim = std::make_shared<NetworkSimulator>(3);
  auto stub = std::make_shared<StubDomain>("stub");
  auto link = std::make_shared<NetworkInterceptor>(site, sim);
  PipelineDomain piped("stub@usa", {link}, stub);

  CallContext ctx;
  Result<CallOutput> out = piped.Run(ctx, F(1));
  EXPECT_TRUE(out.status().IsUnavailable());
  EXPECT_EQ(ctx.last_call_penalty_ms, site.retry_timeout_ms);
  EXPECT_EQ(ctx.metrics.remote_calls, 1u);
  EXPECT_EQ(ctx.metrics.remote_failures, 1u);
  EXPECT_EQ(ctx.metrics.bytes_transferred, 0u);
  EXPECT_EQ(link->calls().Value(), 1u);
  EXPECT_EQ(link->failures().Value(), 1u);
}

}  // namespace
}  // namespace hermes::net

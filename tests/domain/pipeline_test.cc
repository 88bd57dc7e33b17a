#include "domain/pipeline.h"

#include <gtest/gtest.h>

#include "cim/cache_interceptor.h"
#include "cim/cim.h"
#include "domain/registry.h"

namespace hermes {
namespace {

/// Fixed-latency echo domain: echo:id(x) → {x}.
class EchoDomain : public Domain {
 public:
  explicit EchoDomain(std::string name) : name_(std::move(name)) {}
  const std::string& name() const override { return name_; }
  std::vector<FunctionInfo> Functions() const override {
    return {{"id", 1, "id(x): {x}"}};
  }
  Result<CallOutput> Run(const DomainCall& call) override {
    if (call.function != "id" || call.args.size() != 1) {
      return Status::NotFound("no function " + call.function);
    }
    ++runs;
    CallOutput out;
    out.answers = {call.args[0]};
    out.first_ms = 3.0;
    out.all_ms = 7.0;
    return out;
  }

  int runs = 0;

 private:
  std::string name_;
};

/// Counts the calls that reach its position in the stack.
class CountingInterceptor : public CallInterceptor {
 public:
  explicit CountingInterceptor(std::string name) : name_(std::move(name)) {}
  const std::string& name() const override { return name_; }
  Result<CallOutput> Intercept(CallContext& ctx, const DomainCall& call,
                               const Next& next) override {
    ++calls;
    return next(ctx, call);
  }

  int calls = 0;

 private:
  std::string name_;
};

DomainCall Id(int64_t x) { return DomainCall{"echo", "id", {Value::Int(x)}}; }

TEST(CallMetricsTest, MergeIsAdditive) {
  CallMetrics a, b;
  a.domain_calls = 2;
  a.cache_hits = 1;
  a.network_charge = 0.5;
  b.domain_calls = 3;
  b.cache_misses = 4;
  b.network_charge = 0.25;
  a.Merge(b);
  EXPECT_EQ(a.domain_calls, 5u);
  EXPECT_EQ(a.cache_hits, 1u);
  EXPECT_EQ(a.cache_misses, 4u);
  EXPECT_DOUBLE_EQ(a.network_charge, 0.75);
}

TEST(CallContextTest, ChargeCallEnforcesBudget) {
  CallContext ctx;
  ctx.call_budget = 2;
  EXPECT_TRUE(ctx.ChargeCall().ok());
  EXPECT_TRUE(ctx.ChargeCall().ok());
  EXPECT_FALSE(ctx.ChargeCall().ok());
  EXPECT_EQ(ctx.metrics.domain_calls, 2u);
}

TEST(PipelineDomainTest, EmptyStackMatchesDirectRegistryRun) {
  auto echo = std::make_shared<EchoDomain>("echo");
  DomainRegistry direct, piped;
  ASSERT_TRUE(direct.Register("echo", echo).ok());
  ASSERT_TRUE(piped.Register("echo", std::make_shared<PipelineDomain>(
                                         "echo", std::vector<std::shared_ptr<
                                                     CallInterceptor>>{},
                                         echo))
                  .ok());

  Result<CallOutput> a = direct.Run(Id(9));
  Result<CallOutput> b = piped.Run(Id(9));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->answers, b->answers);
  EXPECT_EQ(a->first_ms, b->first_ms);  // bit-identical, not just near
  EXPECT_EQ(a->all_ms, b->all_ms);
  EXPECT_EQ(a->complete, b->complete);

  // Errors pass through unchanged too.
  DomainCall bad{"echo", "nope", {}};
  EXPECT_EQ(direct.Run(bad).status().ToString(),
            piped.Run(bad).status().ToString());
}

TEST(PipelineDomainTest, StackRunsTopFirst) {
  auto echo = std::make_shared<EchoDomain>("echo");
  std::vector<std::string> order;
  class Probe : public CallInterceptor {
   public:
    Probe(std::string name, std::vector<std::string>* order)
        : name_(std::move(name)), order_(order) {}
    const std::string& name() const override { return name_; }
    Result<CallOutput> Intercept(CallContext& ctx, const DomainCall& call,
                                 const Next& next) override {
      order_->push_back(name_);
      return next(ctx, call);
    }

   private:
    std::string name_;
    std::vector<std::string>* order_;
  };
  PipelineDomain domain(
      "echo",
      {std::make_shared<Probe>("outer", &order),
       std::make_shared<Probe>("inner", &order)},
      echo);
  CallContext ctx;
  ASSERT_TRUE(domain.Run(ctx, Id(1)).ok());
  EXPECT_EQ(order, (std::vector<std::string>{"outer", "inner"}));
  EXPECT_EQ(domain.FindLayer("inner")->name(), "inner");
  EXPECT_EQ(domain.FindLayer("ghost"), nullptr);
}

TEST(PipelineDomainTest, CacheSplitsStackIntoSeenAndActualCalls) {
  // [above] → [cache] → [below] → echo: the layer above the cache sees
  // every call, the layer below only the ones the cache could not serve.
  auto echo = std::make_shared<EchoDomain>("echo");
  auto cim = std::make_shared<cim::CimDomain>("cim_echo", "echo", echo);
  auto above = std::make_shared<CountingInterceptor>("above");
  auto below = std::make_shared<CountingInterceptor>("below");
  PipelineDomain domain(
      "cim_echo",
      {above, std::make_shared<cim::CacheInterceptor>(cim), below}, echo);

  CallContext ctx;
  ASSERT_TRUE(domain.Run(ctx, Id(1)).ok());  // miss → actual call
  ASSERT_TRUE(domain.Run(ctx, Id(1)).ok());  // exact hit → served above
  ASSERT_TRUE(domain.Run(ctx, Id(2)).ok());  // miss → actual call

  EXPECT_EQ(above->calls, 3);
  EXPECT_EQ(below->calls, 2);
  EXPECT_EQ(echo->runs, 2);
  EXPECT_EQ(ctx.metrics.cache_hits, 1u);
  EXPECT_EQ(ctx.metrics.cache_misses, 2u);
}

// The cache layer emits no events: it leaves each lookup's outcome on the
// context, where the caller's call span picks it up (DomainCallOp puts it
// on the call's end event and the tracer derives the cache-lookup span).
TEST(PipelineDomainTest, TraceLayerSeesCacheHits) {
  auto echo = std::make_shared<EchoDomain>("echo");
  auto cim = std::make_shared<cim::CimDomain>("cim_echo", "echo", echo);
  PipelineDomain domain("cim_echo",
                        {std::make_shared<cim::CacheInterceptor>(cim)}, echo);

  obs::Tracer tracer;
  obs::EventSinks sinks{&tracer};
  CallContext ctx;
  ctx.sinks = &sinks;
  Result<CallOutput> miss = domain.Run(ctx, Id(1));
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(ctx.cache_lookup, obs::CacheLookup::kMiss);
  ctx.now_ms = 50.0;
  Result<CallOutput> hit = domain.Run(ctx, Id(1));
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(ctx.cache_lookup, obs::CacheLookup::kExactHit);
  EXPECT_FALSE(ctx.cache_degraded);
  EXPECT_LT(hit->all_ms, miss->all_ms);  // cache-hit latency
  EXPECT_TRUE(tracer.events().empty());
}

TEST(PipelineDomainTest, ContextlessRunUsesScratchContext) {
  auto echo = std::make_shared<EchoDomain>("echo");
  auto cim = std::make_shared<cim::CimDomain>("cim_echo", "echo", echo);
  PipelineDomain domain("cim_echo",
                        {std::make_shared<cim::CacheInterceptor>(cim)}, echo);
  Result<CallOutput> miss = domain.Run(Id(4));
  Result<CallOutput> hit = domain.Run(Id(4));
  ASSERT_TRUE(miss.ok() && hit.ok());
  EXPECT_EQ(miss->answers, hit->answers);
  EXPECT_LT(hit->all_ms, miss->all_ms);  // the cache state is still shared
  EXPECT_EQ(cim->stats().exact_hits, 1u);
}

TEST(PipelineDomainTest, CostModelFoldsThroughStack) {
  class ModeledDomain : public EchoDomain {
   public:
    using EchoDomain::EchoDomain;
    bool HasCostModel() const override { return true; }
    Result<CostVector> EstimateCost(
        const lang::DomainCallSpec& pattern) const override {
      (void)pattern;
      return CostVector(1.0, 2.0, 3.0);
    }
  };
  auto echo = std::make_shared<ModeledDomain>("echo");
  PipelineDomain plain("echo", {}, echo);
  EXPECT_TRUE(plain.HasCostModel());

  auto cim = std::make_shared<cim::CimDomain>("cim_echo", "echo", echo);
  PipelineDomain cached("cim_echo",
                        {std::make_shared<cim::CacheInterceptor>(cim)}, echo);
  EXPECT_FALSE(cached.HasCostModel());  // the cache layer hides the model
}

}  // namespace
}  // namespace hermes

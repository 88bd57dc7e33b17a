#include <gtest/gtest.h>

#include "domain/pipeline.h"
#include "lang/parser.h"
#include "net/network_interceptor.h"
#include "relational/relational_domain.h"
#include "testbed/scenario.h"

namespace hermes::net {
namespace {

/// `inner` behind a network layer over `link`, as the mediator wires a
/// remote domain.
PipelineDomain Remote(std::shared_ptr<Domain> inner,
                      std::shared_ptr<NetworkInterceptor> link) {
  std::string name = inner->name() + "@" + link->site().name;
  return PipelineDomain(std::move(name), {std::move(link)}, std::move(inner));
}

std::shared_ptr<NetworkInterceptor> Link(SiteParams site) {
  return std::make_shared<NetworkInterceptor>(
      std::move(site), std::make_shared<NetworkSimulator>(3));
}

TEST(RemoteEstimateTest, PassthroughAddsNetworkTime) {
  auto inner = std::make_shared<relational::RelationalDomain>(
      "ingres", testbed::MakeCastDatabase(), relational::RelationalCostParams{},
      /*provide_cost_model=*/true);
  SiteParams site = UsaSite();
  PipelineDomain remote = Remote(inner, Link(site));
  EXPECT_TRUE(remote.HasCostModel());

  Result<lang::DomainCallSpec> pattern =
      lang::Parser::ParseCallPattern("ingres:all('cast')");
  ASSERT_TRUE(pattern.ok());
  Result<CostVector> local = inner->EstimateCost(*pattern);
  Result<CostVector> wan = remote.EstimateCost(*pattern);
  ASSERT_TRUE(local.ok() && wan.ok());
  EXPECT_GT(wan->t_all_ms, local->t_all_ms + site.connect_ms);
  EXPECT_GT(wan->t_first_ms, local->t_first_ms + site.connect_ms);
  EXPECT_DOUBLE_EQ(wan->cardinality, local->cardinality);
}

TEST(RemoteEstimateTest, NoInnerModelMeansNoModel) {
  auto inner = std::make_shared<relational::RelationalDomain>(
      "ingres", testbed::MakeCastDatabase());
  PipelineDomain remote = Remote(inner, Link(UsaSite()));
  EXPECT_FALSE(remote.HasCostModel());
  Result<lang::DomainCallSpec> pattern =
      lang::Parser::ParseCallPattern("ingres:all('cast')");
  EXPECT_FALSE(remote.EstimateCost(*pattern).ok());
}

TEST(RemoteEstimateTest, MutableSiteInjectsFailures) {
  auto inner = std::make_shared<relational::RelationalDomain>(
      "ingres", testbed::MakeCastDatabase());
  std::shared_ptr<NetworkInterceptor> link = Link(UsaSite());
  PipelineDomain remote = Remote(inner, link);
  DomainCall call{"relation", "count", {Value::Str("cast")}};
  EXPECT_TRUE(remote.Run(call).ok());
  link->mutable_site().availability = 0.0;
  EXPECT_TRUE(remote.Run(call).status().IsUnavailable());
  link->mutable_site().availability = 1.0;
  EXPECT_TRUE(remote.Run(call).ok());
}

TEST(RemoteEstimateTest, FunctionsPassThrough) {
  auto inner = std::make_shared<relational::RelationalDomain>(
      "ingres", testbed::MakeCastDatabase());
  PipelineDomain remote = Remote(inner, Link(UsaSite()));
  EXPECT_EQ(remote.Functions().size(), inner->Functions().size());
}

}  // namespace
}  // namespace hermes::net

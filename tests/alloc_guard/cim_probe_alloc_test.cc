// The CIM's lookup (Section 4.1) copies only what it serves. An invariant
// scan matches each cache entry in place, so the number of entries it
// visits does not change how often it allocates; an exact hit copies its
// answers once and nothing else.

#include <gtest/gtest.h>

#include <memory>

#include "alloc_guard.h"
#include "avis/avis_domain.h"
#include "cim/cim.h"
#include "testbed/scenario.h"

namespace hermes::cim {
namespace {

constexpr const char* kFrameInvariants = R"(
  F2 <= F1 & L1 <= L2 =>
      video:frames_to_objects(V, F2, L2) >=
      video:frames_to_objects(V, F1, L1).
  L >= 130000 =>
      video:frames_to_objects('rope', F, L) =
      video:frames_to_objects('rope', F, 129999).
)";

DomainCall Window(int64_t first, int64_t last) {
  return DomainCall{"cim_video",
                    "frames_to_objects",
                    {Value::Str("rope"), Value::Int(first), Value::Int(last)}};
}

/// Stands in for the source where a lookup's own cost is measured.
Result<CallOutput> NoAnswers(const DomainCall&) { return CallOutput{}; }

std::unique_ptr<CimDomain> RopeCim(CimOptions options) {
  auto cim = std::make_unique<CimDomain>(
      "cim_video", "video",
      std::make_shared<avis::AvisDomain>("avis",
                                         testbed::MakeRopeVideoDatabase()),
      options, CimCostParams{}, /*cache_max_entries=*/128);
  EXPECT_TRUE(cim->AddInvariants(kFrameInvariants).ok());
  return cim;
}

/// Allocations of one lookup of [4, 47] over `entries` cached windows the
/// request does not contain: the ⊇ scan visits them all and matches none.
size_t ScanAllocations(int entries) {
  CimOptions options;
  options.cache_results = false;
  std::unique_ptr<CimDomain> cim = RopeCim(options);
  for (int i = 0; i < entries; ++i) {
    DomainCall call = Window(100 + 10 * i, 105 + 10 * i);
    call.domain = "video";
    cim->cache().Put(std::move(call),
                     AnswerSet{Value::Str("rupert"), Value::Str("brandon")});
  }
  const CimDomain::ActualCallFn stub = NoAnswers;
  const DomainCall request = Window(4, 47);
  CimOutcome outcome = CimOutcome::kExactHit;
  (void)cim->RunWith(request, stub, &outcome);  // warm this thread
  EXPECT_EQ(outcome, CimOutcome::kMiss);

  testing::AllocCounterScope scope;
  Result<CallOutput> out = cim->RunWith(request, stub, &outcome);
  const size_t allocations = scope.count();
  EXPECT_TRUE(out.ok());
  EXPECT_EQ(outcome, CimOutcome::kMiss);
  return allocations;
}

TEST(CimProbeAlloc, ScanAllocatesAlikeOverEightOr128Entries) {
  EXPECT_EQ(ScanAllocations(8), ScanAllocations(128));
}

TEST(CimProbeAlloc, ExactHitCopiesOnlyItsAnswers) {
  std::unique_ptr<CimDomain> cim = RopeCim(CimOptions{});
  const DomainCall request = Window(4, 127);
  const CimDomain::ActualCallFn stub = NoAnswers;
  CimOutcome outcome = CimOutcome::kMiss;
  ASSERT_TRUE(cim->Run(request).ok());  // the miss caches the answers
  Result<CallOutput> warm = cim->RunWith(request, stub, &outcome);
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(outcome, CimOutcome::kExactHit);
  ASSERT_GT(warm->answers.size(), 1u);

  size_t copy_allocations = 0;
  {
    testing::AllocCounterScope scope;
    AnswerSet copy = warm->answers;
    copy_allocations = scope.count();
  }
  testing::AllocCounterScope scope;
  Result<CallOutput> hit = cim->RunWith(request, stub, &outcome);
  const size_t hit_allocations = scope.count();
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(outcome, CimOutcome::kExactHit);
  EXPECT_EQ(hit->answers, warm->answers);
  EXPECT_LE(hit_allocations, copy_allocations);
}

}  // namespace
}  // namespace hermes::cim

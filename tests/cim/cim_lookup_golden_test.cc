// CIM lookup golden: a seeded stream of 360 calls through a 32-entry CIM
// over the local 'rope' video source, with the rope scenario's frame-range
// ⊇ and clamp-= invariants plus one invariant that names another domain.
// The stream mixes frames_to_objects windows that hit exactly, hit by ⊇,
// hit through the clamp equality from either side or miss, with
// object_to_frames and video_size calls. One line per call gives how the
// CIM resolved it, its answer count and its simulated first/all times at
// full precision; the last line gives the cache's counters. Regenerate
// after an intentional change to the CIM's answers or charges with:
//
//   HERMES_UPDATE_GOLDENS=1 ./tests/cim_cim_lookup_golden_test

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "avis/avis_domain.h"
#include "cim/cim.h"
#include "common/io.h"
#include "testbed/scenario.h"

namespace hermes::cim {
namespace {

constexpr const char* kInvariants = R"(
  F2 <= F1 & L1 <= L2 =>
      video:frames_to_objects(V, F2, L2) >=
      video:frames_to_objects(V, F1, L1).
  L >= 130000 =>
      video:frames_to_objects('rope', F, L) =
      video:frames_to_objects('rope', F, 129999).
  => other:frames_to_objects(V, F, L) = video:frames_to_objects(V, F, L).
)";

const char* OutcomeName(CimOutcome outcome) {
  switch (outcome) {
    case CimOutcome::kExactHit: return "exact";
    case CimOutcome::kEqualityHit: return "equality";
    case CimOutcome::kPartialHit: return "partial";
    case CimOutcome::kMiss: return "miss";
  }
  return "?";
}

/// The call stream. Draws use only mt19937_64's specified output (no
/// std::*_distribution), so the stream is the same on every platform.
std::vector<DomainCall> CallStream() {
  std::mt19937_64 rng(20);
  auto draw = [&rng](uint64_t n) { return static_cast<int64_t>(rng() % n); };
  const std::vector<std::string> objects = {
      "rupert", "brandon", "phillip", "janet", "mrs_wilson", "chest", "nobody"};
  const std::vector<int64_t> tail_starts = {0, 4, 120, 2000, 9000, 125000};
  std::vector<std::pair<int64_t, int64_t>> issued;
  auto window = [](int64_t first, int64_t last) {
    return DomainCall{"cim_video",
                      "frames_to_objects",
                      {Value::Str("rope"), Value::Int(first),
                       Value::Int(last)}};
  };

  std::vector<DomainCall> calls;
  for (int i = 0; i < 360; ++i) {
    const int64_t kind = draw(100);
    int64_t first = 0;
    int64_t last = 0;
    if (kind < 45 && !issued.empty()) {
      const auto [f, l] = issued[static_cast<size_t>(
          draw(static_cast<uint64_t>(issued.size())))];
      if (kind < 20) {  // the same window again
        first = f;
        last = l;
      } else if (kind < 35) {  // a wider window around it
        first = std::max<int64_t>(0, f - draw(60));
        last = l + 1 + draw(400);
      } else {  // a narrower window inside it
        first = f + (l - f) / 4;
        last = std::max(first, l - (l - f) / 4);
      }
    } else if (kind < 60) {  // a window running to or past the last frame
      first = tail_starts[static_cast<size_t>(draw(tail_starts.size()))];
      last = draw(2) == 0 ? 129999 : 130000 + draw(5000);
    } else if (kind < 75) {  // a fresh window
      first = draw(9000);
      last = first + 20 + draw(4000);
    } else if (kind < 90) {
      calls.push_back(DomainCall{
          "cim_video",
          "object_to_frames",
          {Value::Str("rope"),
           Value::Str(objects[static_cast<size_t>(draw(objects.size()))])}});
      continue;
    } else {
      calls.push_back(
          DomainCall{"cim_video", "video_size", {Value::Str("rope")}});
      continue;
    }
    issued.emplace_back(first, last);
    calls.push_back(window(first, last));
  }
  return calls;
}

TEST(CimLookupGolden, SeededStreamMatchesGolden) {
  auto source = std::make_shared<avis::AvisDomain>(
      "avis", testbed::MakeRopeVideoDatabase());
  CimDomain cim("cim_video", "video", source, CimOptions{}, CimCostParams{},
                /*cache_max_entries=*/32);
  ASSERT_TRUE(cim.AddInvariants(kInvariants).ok());
  const CimDomain::ActualCallFn actual = [&source](const DomainCall& call) {
    return source->Run(call);
  };

  std::string out;
  char buf[256];
  int i = 0;
  for (const DomainCall& call : CallStream()) {
    CimOutcome outcome = CimOutcome::kMiss;
    Result<CallOutput> res = cim.RunWith(call, actual, &outcome);
    ASSERT_TRUE(res.ok()) << call.ToString() << ": " << res.status();
    std::snprintf(buf, sizeof(buf),
                  "%3d %s %s answers=%zu first_ms=%.17g all_ms=%.17g\n", i++,
                  call.ToString().c_str(), OutcomeName(outcome),
                  res->answers.size(), res->first_ms, res->all_ms);
    out += buf;
  }
  const ResultCacheStats cache = cim.cache().stats();
  const CimStats stats = cim.stats();
  std::snprintf(buf, sizeof(buf),
                "cache hits=%llu misses=%llu insertions=%llu evictions=%llu\n"
                "cim exact=%llu equality=%llu partial=%llu misses=%llu\n",
                static_cast<unsigned long long>(cache.hits),
                static_cast<unsigned long long>(cache.misses),
                static_cast<unsigned long long>(cache.insertions),
                static_cast<unsigned long long>(cache.evictions),
                static_cast<unsigned long long>(stats.exact_hits),
                static_cast<unsigned long long>(stats.equality_hits),
                static_cast<unsigned long long>(stats.partial_hits),
                static_cast<unsigned long long>(stats.misses));
  out += buf;

  const std::string path =
      std::string(HERMES_TEST_SRCDIR) + "/golden/cim_lookups.txt";
  if (std::getenv("HERMES_UPDATE_GOLDENS") != nullptr) {
    ASSERT_TRUE(WriteStringToFile(path, out).ok());
    GTEST_SKIP() << "golden updated: " << path;
  }
  Result<std::string> expected = ReadFileToString(path);
  ASSERT_TRUE(expected.ok()) << "missing golden " << path
                             << " (run with HERMES_UPDATE_GOLDENS=1)";
  EXPECT_EQ(*expected, out) << "CIM lookups drifted from " << path
                            << "; regenerate with HERMES_UPDATE_GOLDENS=1 "
                               "if the change is intentional";
}

}  // namespace
}  // namespace hermes::cim

#include <gtest/gtest.h>

#include <string>

#include "domain/pipeline.h"

namespace hermes {
namespace {

// Drift-proofing (see the mirror static_assert in pipeline.cc): Merge is
// generated from the same field-list macros this test walks, so a field
// that exists in CallMetrics but not in the macros fails compilation, and
// a macro entry that Merge mishandles fails here.
TEST(CallMetrics, MergeAddsEveryListedField) {
  CallMetrics a, b;
  uint64_t seed = 1;
#define HERMES_FIELD(f) \
  a.f = seed;           \
  b.f = 10 * seed;      \
  seed += 1;
  HERMES_CALL_METRICS_UINT64_FIELDS(HERMES_FIELD)
#undef HERMES_FIELD
  double dseed = 0.5;
#define HERMES_FIELD(f) \
  a.f = dseed;          \
  b.f = 10.0 * dseed;   \
  dseed += 0.25;
  HERMES_CALL_METRICS_DOUBLE_FIELDS(HERMES_FIELD)
#undef HERMES_FIELD

  a.Merge(b);

  seed = 1;
#define HERMES_FIELD(f)                        \
  EXPECT_EQ(a.f, seed + 10 * seed) << #f;      \
  seed += 1;
  HERMES_CALL_METRICS_UINT64_FIELDS(HERMES_FIELD)
#undef HERMES_FIELD
  dseed = 0.5;
#define HERMES_FIELD(f)                                   \
  EXPECT_DOUBLE_EQ(a.f, dseed + 10.0 * dseed) << #f;      \
  dseed += 0.25;
  HERMES_CALL_METRICS_DOUBLE_FIELDS(HERMES_FIELD)
#undef HERMES_FIELD
}

TEST(CallMetrics, MergeOntoDefaultEqualsSource) {
  CallMetrics a, b;
  b.domain_calls = 3;
  b.cache_hits = 2;
  b.network_ms = 12.5;
  a.Merge(b);
  EXPECT_EQ(a.domain_calls, 3u);
  EXPECT_EQ(a.cache_hits, 2u);
  EXPECT_DOUBLE_EQ(a.network_ms, 12.5);
  EXPECT_EQ(a.remote_calls, 0u);
}

TEST(SourceError, ToStringFlattensMultiLineErrors) {
  SourceError err;
  err.domain = "video";
  err.function = "frames_to_objects";
  err.t_ms = 12.5;
  err.message = "line one\nline two\r\nline three";

  std::string s = err.ToString();
  EXPECT_EQ(s.find('\n'), std::string::npos);
  EXPECT_EQ(s.find('\r'), std::string::npos);
  EXPECT_NE(s.find("line one\\nline two\\r\\nline three"), std::string::npos);
  EXPECT_NE(s.find("LOST"), std::string::npos);
}

TEST(SourceError, ToStringStaysSortableByLeadingTimestamp) {
  SourceError early, late;
  early.domain = "d";
  early.function = "f";
  early.t_ms = 5.0;
  early.message = "broken\npipe";
  late = early;
  late.t_ms = 105.0;
  late.masked = true;

  std::string a = early.ToString();
  std::string b = late.ToString();
  // Fixed-width "t=%9.1fms" prefix: lexical order == chronological order,
  // and flattening keeps each entry on one physical line.
  EXPECT_EQ(a.rfind("t=", 0), 0u);
  EXPECT_EQ(b.rfind("t=", 0), 0u);
  EXPECT_LT(a.substr(0, 13), b.substr(0, 13));
}

}  // namespace
}  // namespace hermes

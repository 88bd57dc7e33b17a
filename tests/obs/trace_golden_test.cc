// Trace-equivalence golden: the span tree of the fig5 `--trace-out` run
// (rope scenario, optimizer off, appendix query 3 cold then warm), one line
// per span with its track, name, category, simulated start and duration
// (trace µs), failure flag and every argument. Host wall-clock values are
// left out: they differ on every run. Regenerate after an intentional
// change to the trace with:
//
//   HERMES_UPDATE_GOLDENS=1 ./tests/obs_trace_golden_test

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/io.h"
#include "engine/mediator.h"
#include "obs/trace.h"
#include "testbed/scenario.h"

namespace hermes {
namespace {

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string SpanLines(const obs::Tracer& tracer) {
  std::string out;
  for (const obs::Span& span : tracer.spans()) {
    out += "q" + std::to_string(tracer.query_id()) + " " + span.name +
           " cat=" + span.category + " ts=" + Num(span.sim_begin_ms * 1000.0) +
           " dur=" +
           Num(std::max(span.sim_end_ms - span.sim_begin_ms, 0.0) * 1000.0) +
           " failed=" + (span.failed ? "true" : "false");
    for (const auto& [key, value] : span.args) {
      if (key.rfind("wall_", 0) == 0) continue;
      out += " " + key + "=" + value;
    }
    out += "\n";
  }
  return out;
}

TEST(TraceGolden, Query3ColdThenWarmMatchesGolden) {
  Mediator med;
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, {}).ok());
  QueryOptions options;
  options.use_optimizer = false;
  const std::string query = testbed::AppendixQuery(3, false, 4, 47);
  obs::Tracer cold, warm;
  options.tracer = &cold;
  ASSERT_TRUE(med.Query(query, options).ok());
  options.tracer = &warm;
  ASSERT_TRUE(med.Query(query, options).ok());
  const std::string actual = SpanLines(cold) + SpanLines(warm);

  const std::string path =
      std::string(HERMES_TEST_SRCDIR) + "/golden/trace_query3_cold_warm.txt";
  if (std::getenv("HERMES_UPDATE_GOLDENS") != nullptr) {
    ASSERT_TRUE(WriteStringToFile(path, actual).ok());
    GTEST_SKIP() << "golden updated: " << path;
  }
  Result<std::string> expected = ReadFileToString(path);
  ASSERT_TRUE(expected.ok()) << "missing golden " << path
                             << " (run with HERMES_UPDATE_GOLDENS=1)";
  EXPECT_EQ(*expected, actual) << "trace drifted from " << path
                               << "; regenerate with HERMES_UPDATE_GOLDENS=1 "
                                  "if the change is intentional";
}

}  // namespace
}  // namespace hermes

// A DomainCallOp is stamped with its call site's DCSM estimate when it is
// built. The DCSM reads the goal's own spec through a view (its variables
// read as `$b`) and probes its summary tables, its raw group and a `cim_`
// domain's fallback to the wrapped domain in place, and tags where the
// answer came from without building text, so a stamp allocates nothing.

#include <gtest/gtest.h>

#include <string>

#include "alloc_guard.h"
#include "dcsm/dcsm.h"
#include "engine/op/domain_call_op.h"
#include "lang/parser.h"

namespace hermes::engine::op {
namespace {

/// The query3 call sites as a CIM-redirected plan issues them.
constexpr const char* kFrames =
    "?- in(O, cim_video:frames_to_objects('rope', F, L)).";
constexpr const char* kCast = "?- in(T, cim_relation:equal('cast', role, O)).";

lang::Query Goal(const char* text) {
  Result<lang::Query> query = lang::Parser::ParseQuery(text);
  EXPECT_TRUE(query.ok()) << query.status();
  EXPECT_EQ(query->goals.size(), 1u);
  return *query;
}

struct Stamp {
  size_t allocations = 0;
  std::string source;
};

/// Heap allocations made building a stamped op for `goal` against `dcsm`,
/// after one build that warms this thread.
Stamp Build(const lang::Atom& goal, const dcsm::Dcsm& dcsm) {
  { DomainCallOp warm(&goal, &dcsm); }
  Stamp stamp;
  testing::AllocCounterScope scope;
  DomainCallOp op(&goal, &dcsm);
  stamp.allocations = scope.count();
  EXPECT_TRUE(op.estimate().has_value() && op.estimate()->answer.has_value());
  if (op.estimate().has_value() && op.estimate()->answer.has_value()) {
    stamp.source = op.estimate()->answer->source.ToString(goal.call.domain);
  }
  return stamp;
}

/// A DCSM with statistics for both call groups and a summary per group
/// that retains the call sites' constant positions, so each stamp is one
/// exact summary probe.
void Summarize(dcsm::Dcsm* dcsm) {
  for (int64_t first = 0; first < 40; first += 4) {
    dcsm->RecordExecution(
        DomainCall{"cim_video",
                   "frames_to_objects",
                   {Value::Str("rope"), Value::Int(first),
                    Value::Int(first + 40)}},
        CostVector(0.3, 0.35, 7.0));
  }
  for (const char* object : {"gun", "rope", "chest"}) {
    dcsm->RecordExecution(
        DomainCall{"cim_relation",
                   "equal",
                   {Value::Str("cast"), Value::Str("role"),
                    Value::Str(object)}},
        CostVector(0.3, 0.35, 1.0));
  }
  ASSERT_TRUE(
      dcsm->BuildSummary({"cim_video", "frames_to_objects", 3}, {0}).ok());
  ASSERT_TRUE(dcsm->BuildSummary({"cim_relation", "equal", 3}, {0, 1}).ok());
}

TEST(EstimateStampAlloc, StampAgainstAnEmptyDcsmAllocatesNothing) {
  const dcsm::Dcsm empty;
  for (const char* text : {kFrames, kCast}) {
    const lang::Query query = Goal(text);
    const Stamp stamp = Build(query.goals[0], empty);
    EXPECT_EQ(stamp.source, "default") << text;
    EXPECT_EQ(stamp.allocations, 0u) << text;
  }
}

TEST(EstimateStampAlloc, StampFromASummaryAllocatesNothing) {
  dcsm::Dcsm summarized;
  Summarize(&summarized);
  for (const char* text : {kFrames, kCast}) {
    const lang::Query query = Goal(text);
    const Stamp stamp = Build(query.goals[0], summarized);
    EXPECT_EQ(stamp.source, "summary") << text;
    EXPECT_EQ(stamp.allocations, 0u) << text;
  }
}

TEST(EstimateStampAlloc, FallbackStampAllocatesNothing) {
  // Statistics recorded only under the wrapped domain answer a cim_video
  // stamp through the DCSM's fallback: first from the raw group, then from
  // a summary of it.
  dcsm::Dcsm fallback;
  for (int64_t first = 0; first < 40; first += 4) {
    fallback.RecordExecution(
        DomainCall{"video",
                   "frames_to_objects",
                   {Value::Str("rope"), Value::Int(first),
                    Value::Int(first + 40)}},
        CostVector(900.0, 1200.0, 7.0));
  }
  const lang::Query query = Goal(kFrames);
  const Stamp raw = Build(query.goals[0], fallback);
  EXPECT_EQ(raw.source, "raw+cim-fallback");
  EXPECT_EQ(raw.allocations, 0u);

  ASSERT_TRUE(
      fallback.BuildSummary({"video", "frames_to_objects", 3}, {0}).ok());
  const Stamp summary = Build(query.goals[0], fallback);
  EXPECT_EQ(summary.source, "summary+cim-fallback");
  EXPECT_EQ(summary.allocations, 0u);
}

}  // namespace
}  // namespace hermes::engine::op

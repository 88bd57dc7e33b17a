#include "obs/trace.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "domain/pipeline.h"

namespace hermes::obs {
namespace {

using Kind = FlightEventKind;

/// A context whose events go to `tracer`, the way Mediator::Query wires a
/// caller's tracer.
struct Traced {
  explicit Traced(Tracer* tracer, uint64_t query_id = 7) {
    sinks.tracer = tracer;
    ctx.query_id = query_id;
    ctx.sinks = &sinks;
  }
  EventSinks sinks;
  CallContext ctx;
};

FlightEvent Call(const char* domain, const char* function, double sim_ms) {
  return FlightEvent::At(Kind::kCallIssued, sim_ms)
      .set_domain(domain)
      .set_detail(function);
}

TEST(Tracer, SpansNestUnderInnermostOpenSpan) {
  Tracer tracer;
  Traced t(&tracer);
  uint32_t root = t.ctx.Emit(FlightEvent::At(Kind::kQueryStart, 0.0));
  uint32_t call = t.ctx.Emit(Call("video", "fto", 10.0));
  uint32_t hop = t.ctx.Emit(FlightEvent::At(Kind::kNetworkHopBegin, 10.0));
  t.ctx.Emit(FlightEvent::End(Kind::kNetworkHopEnd, hop, 40.0));
  t.ctx.Emit(FlightEvent::End(Kind::kCallCompleted, call, 50.0));
  uint32_t sibling = t.ctx.Emit(Call("text", "search", 50.0));
  t.ctx.Emit(FlightEvent::End(Kind::kCallCompleted, sibling, 60.0));
  t.ctx.Emit(FlightEvent::End(Kind::kQueryEnd, root, 60.0));

  std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].name, "call:video:fto");
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[2].parent, spans[1].id);
  // A span begun after `call` closed is a child of the root, not of `call`.
  EXPECT_EQ(spans[3].parent, spans[0].id);
}

TEST(Tracer, ParentEndCoversChildren) {
  Tracer tracer;
  Traced t(&tracer);
  uint32_t parent = t.ctx.Emit(Call("d", "f", 0.0));
  uint32_t child = t.ctx.Emit(FlightEvent::At(Kind::kNetworkHopBegin, 0.0));
  // e.g. an unavailability penalty
  t.ctx.Emit(FlightEvent::End(Kind::kNetworkHopEnd, child, 120.0));
  // failure path reports a short envelope
  t.ctx.Emit(FlightEvent::End(Kind::kCallFailed, parent, 5.0));
  EXPECT_DOUBLE_EQ(tracer.spans()[0].sim_end_ms, 120.0);
}

TEST(Tracer, EndSpanIsIdempotentAndOnlyExtends) {
  Tracer tracer;
  Traced t(&tracer);
  uint32_t id = t.ctx.Emit(FlightEvent::At(Kind::kQueryStart, 10.0));
  t.ctx.Emit(FlightEvent::End(Kind::kQueryEnd, id, 30.0));
  // An earlier end does not shrink the span.
  t.ctx.Emit(FlightEvent::End(Kind::kQueryEnd, id, 20.0));
  EXPECT_DOUBLE_EQ(tracer.spans()[0].sim_end_ms, 30.0);
  // A later end still extends.
  t.ctx.Emit(FlightEvent::End(Kind::kQueryEnd, id, 45.0));
  EXPECT_DOUBLE_EQ(tracer.spans()[0].sim_end_ms, 45.0);
  EXPECT_EQ(tracer.spans().size(), 1u);
}

TEST(Tracer, MarkFailedRecordsError) {
  Tracer tracer;
  Traced t(&tracer);
  uint32_t id = t.ctx.Emit(Call("d", "f", 0.0));
  t.ctx.Emit(FlightEvent::End(Kind::kCallFailed, id, 1.0)
                 .set_failed("site down"));
  std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 1u);  // no outcome, no cache-lookup span
  EXPECT_TRUE(spans[0].failed);
  ASSERT_EQ(spans[0].args.size(), 1u);
  EXPECT_EQ(spans[0].args[0].first, "error");
  EXPECT_EQ(spans[0].args[0].second, "site down");
}

/// The end event of the call opened by `call`, carrying its CIM outcome.
FlightEvent CallEnd(uint32_t call, double sim_ms, CacheLookup outcome) {
  FlightEvent ev = FlightEvent::End(Kind::kCallCompleted, call, sim_ms);
  ev.cache = outcome;
  return ev;
}

using Args = std::vector<std::pair<std::string, std::string>>;

// A CIM call emits only its call span's two events; the tracer derives the
// lookup span inside it, with the call's bounds on both clocks.
TEST(Tracer, DerivedLookupOfAnExactHitTakesItsCallsBounds) {
  Tracer tracer;
  Traced t(&tracer);
  FlightEvent issued = Call("cim_video", "fto", 50.0);
  issued.host_ns = 1000;
  uint32_t call = t.ctx.Emit(issued);
  FlightEvent end = CallEnd(call, 50.35, CacheLookup::kExactHit);
  end.aux = 3;
  end.host_ns = 4000;
  t.ctx.Emit(end);

  std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "call:cim_video:fto");
  EXPECT_EQ(spans[0].args, (Args{{"answers", "3"}}));
  const Span& lookup = spans[1];
  EXPECT_EQ(lookup.name, "cache-lookup");
  EXPECT_EQ(lookup.category, "cache");
  EXPECT_EQ(lookup.parent, spans[0].id);
  EXPECT_TRUE(lookup.closed);
  EXPECT_FALSE(lookup.failed);
  EXPECT_EQ(lookup.sim_begin_ms, spans[0].sim_begin_ms);
  EXPECT_EQ(lookup.sim_end_ms, spans[0].sim_end_ms);
  EXPECT_DOUBLE_EQ(lookup.sim_end_ms, 50.35);
  EXPECT_EQ(lookup.wall_begin_us, spans[0].wall_begin_us);
  EXPECT_EQ(lookup.wall_end_us, spans[0].wall_end_us);
  EXPECT_DOUBLE_EQ(lookup.wall_end_us - lookup.wall_begin_us, 3.0);
  EXPECT_EQ(lookup.args, (Args{{"outcome", "exact-hit"}}));
}

// A miss goes on to the source: the network hop below the cache layer
// nests in the derived lookup span, not beside it.
TEST(Tracer, DerivedLookupOfAMissParentsTheNetworkHop) {
  Tracer tracer;
  Traced t(&tracer);
  uint32_t root = t.ctx.Emit(FlightEvent::At(Kind::kQueryStart, 0.0));
  uint32_t call = t.ctx.Emit(Call("cim_video", "fto", 10.0));
  uint32_t hop = t.ctx.Emit(
      FlightEvent::At(Kind::kNetworkHopBegin, 10.0).set_site("umd"));
  FlightEvent hop_end = FlightEvent::End(Kind::kNetworkHopEnd, hop, 40.0);
  hop_end.aux = 56;
  t.ctx.Emit(hop_end);
  t.ctx.Emit(CallEnd(call, 50.0, CacheLookup::kMiss));
  uint32_t next = t.ctx.Emit(Call("text", "search", 50.0));
  t.ctx.Emit(FlightEvent::End(Kind::kCallCompleted, next, 60.0));
  t.ctx.Emit(FlightEvent::End(Kind::kQueryEnd, root, 60.0));

  std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 5u);
  EXPECT_EQ(spans[2].name, "cache-lookup");
  EXPECT_EQ(spans[2].parent, spans[1].id);
  EXPECT_EQ(spans[2].args, (Args{{"outcome", "miss"}}));
  EXPECT_DOUBLE_EQ(spans[2].sim_begin_ms, 10.0);
  EXPECT_DOUBLE_EQ(spans[2].sim_end_ms, 50.0);
  EXPECT_EQ(spans[3].name, "network-hop");
  EXPECT_EQ(spans[3].parent, spans[2].id);
  EXPECT_EQ(spans[3].args, (Args{{"site", "umd"}, {"bytes", "56"}}));
  // The next call opens beside the first, under the query, with no lookup.
  EXPECT_EQ(spans[4].name, "call:text:search");
  EXPECT_EQ(spans[4].parent, spans[0].id);
}

// A lookup that failed — the source was lost and nothing cached stood in —
// keeps its outcome beside the call's cause and site.
TEST(Tracer, DerivedLookupOfAFailedCallCarriesOutcomeAndError) {
  Tracer tracer;
  Traced t(&tracer);
  uint32_t call = t.ctx.Emit(Call("cim_video", "fto", 0.0));
  uint32_t hop = t.ctx.Emit(FlightEvent::At(Kind::kNetworkHopBegin, 0.0));
  t.ctx.Emit(FlightEvent::End(Kind::kNetworkHopEnd, hop, 120.0)
                 .set_failed("outage", "umd"));
  FlightEvent end = FlightEvent::End(Kind::kCallFailed, call, 5.0);
  end.set_failed("outage", "umd");
  end.cache = CacheLookup::kMiss;
  t.ctx.Emit(end);

  std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_TRUE(spans[0].failed);
  EXPECT_EQ(spans[0].args, (Args{{"error", "outage"}, {"site", "umd"}}));
  const Span& lookup = spans[1];
  EXPECT_EQ(lookup.name, "cache-lookup");
  EXPECT_TRUE(lookup.failed);
  EXPECT_EQ(lookup.args, (Args{{"outcome", "miss"},
                               {"error", "outage"},
                               {"site", "umd"}}));
  // Both cover the penalty the hop charged past the call's short envelope.
  EXPECT_DOUBLE_EQ(lookup.sim_end_ms, 120.0);
  EXPECT_DOUBLE_EQ(spans[0].sim_end_ms, 120.0);
  EXPECT_EQ(spans[2].parent, lookup.id);
}

// Cached answers that stood in for an unreachable source mark the lookup
// degraded; the call itself still completes.
TEST(Tracer, DerivedLookupOfADegradedServeIsMarkedDegraded) {
  Tracer tracer;
  Traced t(&tracer);
  uint32_t call = t.ctx.Emit(Call("cim_video", "fto", 0.0));
  FlightEvent end = CallEnd(call, 2.0, CacheLookup::kPartialHit);
  end.degraded = true;
  end.aux = 4;
  t.ctx.Emit(end);

  std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_FALSE(spans[0].failed);
  EXPECT_EQ(spans[0].args, (Args{{"answers", "4"}}));
  EXPECT_FALSE(spans[1].failed);
  EXPECT_EQ(spans[1].args,
            (Args{{"outcome", "partial-hit"}, {"degraded", "true"}}));
}

TEST(Tracer, ChromeJsonShape) {
  Tracer tracer;
  tracer.set_query_text("?- actors(A).");
  Traced t(&tracer, /*query_id=*/3);
  uint32_t root = t.ctx.Emit(FlightEvent::At(Kind::kQueryStart, 0.0));
  uint32_t call = t.ctx.Emit(Call("video", "fto", 5.0));
  t.ctx.Emit(FlightEvent::End(Kind::kCallCompleted, call, 25.0));
  t.ctx.Emit(FlightEvent::End(Kind::kQueryEnd, root, 25.0));

  std::string json = tracer.ToChromeJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // Metadata events name the process and the query track.
  EXPECT_NE(json.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"query 3\""), std::string::npos);
  // Complete events: sim ms rendered as trace µs, per-query tid.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":5000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":20000"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":3"), std::string::npos);
  EXPECT_NE(json.find("\"text\":\"?- actors(A).\""), std::string::npos);
}

/// Records one query span from 0 to `end_ms` into `tracer`.
void QuerySpan(Tracer* tracer, uint64_t query_id, double end_ms) {
  Traced t(tracer, query_id);
  uint32_t root = t.ctx.Emit(FlightEvent::At(Kind::kQueryStart, 0.0));
  t.ctx.Emit(FlightEvent::End(Kind::kQueryEnd, root, end_ms));
}

TEST(Tracer, MergedExportRendersEachQueryAsOwnTrack) {
  Tracer cold, warm;
  QuerySpan(&cold, 1, 100.0);
  QuerySpan(&warm, 2, 10.0);
  std::string json = ChromeTraceJson({&cold, &warm, nullptr});
  EXPECT_NE(json.find("\"name\":\"query 1\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"query 2\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":2"), std::string::npos);
}

TEST(Tracer, EmptyMergeRendersMinimalValidDocument) {
  // Regression: a merge with no spans used to emit a trailing comma after
  // the (absent) last event, which Chrome and json.load both reject.
  const std::string want = "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}";
  EXPECT_EQ(ChromeTraceJson({}), want);
  EXPECT_EQ(ChromeTraceJson({nullptr}), want);
  Tracer empty;
  EXPECT_EQ(ChromeTraceJson({&empty}), want);
  EXPECT_EQ(ChromeTraceJson({nullptr, &empty, nullptr}), want);
}

TEST(Tracer, EmptyTracersContributeNoMetadataToMixedMerges) {
  Tracer used, unused;
  QuerySpan(&used, 1, 10.0);
  std::string json = ChromeTraceJson({&used, &unused});
  EXPECT_NE(json.find("\"name\":\"query 1\""), std::string::npos);
  // The span-less tracer must not leave an orphan track behind.
  EXPECT_EQ(json.find("\"name\":\"query 2\""), std::string::npos);
  EXPECT_EQ(json, ChromeTraceJson({&used}));
}

TEST(Tracer, EmitClosesSpansAndToleratesMissingSinks) {
  CallContext ctx;
  ctx.query_id = 5;
  // Nobody listening: nothing is numbered or recorded.
  EXPECT_FALSE(ctx.observed());
  EXPECT_EQ(ctx.Emit(Call("d", "f", 0.0)), 0u);
  EXPECT_EQ(ctx.event_seq, 0u);

  Tracer tracer;
  FlightRecorder ring(16);
  EventSinks sinks{&tracer, &ring};
  ctx.sinks = &sinks;
  uint32_t call = ctx.Emit(Call("d", "f", 10.0));
  FlightEvent end = FlightEvent::End(Kind::kCallCompleted, call, 42.0);
  end.aux = 9;
  ctx.Emit(end);

  // Both sinks see the same stamped stream.
  ASSERT_EQ(tracer.events().size(), 2u);
  EXPECT_EQ(tracer.events(), ring.SnapshotQuery(5));
  EXPECT_EQ(tracer.query_id(), 5u);
  EXPECT_EQ(tracer.events()[0].seq, 1u);
  EXPECT_EQ(tracer.events()[1].seq, 2u);
  EXPECT_EQ(tracer.events()[1].begin_seq, 1u);
  EXPECT_GT(tracer.events()[0].host_ns, 0u);

  std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_TRUE(spans[0].closed);
  EXPECT_DOUBLE_EQ(spans[0].sim_end_ms, 42.0);
  ASSERT_EQ(spans[0].args.size(), 1u);
  EXPECT_EQ(spans[0].args[0].second, "9");
}

TEST(Tracer, RingSuffixKeepsOnlySpansWhoseBeginIsResident) {
  // A query that outran its ring: the view derived from the resident
  // suffix drops the spans whose begin event was overwritten.
  FlightRecorder ring(/*ring_capacity=*/4);
  EventSinks sinks{nullptr, &ring};
  CallContext ctx;
  ctx.query_id = 8;
  ctx.sinks = &sinks;
  uint32_t root = ctx.Emit(FlightEvent::At(Kind::kQueryStart, 0.0));
  uint32_t first = ctx.Emit(Call("d", "f", 0.0));
  ctx.Emit(FlightEvent::End(Kind::kCallCompleted, first, 10.0));
  uint32_t second = ctx.Emit(Call("d", "g", 10.0));
  ctx.Emit(FlightEvent::End(Kind::kCallCompleted, second, 20.0));
  ctx.Emit(FlightEvent::End(Kind::kQueryEnd, root, 20.0));

  Tracer view;
  for (const FlightEvent& ev : ring.SnapshotQuery(8)) view.Append(ev);
  ASSERT_EQ(view.events().size(), 4u);
  std::vector<Span> spans = view.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "call:d:g");
  EXPECT_TRUE(spans[0].closed);
  EXPECT_EQ(spans[0].parent, 0u);
}

}  // namespace
}  // namespace hermes::obs

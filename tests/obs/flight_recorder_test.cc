#include "obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace hermes::obs {
namespace {

FlightEvent Event(uint64_t query_id, uint32_t seq, double sim_ms,
                  FlightEventKind kind = FlightEventKind::kCallIssued) {
  FlightEvent ev = FlightEvent::At(kind, sim_ms);
  ev.query_id = query_id;
  ev.seq = seq;
  return ev;
}

TEST(FlightEvent, TruncatesOverlongStringsInsteadOfOverflowing) {
  FlightEvent ev = Event(1, 0, 0.0);
  std::string long_name(100, 'x');
  ev.set_site(long_name);
  ev.set_domain(long_name);
  ev.set_detail(long_name);
  EXPECT_EQ(ev.site_str().size(), FlightEvent::kSiteChars - 1);
  EXPECT_EQ(ev.domain_str().size(), FlightEvent::kDomainChars - 1);
  EXPECT_EQ(ev.detail_str().size(), FlightEvent::kDetailChars - 1);
  EXPECT_EQ(ev.site_str(), std::string(FlightEvent::kSiteChars - 1, 'x'));
}

TEST(FlightEvent, JsonCarriesEveryField) {
  FlightEvent ev = Event(42, 7, 123.5, FlightEventKind::kRetryWaitEnd);
  ev.set_site("umd");
  ev.set_domain("video");
  ev.set_detail("flaky");
  ev.value = 250.0;
  ev.aux = 2;
  std::string json = ev.ToJson();
  EXPECT_NE(json.find("\"query_id\":42"), std::string::npos);
  EXPECT_NE(json.find("\"seq\":7"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"retry_wait_end\""), std::string::npos);
  EXPECT_NE(json.find("\"site\":\"umd\""), std::string::npos);
  EXPECT_NE(json.find("\"domain\":\"video\""), std::string::npos);
  EXPECT_NE(json.find("\"detail\":\"flaky\""), std::string::npos);
  EXPECT_NE(json.find("\"aux\":2"), std::string::npos);
}

TEST(FlightRecorder, RingWrapsOverwritingOldestAndCountsDrops) {
  FlightRecorder recorder(/*ring_capacity=*/4);
  for (uint32_t i = 0; i < 10; ++i) {
    recorder.Emit(Event(1, i, static_cast<double>(i)));
  }
  EXPECT_EQ(recorder.ring_count(), 1u);
  EXPECT_EQ(recorder.total_events(), 10u);
  EXPECT_EQ(recorder.dropped_events(), 6u);
  std::vector<FlightEvent> events = recorder.SnapshotQuery(1);
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 6u + i);  // the oldest six were overwritten
  }
}

TEST(FlightRecorder, SnapshotQueryFiltersByQueryId) {
  FlightRecorder recorder(16);
  recorder.Emit(Event(1, 0, 0.0));
  recorder.Emit(Event(2, 0, 1.0));
  recorder.Emit(Event(1, 1, 2.0));
  recorder.Emit(Event(2, 1, 3.0));
  std::vector<FlightEvent> q1 = recorder.SnapshotQuery(1);
  ASSERT_EQ(q1.size(), 2u);
  EXPECT_EQ(q1[0].seq, 0u);
  EXPECT_EQ(q1[1].seq, 1u);
  EXPECT_TRUE(recorder.SnapshotQuery(99).empty());
}

TEST(FlightRecorder, SnapshotAllOrdersBySimTimeThenQueryThenSeq) {
  FlightRecorder recorder(16);
  recorder.Emit(Event(2, 0, 5.0));
  recorder.Emit(Event(1, 0, 5.0));
  recorder.Emit(Event(1, 1, 1.0));
  std::vector<FlightEvent> all = recorder.SnapshotAll();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_DOUBLE_EQ(all[0].sim_ms, 1.0);
  EXPECT_EQ(all[1].query_id, 1u);
  EXPECT_EQ(all[2].query_id, 2u);
}

TEST(FlightRecorder, BindMetricsExportsTotalsAndDrops) {
  FlightRecorder recorder(2);
  MetricsRegistry registry;
  recorder.BindMetrics(registry);
  for (uint32_t i = 0; i < 5; ++i) recorder.Emit(Event(1, i, 0.0));
  std::string prom = registry.ExposePrometheus();
  EXPECT_NE(prom.find("hermes_flight_events_total 5"), std::string::npos);
  EXPECT_NE(prom.find("hermes_flight_events_dropped_total 3"),
            std::string::npos);
}

// Eight writers, one ring each: no event is lost or torn (every snapshot
// field agrees with what the owning thread wrote). CI runs this binary
// under TSan, which also vets snapshot-vs-emit races.
TEST(FlightRecorder, ConcurrentWritersKeepRingsIndependent) {
  constexpr size_t kThreads = 8;
  constexpr uint32_t kPerThread = 2000;
  FlightRecorder recorder(/*ring_capacity=*/4096);
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&recorder, t] {
      for (uint32_t i = 0; i < kPerThread; ++i) {
        FlightEvent ev = Event(100 + t, i, static_cast<double>(i),
                               FlightEventKind::kCallCompleted);
        ev.set_site("site" + std::to_string(t));
        ev.set_domain("domain" + std::to_string(t));
        ev.value = static_cast<double>(t);
        ev.aux = i;
        recorder.Emit(ev);
      }
    });
  }
  // Concurrent snapshots must see only whole events, never torn ones.
  std::thread reader([&recorder] {
    for (int i = 0; i < 50; ++i) {
      for (const FlightEvent& ev : recorder.SnapshotAll()) {
        ASSERT_GE(ev.query_id, 100u);
        ASSERT_LT(ev.query_id, 100u + kThreads);
        size_t t = ev.query_id - 100;
        ASSERT_EQ(ev.site_str(), "site" + std::to_string(t));
        ASSERT_EQ(ev.aux, ev.seq);
      }
    }
  });
  for (std::thread& w : writers) w.join();
  reader.join();

  EXPECT_EQ(recorder.ring_count(), kThreads);
  EXPECT_EQ(recorder.total_events(), kThreads * kPerThread);
  EXPECT_EQ(recorder.dropped_events(), 0u);
  for (size_t t = 0; t < kThreads; ++t) {
    std::vector<FlightEvent> events = recorder.SnapshotQuery(100 + t);
    ASSERT_EQ(events.size(), kPerThread);
    for (uint32_t i = 0; i < kPerThread; ++i) {
      ASSERT_EQ(events[i].seq, i);
      ASSERT_EQ(events[i].domain_str(), "domain" + std::to_string(t));
      ASSERT_DOUBLE_EQ(events[i].value, static_cast<double>(t));
    }
  }
}

}  // namespace
}  // namespace hermes::obs

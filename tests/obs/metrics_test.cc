#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace hermes::obs {
namespace {

TEST(Counter, AddAndValue) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(FloatCounter, AddAndValue) {
  FloatCounter c;
  c.Add(1.5);
  c.Add(2.25);
  EXPECT_DOUBLE_EQ(c.Value(), 3.75);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  g.Set(10.0);
  g.Add(-3.5);
  EXPECT_DOUBLE_EQ(g.Value(), 6.5);
}

TEST(CallbackGauge, ComputesAtReadTime) {
  double source = 1.0;
  CallbackGauge g([&source] { return source * 2.0; });
  EXPECT_DOUBLE_EQ(g.Value(), 2.0);
  source = 21.0;
  EXPECT_DOUBLE_EQ(g.Value(), 42.0);
}

TEST(Histogram, BucketsFollowPrometheusLeSemantics) {
  Histogram h({1.0, 10.0, 100.0});
  h.Observe(0.5);    // le=1
  h.Observe(1.0);    // le=1 (inclusive upper bound)
  h.Observe(5.0);    // le=10
  h.Observe(100.0);  // le=100
  h.Observe(1000.0); // +Inf overflow
  HistogramSnapshot snap = h.Snapshot();
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 5u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.5 + 1.0 + 5.0 + 100.0 + 1000.0);
}

TEST(Histogram, GeneratedBounds) {
  std::vector<double> exp = Histogram::ExponentialBounds(1.0, 2.0, 4);
  EXPECT_EQ(exp, (std::vector<double>{1.0, 2.0, 4.0, 8.0}));
  std::vector<double> lin = Histogram::LinearBounds(0.0, 5.0, 3);
  EXPECT_EQ(lin, (std::vector<double>{0.0, 5.0, 10.0}));
}

TEST(Histogram, QuantileInterpolates) {
  Histogram h(Histogram::LinearBounds(10.0, 10.0, 10));
  for (int i = 0; i < 100; ++i) h.Observe(static_cast<double>(i));
  HistogramSnapshot snap = h.Snapshot();
  double p50 = snap.Quantile(0.5);
  EXPECT_GE(p50, 40.0);
  EXPECT_LE(p50, 60.0);
  EXPECT_DOUBLE_EQ(HistogramSnapshot{}.Quantile(0.5), 0.0);
}

TEST(Registry, GetOrAddReusesSameSeries) {
  MetricsRegistry registry;
  auto a = registry.GetOrAddCounter("hermes_test_total", "help");
  auto b = registry.GetOrAddCounter("hermes_test_total", "help");
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(registry.size(), 1u);

  // Distinct labels are a distinct series of the same family.
  auto c = registry.GetOrAddCounter("hermes_test_total", "help",
                                    {{"site", "italy"}});
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(registry.size(), 2u);
}

TEST(Registry, FindsEverySeriesAndExposesThemInRegistrationOrder) {
  MetricsRegistry registry;
  std::vector<std::shared_ptr<Counter>> counters;
  for (int i = 0; i < 64; ++i) {
    counters.push_back(registry.GetOrAddCounter(
        "hermes_test_total", "help",
        {{"site", "s" + std::to_string(63 - i)}, {"domain", "d"}}));
    counters.back()->Add(i);
  }
  EXPECT_EQ(registry.size(), 64u);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(registry
                  .GetOrAddCounter(
                      "hermes_test_total", "help",
                      {{"site", "s" + std::to_string(63 - i)}, {"domain", "d"}})
                  .get(),
              counters[i].get());
  }
  EXPECT_EQ(registry.size(), 64u);
  // Same labels in another order are another series.
  EXPECT_NE(registry
                .GetOrAddCounter("hermes_test_total", "help",
                                 {{"domain", "d"}, {"site", "s0"}})
                .get(),
            counters[63].get());

  std::string text = registry.ExposePrometheus();
  size_t first = text.find("hermes_test_total{site=\"s63\",domain=\"d\"} 0");
  size_t last = text.find("hermes_test_total{site=\"s0\",domain=\"d\"} 63");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(last, std::string::npos);
  EXPECT_LT(first, last);
}

TEST(Registry, RegisterReplacesExistingSeries) {
  MetricsRegistry registry;
  auto first = std::make_shared<Counter>();
  first->Add(7);
  registry.Register("hermes_test_total", "help", {}, first);
  auto second = std::make_shared<Counter>();
  registry.Register("hermes_test_total", "help", {}, second);
  EXPECT_EQ(registry.size(), 1u);
  auto resolved = registry.GetOrAddCounter("hermes_test_total", "help");
  EXPECT_EQ(resolved.get(), second.get());
}

TEST(Registry, PrometheusExposition) {
  MetricsRegistry registry;
  registry.GetOrAddCounter("hermes_calls_total", "Calls made",
                           {{"site", "italy"}})
      ->Add(3);
  registry.GetOrAddGauge("hermes_cache_bytes", "Cache occupancy")->Set(128.0);
  auto h = registry.GetOrAddHistogram("hermes_latency_ms", "Latency",
                                      {1.0, 10.0});
  h->Observe(0.5);
  h->Observe(50.0);

  std::string text = registry.ExposePrometheus();
  EXPECT_NE(text.find("# HELP hermes_calls_total Calls made"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE hermes_calls_total counter"), std::string::npos);
  EXPECT_NE(text.find("hermes_calls_total{site=\"italy\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE hermes_cache_bytes gauge"), std::string::npos);
  EXPECT_NE(text.find("hermes_cache_bytes 128"), std::string::npos);
  EXPECT_NE(text.find("# TYPE hermes_latency_ms histogram"),
            std::string::npos);
  EXPECT_NE(text.find("hermes_latency_ms_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("hermes_latency_ms_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("hermes_latency_ms_count 2"), std::string::npos);
}

TEST(Registry, JsonExpositionEscapesAndStructures) {
  MetricsRegistry registry;
  registry.GetOrAddCounter("hermes_calls_total", "with \"quotes\" and \\",
                           {{"q", "a\nb"}});
  std::string json = registry.ExposeJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("with \\\"quotes\\\" and \\\\"), std::string::npos);
  EXPECT_NE(json.find("a\\nb"), std::string::npos);
  EXPECT_EQ(json.find('\n') == std::string::npos ||
                json.find("a\nb") == std::string::npos,
            true);
}

TEST(Registry, PrometheusFamiliesAreConsecutive) {
  MetricsRegistry registry;
  registry.GetOrAddCounter("hermes_b_total", "b", {{"site", "one"}});
  registry.GetOrAddCounter("hermes_a_total", "a");
  registry.GetOrAddCounter("hermes_b_total", "b", {{"site", "two"}});
  std::string text = registry.ExposePrometheus();
  // One # TYPE header per family, series of one family grouped together.
  size_t first_header = text.find("# TYPE hermes_b_total");
  size_t second_header = text.find("# TYPE hermes_b_total", first_header + 1);
  EXPECT_NE(first_header, std::string::npos);
  EXPECT_EQ(second_header, std::string::npos);
}

}  // namespace
}  // namespace hermes::obs

// Tests for ehw/obs: log-bucketed histogram boundaries and merges, the
// metric registry (stable handles, Prometheus/JSON exposition, scrape
// racing live mutation), the span tracer (ring wraparound, concurrent
// recording, Chrome trace-event export round-trip), mission profile
// collection, and the shared duration formatter. The concurrency cases
// run under CI's TSan job (suite names match its Obs regex).

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ehw/common/json.hpp"
#include "ehw/common/table.hpp"
#include "ehw/obs/metrics.hpp"
#include "ehw/obs/trace.hpp"

namespace ehw {
namespace {

// --- Histogram --------------------------------------------------------------

TEST(ObsHistogram, BucketBoundariesFollowBitWidth) {
  // Bucket 0 is the exact value 0; bucket b >= 1 is [2^(b-1), 2^b - 1].
  EXPECT_EQ(obs::Histogram::bucket_of(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_of(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_of(2), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(3), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(4), 3u);
  EXPECT_EQ(obs::Histogram::bucket_of(1023), 10u);
  EXPECT_EQ(obs::Histogram::bucket_of(1024), 11u);
  EXPECT_EQ(obs::Histogram::bucket_of(~std::uint64_t{0}), 64u);

  EXPECT_EQ(obs::Histogram::bucket_upper(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_upper(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_upper(2), 3u);
  EXPECT_EQ(obs::Histogram::bucket_upper(10), 1023u);
  EXPECT_EQ(obs::Histogram::bucket_upper(64), ~std::uint64_t{0});
  // Every value lands inside its own bucket's bounds.
  for (const std::uint64_t v : {0ull, 1ull, 7ull, 100ull, 4096ull,
                                (1ull << 40) + 5, ~0ull}) {
    const std::size_t b = obs::Histogram::bucket_of(v);
    EXPECT_LE(v, obs::Histogram::bucket_upper(b)) << v;
    if (b > 0) {
      EXPECT_GT(v, obs::Histogram::bucket_upper(b - 1)) << v;
    }
  }
}

TEST(ObsHistogram, RecordsAndSnapshots) {
  obs::Histogram hist;
  hist.record(0);
  hist.record(100);
  hist.record(100);
  hist.record(5000);
  const obs::Histogram::Snapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.sum, 5200u);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[obs::Histogram::bucket_of(100)], 2u);
  EXPECT_EQ(snap.buckets[obs::Histogram::bucket_of(5000)], 1u);
  EXPECT_DOUBLE_EQ(snap.mean(), 1300.0);
}

TEST(ObsHistogram, SnapshotMergeIsExact) {
  obs::Histogram a;
  obs::Histogram b;
  for (std::uint64_t v = 0; v < 100; ++v) a.record(v);
  for (std::uint64_t v = 100; v < 300; ++v) b.record(v);
  obs::Histogram::Snapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.count, 300u);
  EXPECT_EQ(merged.sum, 299u * 300u / 2u);
  std::uint64_t total = 0;
  for (std::size_t bucket = 0; bucket < obs::Histogram::kBuckets; ++bucket) {
    total += merged.buckets[bucket];
  }
  EXPECT_EQ(total, 300u);
}

TEST(ObsHistogram, QuantileLandsInTheRightBucket) {
  obs::Histogram hist;
  for (int i = 0; i < 1000; ++i) hist.record(100);  // bucket 7: [64,127]
  const obs::Histogram::Snapshot snap = hist.snapshot();
  EXPECT_GE(snap.quantile(0.5), 64.0);
  EXPECT_LE(snap.quantile(0.5), 128.0);
  EXPECT_LE(snap.quantile(0.1), snap.quantile(0.9));
  // Degenerate inputs stay sane.
  EXPECT_EQ(obs::Histogram().snapshot().quantile(0.5), 0.0);
  EXPECT_GE(snap.quantile(-1.0), 0.0);
  EXPECT_LE(snap.quantile(2.0), 128.0);
}

// --- Registry ---------------------------------------------------------------

TEST(ObsRegistry, HandlesAreFindOrCreateAndStable) {
  obs::Registry registry;
  obs::Counter& c1 = registry.counter("mpa_test_total");
  obs::Counter& c2 = registry.counter("mpa_test_total");
  EXPECT_EQ(&c1, &c2);
  c1.add();
  c2.add(2);
  EXPECT_EQ(c1.value(), 3u);
  obs::Gauge& g = registry.gauge("mpa_test_level");
  g.set(2.5);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(registry.gauge("mpa_test_level").value(), 3.0);
}

TEST(ObsRegistry, PrometheusExpositionShape) {
  obs::Registry registry;
  registry.counter("mpa_widgets_total").add(7);
  registry.gauge("mpa_backend_up{backend=\"2\"}").set(1.0);
  registry.histogram("mpa_latency_ns").record(100);
  registry.histogram("mpa_latency_ns").record(5000);
  const std::string text = registry.to_prometheus();
  EXPECT_NE(text.find("# TYPE mpa_widgets_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("mpa_widgets_total 7\n"), std::string::npos);
  // TYPE lines carry the base name; the sample keeps its labels.
  EXPECT_NE(text.find("# TYPE mpa_backend_up gauge\n"), std::string::npos);
  EXPECT_NE(text.find("mpa_backend_up{backend=\"2\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE mpa_latency_ns histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("mpa_latency_ns_bucket{le=\"127\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("mpa_latency_ns_bucket{le=\"8191\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("mpa_latency_ns_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("mpa_latency_ns_sum 5100\n"), std::string::npos);
  EXPECT_NE(text.find("mpa_latency_ns_count 2\n"), std::string::npos);
}

TEST(ObsRegistry, JsonExpositionRoundTrips) {
  obs::Registry registry;
  registry.counter("events").add(42);
  registry.gauge("depth").set(3.0);
  registry.histogram("lat").record(100);
  const Json parsed = Json::parse(registry.to_json().dump());
  EXPECT_EQ(parsed.get("counters")->get_string("events", ""), "42");
  EXPECT_DOUBLE_EQ(parsed.get("gauges")->get_number("depth", 0), 3.0);
  const Json* lat = parsed.get("histograms")->get("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->get_string("count", ""), "1");
  EXPECT_EQ(lat->get_string("sum", ""), "100");
  ASSERT_TRUE(lat->get("buckets")->is_array());
  EXPECT_EQ(lat->get("buckets")->as_array().size(), 1u);
}

TEST(ObsRegistry, ScrapeRacesLiveMutationSafely) {
  // Writers hammer a counter and a histogram while a reader snapshots
  // and renders — the relaxed-atomic contract TSan verifies in CI.
  obs::Registry registry;
  obs::Counter& counter = registry.counter("race_total");
  obs::Histogram& hist = registry.histogram("race_ns");
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 20000;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&counter, &hist] {
      for (int i = 0; i < kPerWriter; ++i) {
        counter.add();
        hist.record(static_cast<std::uint64_t>(i));
      }
    });
  }
  std::string last_text;
  for (int i = 0; i < 50; ++i) {
    last_text = registry.to_prometheus();
    (void)registry.to_json();
    (void)hist.snapshot();
  }
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(kWriters) * kPerWriter);
  EXPECT_EQ(hist.snapshot().count,
            static_cast<std::uint64_t>(kWriters) * kPerWriter);
  EXPECT_FALSE(last_text.empty());
}

// --- Tracer -----------------------------------------------------------------

/// The tracer is process-global; every test starts and ends with a
/// disarmed, empty ring set so suites can't leak spans into each other.
class ObsTracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Tracer::global().disarm();
    obs::Tracer::global().clear();
  }
  void TearDown() override {
    obs::Tracer::global().disarm();
    obs::Tracer::global().clear();
  }
};

TEST_F(ObsTracerTest, DisarmedGuardsRecordNothing) {
  {
    EHW_TRACE_SPAN("invisible");
  }
  EXPECT_EQ(obs::Tracer::global().recorded(), 0u);
  EXPECT_FALSE(obs::Tracer::armed());
}

TEST_F(ObsTracerTest, ArmedGuardsRecordSpans) {
  obs::Tracer::global().arm();
  {
    EHW_TRACE_SPAN("phase_a");
    EHW_TRACE_SPAN("phase_b");
  }
  obs::Tracer::global().disarm();
  EXPECT_EQ(obs::Tracer::global().recorded(), 2u);
  EXPECT_EQ(obs::Tracer::global().dropped(), 0u);
}

TEST_F(ObsTracerTest, RingWrapsAndCountsDrops) {
  obs::Tracer& tracer = obs::Tracer::global();
  const std::uint64_t n = obs::Tracer::kRingCapacity + 10;
  for (std::uint64_t i = 0; i < n; ++i) {
    tracer.record("wrap", i, 1);
  }
  EXPECT_EQ(tracer.recorded(), n);
  EXPECT_EQ(tracer.dropped(), 10u);
  // Export keeps the newest kRingCapacity spans for this thread.
  const Json trace = tracer.export_chrome();
  const auto& events = trace.get("traceEvents")->as_array();
  EXPECT_EQ(events.size(), obs::Tracer::kRingCapacity);
  // The oldest surviving span is #10 (ts in µs: 10ns / 1e3).
  EXPECT_DOUBLE_EQ(events.front().get_number("ts", -1), 10.0 / 1e3);
}

TEST_F(ObsTracerTest, ChromeExportRoundTripsThroughJson) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.record("compile", 2500, 1500);
  tracer.record("wave", 4000, 250);
  const Json parsed = Json::parse(tracer.export_chrome().dump());
  EXPECT_EQ(parsed.get_string("displayTimeUnit", ""), "ms");
  const Json* events = parsed.get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->as_array().size(), 2u);
  const Json& first = events->as_array()[0];
  EXPECT_EQ(first.get_string("name", ""), "compile");
  EXPECT_EQ(first.get_string("ph", ""), "X");  // complete event
  EXPECT_DOUBLE_EQ(first.get_number("ts", 0), 2.5);   // µs
  EXPECT_DOUBLE_EQ(first.get_number("dur", 0), 1.5);  // µs
  EXPECT_EQ(first.get_number("pid", 0), 1.0);
  EXPECT_GE(first.get_number("tid", 0), 1.0);
}

TEST_F(ObsTracerTest, ClearEmptiesEveryRing) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.record("gone", 1, 1);
  tracer.clear();
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(tracer.export_chrome().get("traceEvents")->as_array().size(), 0u);
}

TEST_F(ObsTracerTest, ConcurrentSpanRecording) {
  obs::Tracer::global().arm();
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 2000;  // < kRingCapacity: no drops
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        EHW_TRACE_SPAN("worker_phase");
      }
    });
  }
  // Export concurrently with the recorders (the scrape path).
  for (int i = 0; i < 20; ++i) {
    (void)obs::Tracer::global().export_chrome();
    (void)obs::Tracer::global().recorded();
  }
  for (std::thread& t : threads) t.join();
  obs::Tracer::global().disarm();
  EXPECT_EQ(obs::Tracer::global().recorded(),
            static_cast<std::uint64_t>(kThreads) * kSpansPerThread);
  EXPECT_EQ(obs::Tracer::global().dropped(), 0u);
  // Each recording thread got its own ring (distinct export tids).
  const Json trace = obs::Tracer::global().export_chrome();
  std::set<double> tids;
  for (const Json& event : trace.get("traceEvents")->as_array()) {
    tids.insert(event.get_number("tid", 0));
  }
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
}

// --- Profiles ---------------------------------------------------------------

TEST(ObsProfile, CollectorAggregatesByPhaseInFirstSeenOrder) {
  obs::ProfileCollector profile;
  EXPECT_TRUE(profile.empty());
  // Names are identity-compared literals; reuse the same pointers.
  static const char* const kCompile = "compile";
  static const char* const kWave = "wave";
  profile.add(kCompile, 100);
  profile.add(kWave, 10);
  profile.add(kWave, 20);
  EXPECT_FALSE(profile.empty());
  const Json json = profile.to_json();
  const auto& phases = json.get("phases")->as_array();
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0].get_string("phase", ""), "compile");
  EXPECT_EQ(phases[0].get_number("count", 0), 1.0);
  EXPECT_EQ(phases[0].get_string("total_ns", ""), "100");
  EXPECT_EQ(phases[1].get_string("phase", ""), "wave");
  EXPECT_EQ(phases[1].get_number("count", 0), 2.0);
  EXPECT_EQ(phases[1].get_string("total_ns", ""), "30");
}

TEST(ObsProfile, SpanGuardsFeedTheProfileWithTracerDisarmed) {
  obs::Tracer::global().disarm();
  obs::Tracer::global().clear();
  obs::ProfileCollector profile;
  {
    obs::ProfileScope scope(&profile);
    EHW_TRACE_SPAN("profiled_phase");
  }
  // Profile captured the span; the disarmed tracer recorded nothing.
  EXPECT_FALSE(profile.empty());
  EXPECT_EQ(obs::Tracer::global().recorded(), 0u);
  // Outside the scope the guard is back to the free path.
  {
    EHW_TRACE_SPAN("profiled_phase");
  }
  const Json json = profile.to_json();
  const auto& phases = json.get("phases")->as_array();
  ASSERT_EQ(phases.size(), 1u);
  EXPECT_EQ(phases[0].get_number("count", 0), 1.0);
}

TEST(ObsProfile, ScopesNestAndRestore) {
  obs::ProfileCollector outer;
  obs::ProfileCollector inner;
  {
    obs::ProfileScope outer_scope(&outer);
    {
      obs::ProfileScope inner_scope(&inner);
      EHW_TRACE_SPAN("inner_only");
    }
    EHW_TRACE_SPAN("outer_only");
  }
  const Json outer_json = outer.to_json();
  const auto& outer_phases = outer_json.get("phases")->as_array();
  ASSERT_EQ(outer_phases.size(), 1u);
  EXPECT_EQ(outer_phases[0].get_string("phase", ""), "outer_only");
  const Json inner_json = inner.to_json();
  const auto& inner_phases = inner_json.get("phases")->as_array();
  ASSERT_EQ(inner_phases.size(), 1u);
  EXPECT_EQ(inner_phases[0].get_string("phase", ""), "inner_only");
}

// --- Duration formatting ----------------------------------------------------

TEST(ObsDurationFormat, ScalesToTheLeadingUnit) {
  EXPECT_EQ(format_duration_ns(0), "0ns");
  EXPECT_EQ(format_duration_ns(815), "815ns");
  EXPECT_EQ(format_duration_ns(12'300), "12.3us");
  EXPECT_EQ(format_duration_ns(45'600'000), "45.6ms");
  EXPECT_EQ(format_duration_ns(3'200'000'000ull), "3.2s");
  EXPECT_EQ(format_duration_ns(312'000'000'000ull), "5m12s");
  EXPECT_EQ(format_duration_ns(7'380'000'000'000ull), "2h03m");
  EXPECT_EQ(format_duration_ns(100'800'000'000'000ull), "1d04h");
}

TEST(ObsDurationFormat, MillisecondWrapperSaturates) {
  EXPECT_EQ(format_duration_ms(0), "0ns");
  EXPECT_EQ(format_duration_ms(1500), "1.5s");
  // A ms count whose ns equivalent would overflow u64 still formats
  // (saturating multiply), it just pins at the u64 ceiling.
  EXPECT_FALSE(format_duration_ms(~std::uint64_t{0}).empty());
}

}  // namespace
}  // namespace ehw

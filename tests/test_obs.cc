// Unit tests for the observability layer (src/obs): histogram bucket
// arithmetic and quantile error bounds, registry lookup/export formats,
// and the registry a Monitor fills: its access invariant (death-tested)
// and its contents after a replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/string_pool.h"
#include "core/monitor.h"
#include "obs/metrics.h"
#include "poet/replay.h"
#include "random_computation.h"

namespace ocep::obs {
namespace {

TEST(Histogram, BucketArithmeticIsConsistent) {
  // Exhaustive below 4096, then random draws across the full range:
  // every value lands in a bucket whose [lo, hi] contains it, and bucket
  // indices are monotone in the value.
  std::size_t last = 0;
  for (std::uint64_t v = 0; v < 4096; ++v) {
    const std::size_t b = Histogram::bucket_of(v);
    EXPECT_LE(Histogram::bucket_lo(b), v);
    EXPECT_GE(Histogram::bucket_hi(b), v);
    EXPECT_GE(b, last);
    last = b;
  }
  Rng rng(0x0B5E01);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng() >> rng.below(64);
    const std::size_t b = Histogram::bucket_of(v);
    ASSERT_LT(b, Histogram::kBuckets);
    EXPECT_LE(Histogram::bucket_lo(b), v);
    EXPECT_GE(Histogram::bucket_hi(b), v);
  }
  // The extremes stay inside the bucket table.
  EXPECT_LT(Histogram::bucket_of(~0ULL), Histogram::kBuckets);
  EXPECT_EQ(Histogram::bucket_of(0), 0U);
}

TEST(Histogram, SmallValuesAreExact) {
  Histogram h;
  for (std::uint64_t v = 0; v < 8; ++v) {
    for (std::uint64_t r = 0; r <= v; ++r) {
      h.record(v);
    }
  }
  EXPECT_EQ(h.count(), 8U + 7 * 8 / 2);
  EXPECT_EQ(h.min(), 0U);
  EXPECT_EQ(h.max(), 7U);
  // Values below 8 occupy exact buckets, so quantiles there are exact:
  // the median of {0, 1,1, 2,2,2, ...} (v appears v+1 times).
  EXPECT_EQ(h.quantile(1.0), 7.0);
  EXPECT_EQ(h.quantile(0.0), 0.0);
}

TEST(Histogram, QuantilesWithinRelativeErrorBound) {
  Rng rng(0x0B5E02);
  Histogram h;
  std::vector<std::uint64_t> samples;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t v = rng.below(1'000'000);
    samples.push_back(v);
    h.record(v);
  }
  std::sort(samples.begin(), samples.end());
  std::uint64_t sum = 0;
  for (const std::uint64_t v : samples) {
    sum += v;
  }
  EXPECT_EQ(h.count(), samples.size());
  EXPECT_EQ(h.sum(), sum);
  EXPECT_EQ(h.min(), samples.front());
  EXPECT_EQ(h.max(), samples.back());
  for (const double q : {0.5, 0.9, 0.95, 0.99}) {
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(samples.size() - 1));
    const auto exact = static_cast<double>(samples[rank]);
    // Four sub-buckets per power of two => <= 25% relative error.
    EXPECT_NEAR(h.quantile(q), exact, exact * 0.25) << "q=" << q;
  }
}

TEST(Histogram, EmptyIsAllZero) {
  const Histogram h;
  EXPECT_EQ(h.count(), 0U);
  EXPECT_EQ(h.sum(), 0U);
  EXPECT_EQ(h.min(), 0U);
  EXPECT_EQ(h.max(), 0U);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(Registry, LookupIsIdempotent) {
  Registry registry;
  Counter& a = registry.counter("matcher.events", "pattern=\"0\"");
  Counter& b = registry.counter("matcher.events", "pattern=\"0\"");
  EXPECT_EQ(&a, &b);  // address-stable, created once
  Counter& other = registry.counter("matcher.events", "pattern=\"1\"");
  EXPECT_NE(&a, &other);

  a.add(3);
  b.add(2);
  EXPECT_EQ(registry.counter_value("matcher.events{pattern=\"0\"}"), 5U);
  EXPECT_EQ(registry.counter_value("matcher.events{pattern=\"1\"}"), 0U);
  EXPECT_EQ(registry.counter_value("no.such.counter"), 0U);
}

TEST(Registry, CounterValuesAreSortedByKey) {
  Registry registry;
  registry.counter("zebra").add(1);
  registry.counter("alpha").add(2);
  registry.counter("mid", "k=\"v\"").add(3);
  registry.gauge("a.gauge").set(-7);  // not a counter: excluded
  const auto values = registry.counter_values();
  ASSERT_EQ(values.size(), 3U);
  EXPECT_EQ(values[0].first, "alpha");
  EXPECT_EQ(values[1].first, "mid{k=\"v\"}");
  EXPECT_EQ(values[2].first, "zebra");
  EXPECT_EQ(values[0].second, 2U);
}

TEST(Registry, ExportFormats) {
  Registry registry;
  registry.counter("matcher.events", "pattern=\"0\"", "events observed")
      .add(42);
  registry.gauge("store.bytes").set(1024);
  Histogram& h = registry.histogram("monitor.arrival_ns");
  h.record(5);
  h.record(5);

  const std::string text = registry.to_text();
  EXPECT_NE(text.find("matcher.events{pattern=\"0\"} = 42"),
            std::string::npos);
  EXPECT_NE(text.find("store.bytes = 1024"), std::string::npos);
  EXPECT_NE(text.find("monitor.arrival_ns count=2 sum=10"),
            std::string::npos);

  const std::string json = registry.to_json();
  EXPECT_NE(
      json.find("\"counters\":{\"matcher.events{pattern=\\\"0\\\"}\":42}"),
      std::string::npos)
      << json;
  EXPECT_NE(json.find("\"gauges\":{\"store.bytes\":1024}"),
            std::string::npos);
  EXPECT_NE(json.find("\"count\":2,\"sum\":10"), std::string::npos);

  const std::string prom = registry.to_prometheus();
  EXPECT_NE(prom.find("# TYPE ocep_matcher_events counter"),
            std::string::npos);
  EXPECT_NE(prom.find("ocep_matcher_events{pattern=\"0\"} 42"),
            std::string::npos);
  EXPECT_NE(prom.find("# HELP ocep_matcher_events events observed"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE ocep_store_bytes gauge"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE ocep_monitor_arrival_ns summary"),
            std::string::npos);
  EXPECT_NE(prom.find("ocep_monitor_arrival_ns{quantile=\"0.5\"} 5"),
            std::string::npos);
  EXPECT_NE(prom.find("ocep_monitor_arrival_ns_count 2"),
            std::string::npos);
}

TEST(Histogram, MergePreservesDistributionAndExtremes) {
  Histogram a;
  Histogram b;
  for (std::uint64_t v = 0; v < 8; ++v) {
    a.record(v);
  }
  b.record(3);
  b.record(100000);
  a.merge_from(b);
  EXPECT_EQ(a.count(), 10U);
  EXPECT_EQ(a.sum(), 28U + 3U + 100000U);
  EXPECT_EQ(a.min(), 0U);
  EXPECT_EQ(a.max(), 100000U);
  // Exact buckets stay exact through a merge: two 3s out of ten samples.
  EXPECT_DOUBLE_EQ(a.quantile(0.0), 0.0);
  EXPECT_NEAR(a.quantile(0.35), 3.0, 0.001);
  // Merging an empty histogram changes nothing (min untouched by ~0).
  const Histogram empty;
  a.merge_from(empty);
  EXPECT_EQ(a.count(), 10U);
  EXPECT_EQ(a.min(), 0U);
  EXPECT_EQ(a.max(), 100000U);
}

// The shard → admin-plane aggregation path: per-shard registries merge
// into a scratch per scrape.  Counters and gauges add; histograms fold
// bucket-wise; instruments missing in the target are created.
TEST(Registry, MergeAggregatesAcrossRegistries) {
  Registry shard0;
  Registry shard1;
  shard0.counter("net.accepted", "plane=\"ingest\"").add(3);
  shard1.counter("net.accepted", "plane=\"ingest\"").add(4);
  shard1.counter("net.conn_migrations").add(1);  // only shard 1 has it
  shard0.gauge("net.connections").add(2);
  shard1.gauge("net.connections").add(1);
  shard0.histogram("serve.latency_us").record(10);
  shard1.histogram("serve.latency_us").record(1000);

  Registry merged;
  merged.merge_from(shard0);
  merged.merge_from(shard1);
  EXPECT_EQ(merged.counter_value("net.accepted{plane=\"ingest\"}"), 7U);
  EXPECT_EQ(merged.counter_value("net.conn_migrations"), 1U);
  const std::string text = merged.to_text();
  EXPECT_NE(text.find("net.connections = 3"), std::string::npos) << text;
  EXPECT_NE(text.find("serve.latency_us count=2 sum=1010"),
            std::string::npos)
      << text;
  // Sources are untouched by the merge.
  EXPECT_EQ(shard0.counter_value("net.accepted{plane=\"ingest\"}"), 3U);
  EXPECT_EQ(shard1.counter_value("net.conn_migrations"), 1U);
}

TEST(RegistryDeathTest, KindMismatchAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Registry registry;
  registry.counter("dual.use");
  EXPECT_DEATH(registry.histogram("dual.use"), "different kind");
}

TEST(MonitorMetricsDeathTest, MetricsWhenDisabledAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  StringPool pool;
  const Monitor monitor(pool);  // MonitorConfig::metrics defaults off
  EXPECT_FALSE(monitor.metrics_enabled());
  EXPECT_DEATH(static_cast<void>(monitor.metrics()),
               "enable MonitorConfig::metrics");
}

// A Monitor matches each arrival before on_event returns, so its registry
// is current after a replay with no further call: each pattern counts
// every arrival, and the store gauges describe the store as of the read.
TEST(MonitorMetrics, RegistryIsCurrentWithoutABarrier) {
  StringPool pool;
  ocep::testing::RandomComputationOptions options;
  options.seed = 29;
  options.traces = 4;
  options.events = 200;
  const EventStore source = ocep::testing::random_computation(pool, options);

  // Eight patterns over the random computation's alphabets (types A..D,
  // texts ''/x/y, traces T0..), covering every operator the matcher
  // implements plus attribute variables.
  const std::vector<std::string> patterns = {
      "P := ['', A, '']; Q := ['', B, ''];\npattern := P -> Q;\n",
      "P := ['', B, '']; Q := ['', C, ''];\npattern := P || Q;\n",
      "S := ['', '', '']; R := ['', '', ''];\npattern := S <-> R;\n",
      "P := ['', D, '']; Q := ['', A, ''];\npattern := P -lim-> Q;\n",
      "P := ['', C, '$t']; Q := ['', '', '$t'];\npattern := P -> Q;\n",
      "P := ['', A, '']; Q := ['', B, '']; R := ['', C, ''];\n"
      "pattern := P -> Q -> R;\n",
      "P := ['', A, '']; Q := ['', D, ''];\npattern := P || Q;\n",
      "P := ['$p', B, '']; Q := ['$p', C, ''];\npattern := P -> Q;\n",
  };
  MonitorConfig config;
  config.metrics = true;
  Monitor monitor(pool, config, source.storage());
  for (const std::string& pattern : patterns) {
    monitor.add_pattern(pattern);
  }
  replay(source, monitor);
  const Registry& registry = std::as_const(monitor).metrics();

  // The stream-deterministic counters: 6 per pattern, all patterns
  // present.
  static constexpr const char* kDeterministic[] = {
      "matcher.events",  "matcher.leaf_hits", "matcher.searches",
      "matcher.matches", "matcher.pins_run",  "matcher.pins_skipped",
  };
  std::size_t found = 0;
  std::uint64_t events_total = 0;
  for (const auto& [key, value] : registry.counter_values()) {
    for (const char* name : kDeterministic) {
      // Exact instrument name: the key is "name{labels}", and a bare
      // prefix test would also sweep up e.g. matcher.searches_aborted.
      if (key.rfind(std::string(name) + "{", 0) == 0) {
        ++found;
        break;
      }
    }
    if (key.rfind("matcher.events{", 0) == 0) {
      events_total += value;
    }
  }
  EXPECT_EQ(found, 6 * patterns.size());
  EXPECT_EQ(events_total, source.event_count() * patterns.size());

  const EventStore& store = monitor.store();
  ASSERT_GT(store.event_count(), 0U);
  const std::string json = registry.to_json();
  for (const auto& [gauge, value] : {
           std::pair<const char*, std::uint64_t>{"store.events",
                                                 monitor.events_seen()},
           {"store.traces", store.trace_count()},
           {"store.bytes", store.approx_bytes()},
       }) {
    EXPECT_NE(json.find("\"" + std::string(gauge) +
                        "\":" + std::to_string(value)),
              std::string::npos)
        << gauge << " is not " << value << " in " << json;
  }
}

}  // namespace
}  // namespace ocep::obs

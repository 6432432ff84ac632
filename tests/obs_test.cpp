// Observability layer coverage: metric naming contract, log2 histogram
// math, the flight recorder ring, exporter golden output, and an
// end-to-end traced run whose spans must form a coherent timeline.
//
// Exporter output is frozen under tests/golden/ (metrics.prom,
// metrics.json, trace.json); any formatting change fails the compare and
// must regenerate with GOLDEN_REGEN=1 and justify the diff in review.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "directory/fabric.hpp"
#include "obs/export.hpp"
#include "obs/recorder.hpp"
#include "stats/registry.hpp"
#include "test_util.hpp"

namespace srp {
namespace {

// --- metric naming contract ------------------------------------------------

TEST(MetricNaming, ValidNames) {
  EXPECT_TRUE(stats::is_valid_metric_name("viper.r1.hop_latency_ps"));
  EXPECT_TRUE(stats::is_valid_metric_name("a.b"));
  EXPECT_TRUE(stats::is_valid_metric_name("a.b.c.d.e"));
  EXPECT_TRUE(stats::is_valid_metric_name("fault.h0_chaos_p1.drop"));
  EXPECT_TRUE(stats::is_valid_metric_name("cc.r-west.flows"));
}

TEST(MetricNaming, InvalidNames) {
  EXPECT_FALSE(stats::is_valid_metric_name(""));
  EXPECT_FALSE(stats::is_valid_metric_name("shared"));          // 1 segment
  EXPECT_FALSE(stats::is_valid_metric_name("a.b.c.d.e.f"));     // 6 segments
  EXPECT_FALSE(stats::is_valid_metric_name(".a.b"));            // leading dot
  EXPECT_FALSE(stats::is_valid_metric_name("a.b."));            // trailing dot
  EXPECT_FALSE(stats::is_valid_metric_name("a..b"));            // empty segment
  EXPECT_FALSE(stats::is_valid_metric_name("a.b:c"));           // bad char
  EXPECT_FALSE(stats::is_valid_metric_name("a.b c"));           // space
}

TEST(MetricNaming, ComponentSanitization) {
  EXPECT_EQ(stats::metric_component("r1"), "r1");
  EXPECT_EQ(stats::metric_component("h0.prop:p1"), "h0_prop_p1");
  EXPECT_EQ(stats::metric_component("client.chaos"), "client_chaos");
  EXPECT_EQ(stats::metric_component(""), "_");
}

// --- histogram math --------------------------------------------------------

TEST(LogHistogram, BucketBoundaries) {
  using H = stats::Histogram;
  EXPECT_EQ(H::bucket_of(0), 0u);
  EXPECT_EQ(H::bucket_of(1), 1u);
  EXPECT_EQ(H::bucket_of(2), 2u);
  EXPECT_EQ(H::bucket_of(3), 2u);
  EXPECT_EQ(H::bucket_of(4), 3u);
  EXPECT_EQ(H::bucket_of(255), 8u);
  EXPECT_EQ(H::bucket_of(256), 9u);
  EXPECT_EQ(H::bucket_of(~std::uint64_t{0}), 64u);
  for (std::size_t i = 0; i < H::kBuckets; ++i) {
    // Every bucket's bounds round-trip through bucket_of.
    EXPECT_EQ(H::bucket_of(H::bucket_low(i)), i);
    EXPECT_EQ(H::bucket_of(H::bucket_high(i)), i);
    if (i > 0) {
      EXPECT_EQ(H::bucket_low(i), H::bucket_high(i - 1) + 1);
    }
  }
}

TEST(LogHistogram, CountSumMean) {
  stats::Histogram h;
  h.record(0);
  h.record(10);
  h.record(20);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 30u);
  EXPECT_DOUBLE_EQ(h.snapshot().mean(), 10.0);
}

TEST(LogHistogram, PercentileInterpolatesWithinBucket) {
  stats::Histogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
  // Rank 50 is the 19th of bucket 6's ([32, 63]) 32 samples; the unbiased
  // plotting position lands on the true value exactly for this uniform
  // fill.  (The old upper-bound rule answered 63 — a 26% overshoot.)
  EXPECT_EQ(h.p50(), 50u);
  // Rank 99 in bucket 7 ([64, 127]): 64 + 63*71/74 rounds to 124 — within
  // one octave of the true 99, instead of the old answer of 127.
  EXPECT_EQ(h.p99(), 124u);
}

TEST(LogHistogram, PercentileEdgeCases) {
  stats::Histogram empty;
  EXPECT_EQ(empty.p50(), 0u);
  EXPECT_EQ(empty.p99(), 0u);

  stats::Histogram single;
  single.record(5);
  const auto snap = single.snapshot();
  // One sample in [4, 7] interpolates to the bucket midpoint 4 + 3/2 -> 6;
  // every quantile of a single sample answers the same.
  EXPECT_EQ(snap.percentile(0.0), 6u);   // rank clamps to the first sample
  EXPECT_EQ(snap.percentile(1.0), 6u);
  EXPECT_EQ(snap.p50(), 6u);
}

TEST(GaugeSemantics, MovesBothWays) {
  stats::Gauge g;
  EXPECT_EQ(g.value(), 0);
  g.add(5);
  g.sub(2);
  EXPECT_EQ(g.value(), 3);
  g.set(-7);
  EXPECT_EQ(g.value(), -7);
}

TEST(RegistryFullSnapshot, CoversAllThreeKinds) {
  stats::Registry registry;
  const std::uint64_t hits = 3;
  registry.counter("viper.r1.token_hit", hits);
  registry.gauge("port.r1_p2.queue_depth").set(2);
  registry.histogram("viper.r1.hop_latency_ps").record(100);
  const auto snap = registry.full_snapshot();
  EXPECT_EQ(snap.counters.at("viper.r1.token_hit"), 3u);
  EXPECT_EQ(snap.gauges.at("port.r1_p2.queue_depth"), 2);
  EXPECT_EQ(snap.histograms.at("viper.r1.hop_latency_ps").count, 1u);
  // Legacy counters-only snapshot still works.
  EXPECT_EQ(registry.snapshot().at("viper.r1.token_hit"), 3u);
}

// --- flight recorder -------------------------------------------------------

obs::SpanRecord hop_span(std::uint64_t trace, std::uint32_t hop) {
  obs::SpanRecord span;
  span.trace_id = trace;
  span.hop = hop;
  span.kind = obs::SpanKind::kHop;
  span.set_component("r1");
  return span;
}

TEST(FlightRecorderRing, CapacityRoundsUpToPowerOfTwo) {
  obs::FlightRecorder recorder(5);
  EXPECT_EQ(recorder.capacity(), 8u);
  EXPECT_EQ(obs::FlightRecorder(0).capacity(), 1u);
}

TEST(FlightRecorderRing, OverwritesOldestAndCountsDrops) {
  obs::FlightRecorder recorder(4);
  for (std::uint32_t i = 0; i < 10; ++i) recorder.record(hop_span(1, i));
  EXPECT_EQ(recorder.recorded(), 10u);
  EXPECT_EQ(recorder.dropped(), 6u);
  const auto spans = recorder.spans();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest first: the retained window is hops 6..9.
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(spans[i].hop, 6 + i);
  recorder.clear();
  EXPECT_EQ(recorder.recorded(), 0u);
  EXPECT_EQ(recorder.dropped(), 0u);
  EXPECT_TRUE(recorder.spans().empty());
}

TEST(FlightRecorderRing, ComponentNameTruncates) {
  obs::SpanRecord span;
  span.set_component("a-very-long-component-name-indeed");
  EXPECT_EQ(span.component_view(), "a-very-long-component-n");
}

// --- exporter golden output ------------------------------------------------

std::string golden_path(const std::string& name) {
  return std::string(GOLDEN_DIR) + "/" + name;
}

/// Compares @p text against the committed golden file; with GOLDEN_REGEN
/// set, rewrites the file instead.
void expect_golden_text(const std::string& name, const std::string& text) {
  if (std::getenv("GOLDEN_REGEN") != nullptr) {
    std::ofstream out(golden_path(name), std::ios::binary);
    out << text;
    ASSERT_TRUE(out.good()) << "regen failed for " << name;
    return;
  }
  std::ifstream in(golden_path(name), std::ios::binary);
  ASSERT_TRUE(in) << name << " missing — run with GOLDEN_REGEN=1";
  const std::string golden((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  EXPECT_EQ(text, golden) << "exporter output drifted from " << name;
}

stats::MetricsSnapshot fixture_snapshot() {
  stats::Registry registry;
  const std::uint64_t hits = 41;
  const std::uint64_t misses = 2;
  registry.counter("viper.r1.token_hit", hits);
  registry.counter("viper.r1.token_miss_optimistic", misses);
  registry.gauge("port.r1_p2.queue_depth").set(3);
  registry.gauge("tokens.r1.cache_entries").set(17);
  auto& h = registry.histogram("viper.r1.hop_latency_ps");
  h.record(0);
  h.record(1);
  h.record(900);
  h.record(5'000'000);
  return registry.full_snapshot();
}

std::vector<obs::SpanRecord> fixture_spans() {
  std::vector<obs::SpanRecord> spans;
  obs::SpanRecord hop = hop_span(7, 0);
  hop.token = obs::TokenOutcome::kHit;
  hop.cut_through = true;
  hop.in_port = 1;
  hop.out_port = 2;
  hop.start = 1'000'000;       // 1 us
  hop.decision = 1'200'000;
  hop.end = 1'500'000;
  spans.push_back(hop);

  obs::SpanRecord throttle;
  throttle.trace_id = 7;
  throttle.hop = 1;
  throttle.kind = obs::SpanKind::kThrottle;
  throttle.out_port = 2;
  throttle.start = throttle.decision = throttle.end = 2'000'000;
  throttle.set_component("r2");
  spans.push_back(throttle);

  obs::SpanRecord deliver;
  deliver.trace_id = 7;
  deliver.hop = 2;
  deliver.kind = obs::SpanKind::kDeliver;
  deliver.in_port = 1;
  deliver.start = 0;
  deliver.decision = 3'000'000;
  deliver.end = 3'250'000;
  deliver.queue_delay = 4'000;
  deliver.set_component("dst.obs");
  spans.push_back(deliver);

  obs::SpanRecord sample;
  sample.trace_id = 7;
  sample.hop = 1;
  sample.kind = obs::SpanKind::kSample;
  sample.cut_through = true;
  sample.in_port = 1;
  sample.out_port = 2;
  sample.start = sample.decision = sample.end = 1'400'000;
  sample.set_component("r2");
  const std::uint8_t header[] = {0x53, 0x52, 0x50, 0x01, 0x02, 0x7F};
  sample.set_excerpt(header);
  spans.push_back(sample);
  return spans;
}

TEST(ExporterGolden, PrometheusText) {
  expect_golden_text("metrics.prom", obs::to_prometheus(fixture_snapshot()));
}

TEST(ExporterGolden, MetricsJson) {
  expect_golden_text("metrics.json", obs::to_json(fixture_snapshot()));
}

TEST(ExporterGolden, ChromeTraceJson) {
  expect_golden_text("trace.json", obs::to_chrome_trace(fixture_spans()));
}

TEST(Exporter, PrometheusBucketsAreCumulative) {
  const auto text = obs::to_prometheus(fixture_snapshot());
  // The le buckets must end with the total count, mirrored by _count.
  EXPECT_NE(text.find("viper_r1_hop_latency_ps_bucket{le=\"+Inf\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("viper_r1_hop_latency_ps_count 4"), std::string::npos);
}

TEST(Exporter, JsonHistogramCountAndSumMatchRecords) {
  // count comes from the histogram's dedicated total, not a re-sum of the
  // racing bucket reads; sum is the exact sum of recorded values.
  const auto json = obs::to_json(fixture_snapshot());
  EXPECT_NE(json.find("\"count\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"sum\": 5000901"), std::string::npos);
}

TEST(Exporter, LongInstanceNamesExportWhole) {
  // A line longer than any fixed format buffer: the value and the newline
  // (Prometheus) and the closing quote (JSON) must survive.
  const std::string instance(130, 'x');
  stats::Registry registry;
  const std::uint64_t forwarded = 7;
  registry.counter("viper." + instance + ".forwarded", forwarded);
  registry.histogram("viper." + instance + ".hop_latency_ps").record(900);
  const auto snapshot = registry.full_snapshot();

  const auto prom = obs::to_prometheus(snapshot);
  EXPECT_NE(prom.find("\nviper_" + instance + "_forwarded 7\n"),
            std::string::npos);
  EXPECT_NE(prom.find("viper_" + instance + "_hop_latency_ps_count 1\n"),
            std::string::npos);

  const auto json = obs::to_json(snapshot);
  EXPECT_NE(json.find("\"viper." + instance + ".forwarded\": 7"),
            std::string::npos);
  EXPECT_NE(json.find("\"viper." + instance + ".hop_latency_ps\": {"),
            std::string::npos);
}

TEST(Exporter, EmptySnapshotsAreWellFormed) {
  EXPECT_EQ(obs::to_prometheus({}), "");
  const auto json = obs::to_json({});
  EXPECT_NE(json.find("\"counters\": {}"), std::string::npos);
  const auto trace = obs::to_chrome_trace({});
  EXPECT_NE(trace.find("\"traceEvents\":["), std::string::npos);
}

// --- end-to-end: traced line, coherent spans -------------------------------

TEST(ObsEndToEnd, TracedLineYieldsMetricsAndCoherentSpans) {
  sim::Simulator sim;
  dir::Fabric fabric(sim);
  auto line = test::build_line(fabric, 2, "src.obs", "dst.obs");

  stats::Registry registry;
  obs::FlightRecorder recorder;
  fabric.enable_observability({&registry, &recorder});

  int delivered = 0;
  line.dst->set_default_handler([&](const viper::Delivery&) { ++delivered; });
  constexpr int kPackets = 5;
  for (int i = 0; i < kPackets; ++i) {
    line.src->send(test::line_route(2), test::pattern_bytes(200));
  }
  sim.run();
  ASSERT_EQ(delivered, kPackets);

  // Per-hop latency histograms fill at every router, end-to-end at dst.
  const auto snap = registry.full_snapshot();
  EXPECT_EQ(snap.histograms.at("viper.r1.hop_latency_ps").count, static_cast<std::uint64_t>(kPackets));
  EXPECT_EQ(snap.histograms.at("viper.r2.hop_latency_ps").count, static_cast<std::uint64_t>(kPackets));
  const auto& e2e = snap.histograms.at("host.dst_obs.e2e_latency_ps");
  EXPECT_EQ(e2e.count, static_cast<std::uint64_t>(kPackets));
  EXPECT_GT(e2e.sum, 0u);

  // Every packet was traced: group spans by trace id and check coherence.
  std::map<std::uint64_t, std::vector<obs::SpanRecord>> by_trace;
  for (const auto& span : recorder.spans()) {
    ASSERT_NE(span.trace_id, 0u);
    by_trace[span.trace_id].push_back(span);
  }
  EXPECT_EQ(by_trace.size(), static_cast<std::size_t>(kPackets));
  for (const auto& [trace, spans] : by_trace) {
    int hops = 0;
    int delivers = 0;
    sim::Time last_hop_start = -1;
    for (const auto& span : spans) {
      EXPECT_GE(span.decision, span.start) << "trace " << trace;
      EXPECT_GE(span.end, span.decision) << "trace " << trace;
      if (span.kind == obs::SpanKind::kHop) {
        // Spans land in record order, so hop starts must be monotone.
        EXPECT_GE(span.start, last_hop_start);
        last_hop_start = span.start;
        ++hops;
      }
      if (span.kind == obs::SpanKind::kDeliver) ++delivers;
    }
    EXPECT_EQ(hops, 2) << "one span per router hop, trace " << trace;
    EXPECT_EQ(delivers, 1) << "trace " << trace;
  }
}

TEST(ObsEndToEnd, UntracedRunRecordsNothing) {
  sim::Simulator sim;
  dir::Fabric fabric(sim);
  auto line = test::build_line(fabric, 1, "src.quiet", "dst.quiet");
  // Metrics only — no recorder, so no trace ids are minted.
  stats::Registry registry;
  obs::FlightRecorder recorder;
  obs::Observer metrics_only;
  metrics_only.registry = &registry;
  fabric.enable_observability(metrics_only);

  int delivered = 0;
  line.dst->set_default_handler([&](const viper::Delivery&) { ++delivered; });
  line.src->send(test::line_route(1), test::pattern_bytes(64));
  sim.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(recorder.recorded(), 0u);
  EXPECT_EQ(registry.full_snapshot()
                .histograms.at("viper.r1.hop_latency_ps")
                .count,
            1u);
}

}  // namespace
}  // namespace srp

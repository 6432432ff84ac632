// In-band path telemetry (INT riding the VIPER trailer).
//
// Covers the whole pipeline: the HopTelemetry wire codec and its edge
// cases (malformed payloads, postcard recovery from damaged images), the
// per-hop stamp on a clean line (reconstruction agrees with the fabric
// topology and the hop timing), the origin-side sampling discipline,
// truncation semantics (an MTU cut slices the newest record and the sink
// still localizes the damage), the kMaxTelemetryHops stamping bound, and
// the system-level contracts: a wired-but-unmarked fabric is
// byte-identical to an unwired one, the collector's reconstruction agrees
// with the FlightRecorder's first-person hop spans under full chaos, the
// coalescing drain stamps byte-identically across batch sizes, and the
// exporter output for the `int.*` namespace is pinned by goldens.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "directory/fabric.hpp"
#include "obs/export.hpp"
#include "obs/recorder.hpp"
#include "obs/telemetry.hpp"
#include "stats/registry.hpp"
#include "test_util.hpp"
#include "viper/codec.hpp"

namespace srp::obs {
namespace {

using test::build_line;
using test::expect_deterministic;
using test::Line;
using test::line_route;
using test::pattern_bytes;
using test::run_chaos;

constexpr std::uint64_t kSeed = 0x17A7;

HopTelemetry sample_record() {
  HopTelemetry t;
  t.router_id = 0xDEADBEEF;
  t.hop = 7;
  t.egress_port = 3;
  t.token = TokenOutcome::kMissOptimistic;
  t.cut_through = true;
  t.egress_down = true;
  t.arrival_ps = 0x0123456789ABCDEFULL;
  t.depart_ps = 0x0123456789ABFFFFULL;
  t.queue_wait_ps = 0xC0FFEE;
  t.queue_depth = 513;
  t.in_port = 0x0102;
  return t;
}

/// Encodes @p t as its full wire pseudo-segment (prefix + payload), the
/// byte sequence a router appends to the trailer.
wire::Bytes record_wire(const HopTelemetry& t) {
  std::array<std::uint8_t, kHopTelemetryWire> payload{};
  t.encode(payload);
  wire::Bytes out;
  core::SegmentFlags flags;
  flags.trm = true;
  viper::append_segment_raw(out, core::kTelemetryPort, core::TypeOfService{},
                            flags, {}, payload);
  return out;
}

// --- codec edge cases ------------------------------------------------------

TEST(IntCodec, RoundTripsEveryField) {
  const HopTelemetry t = sample_record();
  std::array<std::uint8_t, kHopTelemetryWire> payload{};
  t.encode(payload);
  const auto back = decode_hop_telemetry(payload);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, t);
  EXPECT_EQ(back->hop_latency(),
            static_cast<sim::Time>(t.depart_ps - t.arrival_ps));
}

TEST(IntCodec, RejectsMalformedPayloads) {
  std::array<std::uint8_t, kHopTelemetryWire> payload{};
  sample_record().encode(payload);

  // Wrong sizes: one byte short, one byte long, empty.
  EXPECT_FALSE(decode_hop_telemetry(
                   std::span(payload).first(kHopTelemetryWire - 1))
                   .has_value());
  std::vector<std::uint8_t> longer(payload.begin(), payload.end());
  longer.push_back(0);
  EXPECT_FALSE(decode_hop_telemetry(longer).has_value());
  EXPECT_FALSE(
      decode_hop_telemetry(std::span<const std::uint8_t>{}).has_value());

  // Token outcome beyond the enum range.
  auto bad_outcome = payload;
  bad_outcome[6] = static_cast<std::uint8_t>(TokenOutcome::kRejected) + 1;
  EXPECT_FALSE(decode_hop_telemetry(bad_outcome).has_value());

  // Unknown flag bits (only cut-through and egress-down are defined).
  auto bad_flags = payload;
  bad_flags[7] |= 0x04;
  EXPECT_FALSE(decode_hop_telemetry(bad_flags).has_value());
}

TEST(IntCodec, PostcardScanRecoversLastWholeRecord) {
  HopTelemetry first = sample_record();
  first.router_id = 11;
  first.hop = 0;
  HopTelemetry second = sample_record();
  second.router_id = 22;
  second.hop = 1;

  // A damaged image: leading garbage that no longer frames as segments,
  // two whole records, then a record sliced mid-payload by an MTU cut.
  wire::Bytes image = pattern_bytes(37, 0x90);
  const wire::Bytes a = record_wire(first);
  const wire::Bytes b = record_wire(second);
  image.insert(image.end(), a.begin(), a.end());
  const wire::Bytes gap = pattern_bytes(5, 0x41);
  image.insert(image.end(), gap.begin(), gap.end());
  image.insert(image.end(), b.begin(), b.end());
  const wire::Bytes whole = record_wire(sample_record());
  const wire::Bytes sliced(whole.begin(), whole.end() - 21);
  image.insert(image.end(), sliced.begin(), sliced.end());

  const auto postcard = last_postcard(image);
  ASSERT_TRUE(postcard.has_value());
  EXPECT_EQ(*postcard, second);

  // No record at all -> no postcard.
  EXPECT_FALSE(last_postcard(pattern_bytes(64, 3)).has_value());
  // A lone sliced record is not a postcard either.
  EXPECT_FALSE(last_postcard(sliced).has_value());
}

TEST(IntCodec, PathDigestKeysOnRealizedPath) {
  std::vector<HopTelemetry> path;
  for (std::uint32_t i = 0; i < 3; ++i) {
    HopTelemetry t;
    t.router_id = 100 + i;
    t.hop = static_cast<std::uint8_t>(i);
    t.in_port = 1;
    t.egress_port = 2;
    t.arrival_ps = 1000 * i;  // timing must NOT affect the digest
    path.push_back(t);
  }
  const std::uint64_t digest = path_digest(path);
  EXPECT_NE(digest, 0u);

  auto same_path = path;
  for (auto& t : same_path) t.arrival_ps += 7777;
  EXPECT_EQ(path_digest(same_path), digest);

  auto other_port = path;
  other_port[1].egress_port = 3;
  EXPECT_NE(path_digest(other_port), digest);

  auto other_router = path;
  other_router[2].router_id = 999;
  EXPECT_NE(path_digest(other_router), digest);
}

// --- clean-line reconstruction ---------------------------------------------

std::string hex16(std::uint64_t v) {
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << v;
  return out.str();
}

TEST(IntLine, ReconstructsPerHopProfile) {
  sim::Simulator sim;
  dir::Fabric fabric(sim);
  Line line = build_line(fabric, 3, "src.int", "dst.int");
  stats::Registry registry;
  FlightRecorder recorder;
  fabric.enable_observability({&registry, &recorder});
  PathCollector& collector = fabric.enable_path_telemetry();

  std::vector<viper::Delivery> deliveries;
  line.dst->set_default_handler(
      [&](const viper::Delivery& d) { deliveries.push_back(d); });

  std::uint64_t packet_id = 0;
  sim.at(sim::kMillisecond, [&] {
    packet_id = line.src->send(line_route(3), pattern_bytes(256));
  });
  sim.run();

  ASSERT_EQ(deliveries.size(), 1u);
  const viper::Delivery& d = deliveries.front();
  EXPECT_FALSE(d.truncated);
  ASSERT_EQ(d.path.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    const HopTelemetry& hop = d.path[i];
    EXPECT_EQ(hop.hop, i);
    EXPECT_EQ(hop.router_id, fabric.id_of(line.router(i)));
    EXPECT_EQ(hop.in_port, 1);     // line routers face the source on port 1
    EXPECT_EQ(hop.egress_port, 2);  // and the destination on port 2
    EXPECT_FALSE(hop.egress_down);
    EXPECT_GE(hop.depart_ps, hop.arrival_ps);
    if (i > 0) {
      EXPECT_GE(hop.arrival_ps, d.path[i - 1].depart_ps);
    }
  }

  // Per-router and host-side accounting.
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(line.router(i).stats().telemetry_stamped, 1u);
    EXPECT_EQ(line.router(i).stats().telemetry_overflow, 0u);
  }
  EXPECT_EQ(line.src->stats().telemetry_marked, 1u);

  // Collector reconstruction.
  const PathCollector::Totals& totals = collector.totals();
  EXPECT_EQ(totals.packets, 1u);
  EXPECT_EQ(totals.hops_stamped, 3u);
  EXPECT_EQ(totals.truncated, 0u);
  EXPECT_EQ(totals.decode_errors, 0u);
  EXPECT_EQ(totals.drops_localized, 0u);
  EXPECT_EQ(totals.paths, 1u);
  ASSERT_EQ(collector.records().size(), 1u);
  const PathRecord& record = collector.records().front();
  EXPECT_EQ(record.packet_id, packet_id);
  EXPECT_EQ(record.trace_id, packet_id);  // recorder on: trace id = packet id
  EXPECT_EQ(record.digest, path_digest(d.path));
  EXPECT_EQ(record.sent_at, d.sent_at);
  EXPECT_EQ(record.delivered_at, d.delivered_at);
  // Latency attribution: stamped + residual tile the end-to-end exactly.
  EXPECT_GT(record.stamped_latency(), 0);
  EXPECT_EQ(record.stamped_latency() + record.residual_latency(),
            d.delivered_at - d.sent_at);

  // `int.*` metrics landed, including the per-path series.
  const auto counters = registry.snapshot();
  EXPECT_EQ(counters.at("int.path.packets"), 1u);
  EXPECT_EQ(counters.at("int.path.hops_stamped"), 3u);
  EXPECT_EQ(counters.at("int.p" + hex16(record.digest) + ".packets"), 1u);
  EXPECT_EQ(registry.histogram("int.path.hop_latency_ps").count(), 3u);
  EXPECT_EQ(registry.histogram("int.path.e2e_ps").count(), 1u);

  // One kIntHop span per stamped hop, under the packet's trace id, whose
  // timeline is the record's.
  std::size_t int_spans = 0;
  for (const SpanRecord& span : recorder.spans()) {
    if (span.kind != SpanKind::kIntHop) continue;
    ++int_spans;
    EXPECT_EQ(span.trace_id, packet_id);
    ASSERT_LT(span.hop, d.path.size());
    const HopTelemetry& hop = d.path[span.hop];
    EXPECT_EQ(span.start, static_cast<sim::Time>(hop.arrival_ps));
    EXPECT_EQ(span.end, static_cast<sim::Time>(hop.depart_ps));
    EXPECT_EQ(span.in_port, hop.in_port);
    EXPECT_EQ(span.out_port, hop.egress_port);
    EXPECT_EQ(span.component_view(),
              "int.r" + std::to_string(hop.router_id));
  }
  EXPECT_EQ(int_spans, 3u);
}

TEST(IntLine, SamplerMarksOneInN) {
  sim::Simulator sim;
  dir::Fabric fabric(sim);
  Line line = build_line(fabric, 2, "src.int", "dst.int");
  dir::PathTelemetryConfig config;
  config.sample_period = 4;
  PathCollector& collector = fabric.enable_path_telemetry(config);

  std::size_t with_path = 0;
  std::size_t without_path = 0;
  line.dst->set_default_handler([&](const viper::Delivery& d) {
    if (d.path.empty()) {
      ++without_path;
    } else {
      ++with_path;
    }
  });
  for (int i = 0; i < 32; ++i) {
    sim.at((i + 1) * sim::kMillisecond,
           [&] { line.src->send(line_route(2), pattern_bytes(64)); });
  }
  sim.run();

  // The count-down sampler marks every 4th send regardless of its seeded
  // phase: exactly 8 of 32.
  EXPECT_EQ(line.src->stats().telemetry_marked, 8u);
  EXPECT_EQ(with_path, 8u);
  EXPECT_EQ(without_path, 24u);
  EXPECT_EQ(collector.totals().packets, 8u);
  EXPECT_EQ(collector.totals().hops_stamped, 16u);
}

TEST(IntLine, ForcedMarkOverridesPeriodZero) {
  sim::Simulator sim;
  dir::Fabric fabric(sim);
  Line line = build_line(fabric, 2, "src.int", "dst.int");
  dir::PathTelemetryConfig config;
  config.sample_period = 0;  // sampling off: only forced marks
  PathCollector& collector = fabric.enable_path_telemetry(config);

  std::vector<std::size_t> path_sizes;
  line.dst->set_default_handler([&](const viper::Delivery& d) {
    path_sizes.push_back(d.path.size());
  });
  sim.at(sim::kMillisecond,
         [&] { line.src->send(line_route(2), pattern_bytes(64)); });
  sim.at(2 * sim::kMillisecond, [&] {
    viper::SendOptions options;
    options.telemetry = true;
    line.src->send(line_route(2), pattern_bytes(64), options);
  });
  sim.run();

  ASSERT_EQ(path_sizes.size(), 2u);
  EXPECT_EQ(path_sizes[0], 0u);
  EXPECT_EQ(path_sizes[1], 2u);
  EXPECT_EQ(line.src->stats().telemetry_marked, 1u);
  EXPECT_EQ(collector.totals().packets, 1u);
}

// --- truncation + stamping bound -------------------------------------------

TEST(IntLine, TruncationLocalizesDrop) {
  // The last link's MTU is sized so the third router's stamp pushes the
  // packet over it: the cut slices through the newest telemetry record
  // (or removes it whole), exactly as it slices any trailer bytes.  The
  // sink must still localize the damage to the last intact stamp: r2.
  sim::Simulator sim;
  dir::Fabric fabric(sim);
  Line line = build_line(fabric, 3, "src.int", "dst.int", {},
                         [](int hop) {
                           dir::LinkParams params;
                           if (hop == 3) params.mtu = 1100;
                           return params;
                         });
  PathCollector& collector = fabric.enable_path_telemetry();

  sim.at(sim::kMillisecond,
         [&] { line.src->send(line_route(3), pattern_bytes(1000)); });
  sim.run();

  EXPECT_EQ(line.router(2).stats().truncated_forwards, 1u);
  EXPECT_EQ(line.router(2).stats().telemetry_stamped, 1u);

  const PathCollector::Totals& totals = collector.totals();
  EXPECT_EQ(totals.drops_localized, 1u);
  const auto& drops = collector.drops_after_router();
  ASSERT_EQ(drops.size(), 1u);
  // The postcard names r2: the packet was intact leaving it, damaged after.
  EXPECT_EQ(drops.begin()->first, fabric.id_of(line.router(1)));
  EXPECT_EQ(drops.begin()->second, 1u);
}

TEST(IntLine, StampStopsAtMaxHops) {
  sim::Simulator sim;
  dir::Fabric fabric(sim);
  Line line = build_line(fabric, 1, "src.int", "dst.int");
  PathCollector& collector = fabric.enable_path_telemetry();

  std::vector<viper::Delivery> deliveries;
  line.dst->set_default_handler(
      [&](const viper::Delivery& d) { deliveries.push_back(d); });

  // Inject arrivals directly so the side-band hop count can sit at the
  // bound — no legal route is 48 hops long (core::kMaxSegments).
  core::SourceRoute route = line_route(1);
  auto inject = [&](std::uint32_t hops, sim::Time at) {
    sim.at(at, [&, hops] {
      net::PacketPtr packet = fabric.network().packets().make(
          viper::encode_packet(route, pattern_bytes(64)), sim.now());
      packet->telemetry = true;
      packet->hops = hops;
      net::Arrival arrival;
      arrival.packet = std::move(packet);
      arrival.in_port = 1;
      arrival.head = sim.now();
      arrival.tail = sim.now();
      arrival.rate_bps = 1e9;
      line.router(0).on_arrival(arrival);
    });
  };
  inject(kMaxTelemetryHops, sim::kMillisecond);          // at the bound: skip
  inject(kMaxTelemetryHops - 1, 2 * sim::kMillisecond);  // below it: stamp

  sim.run();

  EXPECT_EQ(line.router(0).stats().telemetry_overflow, 1u);
  EXPECT_EQ(line.router(0).stats().telemetry_stamped, 1u);
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_TRUE(deliveries[0].path.empty());
  ASSERT_EQ(deliveries[1].path.size(), 1u);
  EXPECT_EQ(deliveries[1].path[0].hop, kMaxTelemetryHops - 1);
  EXPECT_EQ(collector.totals().packets, 2u);
  EXPECT_EQ(collector.totals().hops_stamped, 1u);
}

// --- system-level contracts under chaos --------------------------------------

std::function<void(dir::Fabric&)> telemetry_on(std::uint32_t period,
                                               std::size_t max_records =
                                                   1 << 15) {
  return [period, max_records](dir::Fabric& fabric) {
    dir::PathTelemetryConfig config;
    config.sample_period = period;
    config.collector.max_records = max_records;
    fabric.enable_path_telemetry(config);
  };
}

TEST(IntChaos, WiredButUnmarkedFabricIsByteIdentical) {
  // sample_period 0 wires every router and host for telemetry but marks
  // nothing: the whole run — delivered bytes, fault-engine RNG draws,
  // retransmit timelines — must be identical to an unwired fabric.
  const test::ChaosOutcome plain = run_chaos(kSeed);
  const test::ChaosOutcome wired =
      run_chaos(kSeed, {}, {}, telemetry_on(0));
  EXPECT_GT(plain.ok, 0);
  EXPECT_EQ(wired, plain);
}

TEST(IntChaos, CollectorAgreesWithFlightRecorder) {
  stats::Registry registry;
  FlightRecorder recorder(std::size_t{1} << 19);
  std::vector<PathRecord> records;
  PathCollector::Totals totals;
  std::map<std::uint32_t, std::uint64_t> drops;
  const test::ChaosOutcome outcome = run_chaos(
      kSeed, {&registry, &recorder},
      [&](dir::Fabric& fabric) {
        const PathCollector* collector = fabric.path_collector();
        ASSERT_NE(collector, nullptr);
        records = collector->records();
        totals = collector->totals();
        drops = collector->drops_after_router();
      },
      telemetry_on(2));
  EXPECT_GT(outcome.ok, 0);
  ASSERT_EQ(recorder.dropped(), 0u);
  ASSERT_GT(records.size(), 100u);

  // Index the routers' first-person kHop spans; every field the stamp
  // carries is also in the span, so agreement is exact per hop.
  std::map<std::string, int> hop_spans;
  std::size_t int_spans = 0;
  for (const SpanRecord& span : recorder.spans()) {
    if (span.kind == SpanKind::kIntHop) ++int_spans;
    if (span.kind != SpanKind::kHop) continue;
    std::ostringstream key;
    key << span.trace_id << '|' << span.hop << '|'
        << static_cast<int>(span.token) << '|' << span.cut_through << '|'
        << span.in_port << '|' << span.out_port << '|' << span.start << '|'
        << span.end;
    ++hop_spans[std::move(key).str()];
  }
  // The collector re-emitted exactly one kIntHop span per decoded record.
  EXPECT_EQ(int_spans, totals.hops_stamped);

  std::size_t hops_checked = 0;
  std::size_t hops_matched = 0;
  for (const PathRecord& record : records) {
    for (const HopTelemetry& hop : record.hops) {
      ++hops_checked;
      std::ostringstream key;
      key << record.trace_id << '|' << static_cast<std::uint32_t>(hop.hop)
          << '|' << static_cast<int>(hop.token) << '|' << hop.cut_through
          << '|' << hop.in_port << '|'
          << static_cast<int>(hop.egress_port) << '|' << hop.arrival_ps
          << '|' << hop.depart_ps;
      const auto it = hop_spans.find(std::move(key).str());
      if (it != hop_spans.end() && it->second > 0) {
        --it->second;
        ++hops_matched;
      }
    }
  }
  ASSERT_GT(hops_checked, 300u);
  // The only divergence allowed is in-flight corruption that still decodes
  // as a plausible record: the reconstruction must agree with the routers'
  // own timeline for (essentially) every intact stamp.
  EXPECT_GE(hops_matched * 10, hops_checked * 9)
      << hops_matched << " of " << hops_checked << " hops matched";

  // Drop localization is internally consistent and actually fired under a
  // 1% corruption + truncating-fault plan.
  std::uint64_t localized = 0;
  for (const auto& [router, count] : drops) localized += count;
  EXPECT_EQ(localized, totals.drops_localized);
  EXPECT_GT(totals.packets, 0u);
  const auto counters = registry.snapshot();
  EXPECT_EQ(counters.at("int.path.packets"), totals.packets);
  EXPECT_EQ(counters.at("int.path.hops_stamped"), totals.hops_stamped);
}

/// ChaosOutcome + collector totals, flattened for EXPECT_EQ diffing.
test::ChaosDigest telemetry_chaos_digest(
    const std::function<void(dir::Fabric&)>& extra_configure = {}) {
  test::ChaosDigest digest;
  const test::ChaosOutcome outcome = run_chaos(
      kSeed, {},
      [&](dir::Fabric& fabric) {
        const PathCollector* collector = fabric.path_collector();
        ASSERT_NE(collector, nullptr);
        const PathCollector::Totals& totals = collector->totals();
        digest["int.packets"] = totals.packets;
        digest["int.hops_stamped"] = totals.hops_stamped;
        digest["int.truncated"] = totals.truncated;
        digest["int.decode_errors"] = totals.decode_errors;
        digest["int.drops_localized"] = totals.drops_localized;
        digest["int.paths"] = totals.paths;
        for (const auto& [router, count] :
             collector->drops_after_router()) {
          digest["int.drops_after." + std::to_string(router)] = count;
        }
        // Per-record digest: every reconstructed journey, all hops.
        std::uint64_t journeys = 0;
        for (const PathRecord& record : collector->records()) {
          std::vector<std::uint8_t> bytes;
          for (const HopTelemetry& hop : record.hops) {
            std::array<std::uint8_t, kHopTelemetryWire> payload{};
            hop.encode(payload);
            bytes.insert(bytes.end(), payload.begin(), payload.end());
          }
          journeys += record.trace_id + record.digest +
                      static_cast<std::uint64_t>(record.delivered_at) +
                      test::fnv1a(bytes);
        }
        digest["int.journey_hash"] = journeys;
      },
      [&](dir::Fabric& fabric) {
        telemetry_on(2)(fabric);
        if (extra_configure) extra_configure(fabric);
      });
  digest["chaos.ok"] = static_cast<std::uint64_t>(outcome.ok);
  digest["chaos.completed"] = static_cast<std::uint64_t>(outcome.completed);
  digest["chaos.response_hash"] = outcome.response_hash;
  return digest;
}

TEST(IntChaos, TelemetryRunIsDeterministic) {
  expect_deterministic([] { return telemetry_chaos_digest(); });
}

TEST(IntBatch, ReconstructionIdenticalAcrossBatchSizes) {
  // The coalescing drain must stamp byte-identically: queue-state reads
  // at stamp time happen just before this packet's enqueue in both modes,
  // so every reconstructed journey — not just the totals — matches the
  // uncoalesced run for every batch size.
  const test::ChaosDigest reference = telemetry_chaos_digest();
  EXPECT_GT(reference.at("int.hops_stamped"), 0u);
  for (const std::size_t batch : {std::size_t{1}, std::size_t{4},
                                  std::size_t{16}, std::size_t{64}}) {
    const test::ChaosDigest batched =
        telemetry_chaos_digest([batch](dir::Fabric& fabric) {
          viper::ViperRouter::BatchConfig config;
          config.max_burst = batch;
          fabric.enable_batching(config);
        });
    EXPECT_EQ(batched, reference) << "batch size " << batch;
  }
}

// --- exporter goldens --------------------------------------------------------

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

TEST(IntGoldens, ExportersPinned) {
  sim::Simulator sim;
  dir::Fabric fabric(sim);
  Line line = build_line(fabric, 2, "src.int", "dst.int");
  stats::Registry registry;
  FlightRecorder recorder;
  fabric.enable_observability({&registry, &recorder});
  fabric.enable_path_telemetry();

  const std::size_t sizes[] = {64, 256, 900};
  for (std::size_t i = 0; i < 3; ++i) {
    sim.at((i + 1) * sim::kMillisecond, [&, i] {
      line.src->send(line_route(2), pattern_bytes(sizes[i]));
    });
  }
  sim.run();

  // Only the telemetry namespace goes into the goldens, so unrelated
  // metric churn elsewhere cannot invalidate them.
  const stats::MetricsSnapshot full = registry.full_snapshot();
  stats::MetricsSnapshot snap;
  for (const auto& [name, value] : full.counters) {
    if (name.starts_with("int.")) snap.counters[name] = value;
  }
  for (const auto& [name, value] : full.gauges) {
    if (name.starts_with("int.")) snap.gauges[name] = value;
  }
  for (const auto& [name, value] : full.histograms) {
    if (name.starts_with("int.")) snap.histograms[name] = value;
  }
  EXPECT_FALSE(snap.counters.empty());

  std::vector<SpanRecord> int_spans;
  for (const SpanRecord& span : recorder.spans()) {
    if (span.kind == SpanKind::kIntHop) int_spans.push_back(span);
  }
  EXPECT_EQ(int_spans.size(), 6u);  // 3 packets x 2 hops

  expect_golden_text("int.prom", to_prometheus(snap));
  expect_golden_text("int.json", to_json(snap));
  expect_golden_text("int_trace.json", to_chrome_trace(int_spans));
}

}  // namespace
}  // namespace srp::obs

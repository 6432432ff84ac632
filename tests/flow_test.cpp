// Flow accounting & introspection coverage: space-saving table guarantees
// (overestimate-only counts, bounded error, guaranteed heavy hitters),
// deterministic 1-in-N sampling, plane scoping, the JSON/IPFIX exports
// (frozen under tests/golden/), feeder identification, ledger
// reconciliation and the whole-fabric introspection snapshot.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "directory/fabric.hpp"
#include "directory/introspect.hpp"
#include "flow/export.hpp"
#include "flow/observer.hpp"
#include "flow/plane.hpp"
#include "flow/sampler.hpp"
#include "flow/table.hpp"
#include "obs/recorder.hpp"
#include "test_util.hpp"
#include "tokens/token.hpp"
#include "viper/codec.hpp"
#include "viper/router.hpp"
#include "wire/buffer.hpp"

namespace srp {
namespace {

// --- flow table: exact accounting below capacity ---------------------------

flow::FlowKey key_of(std::uint64_t digest, std::uint32_t account = 0,
                     std::uint8_t tos = 0) {
  return flow::FlowKey{digest, account, tos};
}

TEST(FlowTable, ExactCountsBelowCapacity) {
  flow::FlowTable table(8);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(table.record(key_of(1), 100, true, i * 10, 1, 2));
  }
  EXPECT_FALSE(table.record(key_of(2), 999, false, 60, 3, 2));

  const auto all = table.all();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].key, key_of(1));
  EXPECT_EQ(all[0].packets, 5u);
  EXPECT_EQ(all[0].bytes, 500u);
  EXPECT_EQ(all[0].error_bytes, 0u);
  EXPECT_EQ(all[0].cut_through, 5u);
  EXPECT_EQ(all[0].store_forward, 0u);
  EXPECT_EQ(all[0].first_seen, 0);
  EXPECT_EQ(all[0].last_seen, 40);
  EXPECT_EQ(all[1].bytes, 999u);
  EXPECT_EQ(all[1].store_forward, 1u);

  const auto top = table.top(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].key, key_of(2));  // bytes-descending

  EXPECT_EQ(table.stats().recorded, 6u);
  EXPECT_EQ(table.stats().evictions, 0u);
  EXPECT_EQ(table.stats().total_bytes, 500u + 999u);
}

TEST(FlowTable, DistinctKeysPerAccountAndTos) {
  flow::FlowTable table(8);
  table.record(key_of(1, 7, 0), 10, true, 0, 1, 2);
  table.record(key_of(1, 8, 0), 10, true, 0, 1, 2);
  table.record(key_of(1, 7, 3), 10, true, 0, 1, 2);
  EXPECT_EQ(table.size(), 3u);
}

// --- flow table: space-saving guarantees -----------------------------------

TEST(FlowTable, SpaceSavingInheritsEvictedCounts) {
  flow::FlowTable table(2);
  table.record(key_of(1), 100, true, 0, 1, 2);
  table.record(key_of(2), 50, true, 1, 1, 2);
  // Table full; key 3 must evict the minimum (key 2, 50 bytes) and inherit
  // its counts as error.
  EXPECT_TRUE(table.record(key_of(3), 10, true, 2, 1, 2));

  const auto all = table.all();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].key, key_of(1));
  EXPECT_EQ(all[1].key, key_of(3));
  EXPECT_EQ(all[1].bytes, 60u);        // 50 inherited + 10 own
  EXPECT_EQ(all[1].error_bytes, 50u);  // the inherited part
  EXPECT_EQ(all[1].packets, 2u);
  EXPECT_EQ(all[1].error_packets, 1u);
  EXPECT_EQ(table.stats().evictions, 1u);
}

TEST(FlowTable, SpaceSavingBoundsAndHeavyHitterGuarantee) {
  // Adversarial stream: 3 heavy keys plus a churn of 200 one-packet keys,
  // through a 16-slot table.
  constexpr std::size_t kCapacity = 16;
  flow::FlowTable table(kCapacity);
  std::map<std::uint64_t, std::uint64_t> truth;
  sim::Rng rng(42);
  const auto feed = [&](std::uint64_t digest, std::uint32_t bytes) {
    truth[digest] += bytes;
    table.record(key_of(digest), bytes, true, 0, 1, 2);
  };
  for (int round = 0; round < 100; ++round) {
    feed(1, 1000);
    feed(2, 700);
    feed(3, 400);
    feed(1000 + rng.uniform_int(0, 199), 60);
  }

  const std::uint64_t total = table.stats().total_bytes;
  const std::uint64_t bound = total / kCapacity;
  for (const auto& r : table.all()) {
    // Overestimate-only, with error at most total/m.
    EXPECT_LE(r.error_bytes, bound);
    const std::uint64_t true_bytes = truth.at(r.key.route_digest);
    EXPECT_GE(r.bytes, true_bytes);
    EXPECT_LE(r.bytes - r.error_bytes, true_bytes);
  }
  // Any key with true volume > total/m is guaranteed monitored, and the
  // heavy keys dominate the top of the ranking.
  const auto top = table.top(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].key, key_of(1));
  EXPECT_EQ(top[1].key, key_of(2));
  EXPECT_EQ(top[2].key, key_of(3));
  for (const auto& [digest, bytes] : truth) {
    if (bytes > bound) {
      bool monitored = false;
      for (const auto& r : table.all()) {
        monitored |= r.key.route_digest == digest;
      }
      EXPECT_TRUE(monitored) << "heavy key " << digest << " not monitored";
    }
  }
}

TEST(FlowTable, DeterministicAcrossReruns) {
  const auto run = [] {
    flow::FlowTable table(4);
    sim::Rng rng(7);
    for (int i = 0; i < 500; ++i) {
      table.record(key_of(rng.uniform_int(1, 12)),
                   static_cast<std::uint32_t>(rng.uniform_int(40, 1500)),
                   rng.chance(0.5), i, 1, 2);
    }
    std::vector<std::uint64_t> digest;
    for (const auto& r : table.all()) {
      digest.push_back(r.key.route_digest);
      digest.push_back(r.bytes);
      digest.push_back(r.error_bytes);
    }
    return digest;
  };
  test::expect_deterministic(run);
}

// --- sampler ---------------------------------------------------------------

TEST(Sampler, PeriodEdgeCases) {
  flow::Sampler never(1, "x", 0);
  flow::Sampler always(1, "x", 1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(never.sample());
    EXPECT_TRUE(always.sample());
  }
}

TEST(Sampler, OneInNAndDeterministic) {
  const auto draw = [](std::uint64_t seed, std::string_view component) {
    flow::Sampler s(seed, component, 8);
    std::vector<bool> out;
    for (int i = 0; i < 64; ++i) out.push_back(s.sample());
    return out;
  };
  const auto a = draw(1, "r1");
  EXPECT_EQ(a, draw(1, "r1"));  // replayable
  // Exactly 1 in 8 after the phase offset.
  EXPECT_EQ(static_cast<int>(std::count(a.begin(), a.end(), true)), 8);
  // The phase is drawn per (seed, component) stream: across many
  // components the offsets must not all coincide (8 possible phases, so
  // individual collisions are expected and fine).
  std::set<std::vector<bool>> distinct;
  for (int c = 0; c < 16; ++c) {
    distinct.insert(draw(1, test::numbered("r", c)));
  }
  EXPECT_GT(distinct.size(), 1u);
}

// --- observer + plane ------------------------------------------------------

obs::HopRecord sample_of(std::uint64_t digest, std::uint32_t bytes,
                         sim::Time now, std::uint16_t in_port = 1,
                         std::uint16_t out_port = 2) {
  obs::HopRecord s;
  s.route_digest = digest;
  s.packet_id = digest;
  s.account = 7;
  s.tos_class = 0;
  s.cut_through = true;
  s.in_port = in_port;
  s.out_port = out_port;
  s.bytes = bytes;
  s.earliest = now;
  return s;
}

TEST(FlowPlane, ScopedSharesObserverByName) {
  flow::FlowPlane plane;
  flow::FlowObserver& a = plane.scoped("r1");
  flow::FlowObserver& b = plane.scoped("r1");
  flow::FlowObserver& c = plane.scoped("r2");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);

  a.on_forward(sample_of(11, 100, 5));
  const auto* observer = plane.observer("r1");
  ASSERT_NE(observer, nullptr);
  EXPECT_EQ(observer->table().size(), 1u);
  EXPECT_EQ(plane.observer("r2")->table().size(), 0u);
  EXPECT_EQ(plane.observer("nope"), nullptr);

  const auto observers = plane.observers();
  ASSERT_EQ(observers.size(), 2u);
  EXPECT_EQ(observers[0]->name(), "r1");  // name-sorted
  EXPECT_EQ(observers[1]->name(), "r2");
}

TEST(FlowPlane, AccountRollupSumsObservers) {
  flow::FlowPlane plane;
  plane.scoped("r1").on_charge(7, 100);
  plane.scoped("r1").on_charge(7, 50);
  plane.scoped("r2").on_charge(7, 25);
  plane.scoped("r2").on_charge(9, 10);

  const auto rollup = plane.account_rollup();
  ASSERT_EQ(rollup.size(), 2u);
  EXPECT_EQ(rollup.at(7).packets, 3u);
  EXPECT_EQ(rollup.at(7).bytes, 175u);
  EXPECT_EQ(rollup.at(9).bytes, 10u);
}

TEST(FlowObserver, SamplerCapturesExcerptIntoRecorder) {
  obs::FlightRecorder recorder(64);
  flow::FlowConfig config;
  config.sample_period = 1;  // capture every packet
  flow::FlowObserver observer("r1", config, nullptr, &recorder);

  const wire::Bytes header = test::pattern_bytes(24);
  auto sample = sample_of(5, 100, 42);
  sample.trace_id = 0;  // untraced: span falls back to the packet id
  sample.header = header;
  observer.on_forward(sample);

  EXPECT_EQ(observer.sampled(), 1u);
  const auto spans = recorder.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].kind, obs::SpanKind::kSample);
  EXPECT_EQ(spans[0].trace_id, 5u);
  EXPECT_EQ(spans[0].excerpt_len, obs::SpanRecord::kExcerptSize);
  EXPECT_EQ(spans[0].excerpt[0], header[0]);
  EXPECT_EQ(spans[0].component_view(), "r1");

  // Through a router: a traced forward's kSample span and its kHop span
  // are made from one hop record, so they agree on every shared fact.
  sim::Simulator sim;
  viper::ViperRouter router(sim, "r2", {});
  const net::LinkConfig link;
  router.add_port(link);
  router.add_port(link);
  router.port(2).set_up(false);  // drop at enqueue, zero events
  obs::FlightRecorder hop_spans(64);
  flow::FlowPlane plane(config, nullptr, &hop_spans);
  router.set_observer({nullptr, &hop_spans, &plane});
  core::SourceRoute route;
  route.segments = {test::p2p_segment(2), test::local_segment()};
  net::PacketFactory packets;
  net::Arrival arrival;
  arrival.packet =
      packets.make(viper::encode_packet(route, test::pattern_bytes(64)), 0);
  arrival.packet->trace_id = 77;
  arrival.in_port = 1;
  arrival.head = 1000;
  arrival.tail = 2000;
  arrival.rate_bps = link.rate_bps;
  router.on_arrival(arrival);

  const auto both = hop_spans.spans();
  ASSERT_EQ(both.size(), 2u);
  const auto kind_is = [](obs::SpanKind kind) {
    return [kind](const obs::SpanRecord& s) { return s.kind == kind; };
  };
  const auto hop = std::find_if(both.begin(), both.end(),
                                kind_is(obs::SpanKind::kHop));
  const auto sampled = std::find_if(both.begin(), both.end(),
                                    kind_is(obs::SpanKind::kSample));
  ASSERT_NE(hop, both.end());
  ASSERT_NE(sampled, both.end());
  EXPECT_EQ(hop->in_port, 1u);
  EXPECT_EQ(hop->out_port, 2u);
  EXPECT_TRUE(hop->cut_through);
  EXPECT_GT(hop->end, hop->start);
  EXPECT_EQ(sampled->trace_id, hop->trace_id);
  EXPECT_EQ(sampled->in_port, hop->in_port);
  EXPECT_EQ(sampled->out_port, hop->out_port);
  EXPECT_EQ(sampled->cut_through, hop->cut_through);
  EXPECT_EQ(sampled->end, hop->end);
}

// --- export goldens --------------------------------------------------------

std::string golden_path(const std::string& name) {
  return std::string(GOLDEN_DIR) + "/" + name;
}

void expect_golden(const std::string& name, const std::string& text) {
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
  EXPECT_EQ(text, golden) << "export drifted from " << name;
}

/// A small deterministic plane: two components, three flows, two accounts.
flow::FlowPlane& fixture_plane() {
  static flow::FlowPlane plane(flow::FlowConfig{4, 0, 0x5EED});
  static bool built = false;
  if (!built) {
    built = true;
    flow::FlowObserver& r1 = plane.scoped("r1");
    for (int i = 0; i < 3; ++i) {
      auto s = sample_of(0x1111, 1000, 10 + i);
      r1.on_forward(s);
    }
    auto small = sample_of(0x2222, 64, 15);
    small.account = 9;
    small.cut_through = false;
    r1.on_forward(small);
    r1.on_charge(7, 3000);
    r1.on_charge(9, 64);
    plane.scoped("r2").on_forward(sample_of(0x1111, 1000, 20, 2, 1));
    plane.scoped("r2").on_charge(7, 1000);
  }
  return plane;
}

TEST(FlowExportGolden, Json) {
  expect_golden("flow.json", flow::to_json(fixture_plane(), 4));
}

TEST(FlowExportGolden, Ipfix) {
  std::vector<flow::FlowRecord> records;
  for (const auto* observer : fixture_plane().observers()) {
    const auto top = observer->table().top(4);
    records.insert(records.end(), top.begin(), top.end());
  }
  const wire::Bytes bytes =
      flow::to_ipfix(records, /*observation_domain=*/1,
                     /*export_time_sec=*/1'234'567, /*sequence=*/1);
  expect_golden("flow.ipfix",
                std::string(bytes.begin(), bytes.end()));
}

TEST(FlowExport, IpfixFramingParsesBack) {
  std::vector<flow::FlowRecord> records;
  flow::FlowRecord r;
  r.key = key_of(0xDEAD'BEEF'0000'0001ULL, 7, 3);
  r.packets = 10;
  r.bytes = 12'345;
  r.error_packets = 1;
  r.error_bytes = 60;
  r.first_seen = 1'000'000;
  r.last_seen = 9'000'000;
  r.cut_through = 8;
  r.store_forward = 2;
  r.last_in_port = 1;
  r.last_out_port = 2;
  records.push_back(r);

  const wire::Bytes msg = flow::to_ipfix(records, 77, 1'234'567, 5);
  wire::Reader reader(msg);
  EXPECT_EQ(reader.u16(), 10u);                // IPFIX version
  EXPECT_EQ(reader.u16(), msg.size());         // back-patched length
  EXPECT_EQ(reader.u32(), 1'234'567u);         // export time
  EXPECT_EQ(reader.u32(), 5u);                 // sequence
  EXPECT_EQ(reader.u32(), 77u);                // observation domain

  EXPECT_EQ(reader.u16(), 2u);                 // template set id
  const std::uint16_t template_set_len = reader.u16();
  EXPECT_EQ(reader.u16(), flow::kTemplateId);
  const std::uint16_t field_count = reader.u16();
  EXPECT_EQ(field_count, 13u);
  EXPECT_EQ(template_set_len, 4u + 4u + field_count * 8u);
  std::size_t record_len = 0;
  for (std::uint16_t f = 0; f < field_count; ++f) {
    const std::uint16_t id = reader.u16();
    EXPECT_TRUE(id & 0x8000u);                 // enterprise bit
    record_len += reader.u16();
    EXPECT_EQ(reader.u32(), flow::kEnterpriseNumber);
  }

  EXPECT_EQ(reader.u16(), flow::kTemplateId);  // data set id
  const std::uint16_t data_set_len = reader.u16();
  EXPECT_EQ(data_set_len, 4u + record_len);
  EXPECT_EQ(reader.u64(), r.key.route_digest);
  EXPECT_EQ(reader.u32(), 7u);
  EXPECT_EQ(reader.u8(), 3u);
  EXPECT_EQ(reader.u16(), 1u);
  EXPECT_EQ(reader.u16(), 2u);
  EXPECT_EQ(reader.u64(), 10u);
  EXPECT_EQ(reader.u64(), 12'345u);
  EXPECT_EQ(reader.u64(), 1u);
  EXPECT_EQ(reader.u64(), 60u);
  EXPECT_EQ(reader.u64(), 1'000'000u);
  EXPECT_EQ(reader.u64(), 9'000'000u);
  EXPECT_EQ(reader.u64(), 8u);
  EXPECT_EQ(reader.u64(), 2u);
  EXPECT_TRUE(reader.done());
}

// --- end-to-end: fabric with flow accounting -------------------------------

TEST(FlowEndToEnd, RoutersAccountFlowsByRouteAndAccount) {
  sim::Simulator sim;
  dir::Fabric fabric(sim);
  auto line = test::build_line(fabric, 2, "src.flow", "dst.flow");
  fabric.enable_tokens(0xF10, /*enforce=*/true);

  stats::Registry registry;
  flow::FlowPlane plane(flow::FlowConfig{64, 4, 0x5EED}, &registry);
  fabric.enable_observability({&registry, nullptr, &plane});

  int delivered = 0;
  line.dst->set_default_handler([&](const viper::Delivery&) { ++delivered; });

  dir::QueryOptions options;
  options.account = 42;
  const auto routes = fabric.directory().query(fabric.id_of(*line.src),
                                               "dst.flow", options);
  ASSERT_FALSE(routes.empty());
  const wire::Bytes payload = test::pattern_bytes(400);
  constexpr int kPackets = 12;
  for (int i = 0; i < kPackets; ++i) {
    sim.after(i * 50 * sim::kMicrosecond,
              [&] { line.src->send(routes.front().route, payload); });
  }
  sim.run();
  ASSERT_EQ(delivered, kPackets);

  wire::Bytes scratch;
  const std::uint64_t digest =
      viper::route_digest(routes.front().route, scratch);
  for (const auto* router : {line.routers[0], line.routers[1]}) {
    const auto* observer = plane.observer(std::string(router->name()));
    ASSERT_NE(observer, nullptr) << router->name();
    // The first packet rides the optimistic cache miss before the token
    // body (and its account) is known, so it lands under account 0; the
    // remaining kPackets-1 are cache hits attributed to account 42.  Both
    // rows carry the same route digest at every hop.
    const auto all = observer->table().all();
    ASSERT_EQ(all.size(), 2u) << router->name();
    std::uint64_t total_packets = 0;
    for (const auto& record : all) {
      EXPECT_EQ(record.key.route_digest, digest);
      EXPECT_EQ(record.error_bytes, 0u);
      total_packets += record.packets;
    }
    EXPECT_EQ(total_packets, static_cast<std::uint64_t>(kPackets));
    const auto top = observer->table().top(1);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].key.account, 42u);
    EXPECT_EQ(top[0].packets, static_cast<std::uint64_t>(kPackets) - 1);
  }

  // Per-account roll-up reconciles exactly with the ledger.
  const auto rollup = plane.account_rollup();
  const auto ledger = fabric.ledger().all();
  ASSERT_TRUE(rollup.contains(42));
  ASSERT_TRUE(ledger.contains(42));
  EXPECT_EQ(rollup.at(42).packets, ledger.at(42).packets);
  EXPECT_EQ(rollup.at(42).bytes, ledger.at(42).bytes);

  // Samplers fired (period 4, 12 packets per router).
  EXPECT_GT(plane.observer("r1")->sampled(), 0u);
}

TEST(FlowEndToEnd, NoFlowSinkMeansNoFlowState) {
  sim::Simulator sim;
  dir::Fabric fabric(sim);
  auto line = test::build_line(fabric, 1, "src.noflow", "dst.noflow");

  stats::Registry registry;
  fabric.enable_observability({&registry, nullptr, nullptr});

  int delivered = 0;
  line.dst->set_default_handler([&](const viper::Delivery&) { ++delivered; });
  const auto routes =
      fabric.directory().query(fabric.id_of(*line.src), "dst.noflow", {});
  ASSERT_FALSE(routes.empty());
  line.src->send(routes.front().route, test::pattern_bytes(64));
  sim.run();
  // No flow plane wired: forwarding works, no flow metrics appear
  // (pay-only-when-enabled).
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(line.routers[0]->stats().forwarded, 1u);
  for (const auto& [name, value] : registry.snapshot()) {
    EXPECT_NE(name.substr(0, 5), "flow.") << name;
  }
}

TEST(FlowEndToEnd, IntrospectorSnapshotsFabric) {
  sim::Simulator sim;
  dir::Fabric fabric(sim);
  auto line = test::build_line(fabric, 2, "src.introspect", "dst.introspect");
  fabric.enable_tokens(0x1A7, /*enforce=*/true);
  fabric.enable_congestion_control();

  stats::Registry registry;
  flow::FlowPlane plane(flow::FlowConfig{64, 8, 0x5EED}, &registry);
  fabric.enable_observability({&registry, nullptr, &plane});

  line.dst->set_default_handler([](const viper::Delivery&) {});
  dir::QueryOptions options;
  options.account = 5;
  const auto routes = fabric.directory().query(fabric.id_of(*line.src),
                                               "dst.introspect", options);
  ASSERT_FALSE(routes.empty());
  for (int i = 0; i < 6; ++i) {
    sim.after(i * 30 * sim::kMicrosecond, [&] {
      line.src->send(routes.front().route, test::pattern_bytes(300));
    });
  }
  // Congestion controllers tick forever; run a bounded window.
  sim.run_until(5 * sim::kMillisecond);

  obs::Introspector introspector(fabric, &plane, /*top_k=*/4);
  const std::string snapshot = introspector.snapshot_json(sim.now());

  // Structure: routers and hosts by name, per-port gauges, congestion and
  // flow sections, and the account reconciliation block.
  EXPECT_NE(snapshot.find("\"routers\":{\"r1\":"), std::string::npos);
  EXPECT_NE(snapshot.find("\"token_cache_entries\":"), std::string::npos);
  EXPECT_NE(snapshot.find("\"queue_packets\":"), std::string::npos);
  EXPECT_NE(snapshot.find("\"congestion\":["), std::string::npos);
  EXPECT_NE(snapshot.find("\"flows\":["), std::string::npos);
  EXPECT_NE(snapshot.find("\"src.introspect\":"), std::string::npos);
  // Reconciliation: the flow mirror equals the ledger in the same object.
  const auto ledger = fabric.ledger().all();
  ASSERT_TRUE(ledger.contains(5));
  char expect[160];
  std::snprintf(expect, sizeof expect,
                "\"5\":{\"ledger_packets\":%llu,\"ledger_bytes\":%llu"
                ",\"flow_packets\":%llu,\"flow_bytes\":%llu}",
                static_cast<unsigned long long>(ledger.at(5).packets),
                static_cast<unsigned long long>(ledger.at(5).bytes),
                static_cast<unsigned long long>(ledger.at(5).packets),
                static_cast<unsigned long long>(ledger.at(5).bytes));
  EXPECT_NE(snapshot.find(expect), std::string::npos) << snapshot;

  // Snapshots are pure reads: taking one twice gives identical documents.
  EXPECT_EQ(snapshot, introspector.snapshot_json(sim.now()));
}

TEST(FlowEndToEnd, DeterministicAcrossReruns) {
  const auto run = [] {
    sim::Simulator sim;
    dir::Fabric fabric(sim);
    auto line = test::build_line(fabric, 3, "src.det", "dst.det");
    fabric.enable_tokens(0xD37, /*enforce=*/true);

    stats::Registry registry;
    obs::FlightRecorder recorder;
    flow::FlowPlane plane(flow::FlowConfig{32, 4, 0xABCD}, &registry,
                          &recorder);
    fabric.enable_observability({&registry, &recorder, &plane});

    line.dst->set_default_handler([](const viper::Delivery&) {});
    dir::QueryOptions options;
    options.account = 3;
    const auto routes = fabric.directory().query(fabric.id_of(*line.src),
                                                 "dst.det", options);
    for (int i = 0; i < 20; ++i) {
      sim.after(i * 40 * sim::kMicrosecond, [&] {
        line.src->send(routes.front().route, test::pattern_bytes(200));
      });
    }
    sim.run();
    return flow::to_json(plane, 8);
  };
  test::expect_deterministic(run);
}

}  // namespace
}  // namespace srp

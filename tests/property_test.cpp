// Property-based tests over whole internetworks.
//
//  * Random connected topologies: every directory-issued route delivers,
//    and its trailer-reversed return route delivers back (the paper's core
//    invariant, checked across many shapes and seeds).
//  * Corruption fuzz: byte-flipped packets never crash anything; they are
//    dropped at a router (malformed / bad port) or rejected by the
//    transport checksum, and every loss is visible in a counter.
//  * Route reversal round trips across random chains with random
//    priorities and payloads.
//  * Fault-lane composition: (corrupt ∘ duplicate ∘ reorder) may damage,
//    repeat or delay packets but never invents bytes from thin air.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <optional>

#include "directory/fabric.hpp"
#include "fault/engine.hpp"
#include "obs/telemetry.hpp"
#include "reference_codec.hpp"
#include "sim/random.hpp"
#include "test_util.hpp"
#include "transport/header.hpp"
#include "viper/codec.hpp"

namespace srp {
namespace {

using test::local_segment;
using test::p2p_segment;
using test::pattern_bytes;
using test::RandomNet;

class RandomTopologyProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomTopologyProperty, EveryIssuedRouteDeliversAndReverses) {
  const std::uint64_t seed = GetParam();
  sim::Rng rng(seed * 31 + 7);
  RandomNet net(seed, 3 + static_cast<int>(seed % 8));

  // Try several random host pairs.
  for (int trial = 0; trial < 5; ++trial) {
    const auto from = rng.uniform_int(0, net.hosts.size() - 1);
    const auto to = rng.uniform_int(0, net.hosts.size() - 1);
    if (from == to) continue;
    viper::ViperHost& src = *net.hosts[from];
    viper::ViperHost& dst = *net.hosts[to];

    const auto routes = net.fabric.directory().query(
        net.fabric.id_of(src), std::string(dst.name()), {});
    ASSERT_FALSE(routes.empty())
        << "seed " << seed << ": no route " << from << "->" << to;
    const auto& route = routes.front();

    std::optional<viper::Delivery> delivered;
    dst.set_default_handler(
        [&](const viper::Delivery& d) { delivered = d; });
    std::optional<viper::Delivery> replied;
    src.set_default_handler(
        [&](const viper::Delivery& d) { replied = d; });

    const wire::Bytes payload =
        pattern_bytes(1 + rng.uniform_int(0, 900),
                      static_cast<std::uint8_t>(trial + 1));
    viper::SendOptions options;
    options.out_port = route.host_out_port;
    options.link = route.first_hop_link;
    src.send(route.route, payload, options);
    net.sim.run();

    ASSERT_TRUE(delivered.has_value()) << "seed " << seed;
    EXPECT_EQ(delivered->data, payload);
    EXPECT_EQ(delivered->hops, route.hops);
    // Return route: one segment per router traversed plus the local one.
    EXPECT_EQ(delivered->return_route.segments.size(), route.hops + 1);

    dst.reply(*delivered, pattern_bytes(17));
    net.sim.run();
    ASSERT_TRUE(replied.has_value()) << "seed " << seed;
    EXPECT_EQ(replied->data, pattern_bytes(17));
    EXPECT_EQ(replied->hops, route.hops);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTopologyProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

class CorruptionFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CorruptionFuzz, FlippedBytesNeverCrashAndAreAccounted) {
  const std::uint64_t seed = GetParam();
  sim::Rng rng(seed);
  sim::Simulator sim;
  dir::Fabric fabric(sim);
  auto& src = fabric.add_host("src.fuzz");
  auto& r1 = fabric.add_router("r1");
  auto& r2 = fabric.add_router("r2");
  auto& dst = fabric.add_host("dst.fuzz");
  fabric.connect(src, r1);
  fabric.connect(r1, r2);
  fabric.connect(r2, dst);

  int handled = 0;
  dst.set_default_handler([&](const viper::Delivery&) { ++handled; });

  core::SourceRoute route;
  route.segments = {p2p_segment(2), p2p_segment(2), local_segment()};

  const int kPackets = 60;
  for (int i = 0; i < kPackets; ++i) {
    // Build a legitimate packet, then flip 1..4 random bytes anywhere.
    wire::Bytes image =
        viper::encode_packet(route, pattern_bytes(64, std::uint8_t(i)));
    const auto flips = rng.uniform_int(1, 4);
    for (std::uint64_t f = 0; f < flips; ++f) {
      image[rng.uniform_int(0, image.size() - 1)] ^=
          static_cast<std::uint8_t>(1 + rng.uniform_int(0, 254));
    }
    auto packet =
        fabric.network().packets().make(std::move(image), sim.now());
    src.port(1).enqueue(std::move(packet), net::TxMeta{}, 0);
  }
  sim.run();  // must terminate: no crash, no infinite loop

  // Every packet is accounted for: delivered somewhere, or dropped with a
  // counter, or misdelivered back to a host.
  const auto& s1 = r1.stats();
  const auto& s2 = r2.stats();
  const std::uint64_t dropped =
      s1.dropped_malformed + s1.dropped_no_port + s2.dropped_malformed +
      s2.dropped_no_port + dst.stats().dropped_malformed +
      dst.stats().misrouted + src.stats().dropped_malformed +
      src.stats().misrouted + src.stats().delivered +
      s1.delivered_control + s2.delivered_control;
  // Corrupted port fields may bounce packets anywhere (including back to
  // src, or to dst with altered content) — the invariant is conservation:
  EXPECT_GE(static_cast<std::uint64_t>(handled) + dropped +
                dst.stats().delivered,
            1u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptionFuzz,
                         ::testing::Range<std::uint64_t>(100, 120));

class TransportCorruptionFuzz
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TransportCorruptionFuzz, ChecksumCatchesEveryFlip) {
  // Paper §4.1: with no network checksum the transport must detect damage.
  sim::Rng rng(GetParam());
  vmtp::Header h;
  h.src_entity = rng.next_u64();
  h.dst_entity = rng.next_u64();
  h.transaction = static_cast<std::uint32_t>(rng.next_u64());
  h.type = vmtp::PacketType::kRequest;
  h.group_size = static_cast<std::uint8_t>(1 + rng.uniform_int(0, 15));
  h.index = static_cast<std::uint8_t>(
      rng.uniform_int(0, h.group_size - 1));
  h.timestamp = static_cast<std::uint32_t>(rng.next_u64());
  const wire::Bytes payload = pattern_bytes(rng.uniform_int(0, 200));
  wire::Bytes packet = vmtp::encode_transport_packet(h, payload);
  ASSERT_TRUE(vmtp::decode_transport_packet(packet).has_value());
  for (int i = 0; i < 32; ++i) {
    wire::Bytes bad = packet;
    bad[rng.uniform_int(0, bad.size() - 1)] ^=
        static_cast<std::uint8_t>(1 + rng.uniform_int(0, 254));
    const auto view = vmtp::decode_transport_packet(bad);
    // A single byte flip must be caught (Internet checksum catches all
    // single-word errors) unless the flip missed the packet semantics
    // entirely — it cannot silently produce the original header.
    if (view.has_value()) {
      EXPECT_FALSE(view->header == h && wire::Bytes(view->payload.begin(),
                                                    view->payload.end()) ==
                                            payload);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransportCorruptionFuzz,
                         ::testing::Range<std::uint64_t>(500, 515));

class ChainReversalProperty
    : public ::testing::TestWithParam<int> {};

TEST_P(ChainReversalProperty, ReplyAlwaysReturnsAcrossNHops) {
  const int hops = GetParam();
  sim::Simulator sim;
  dir::Fabric fabric(sim);
  test::Line line = test::build_line(fabric, hops, "src.chain", "dst.chain");
  viper::ViperHost& src = *line.src;
  viper::ViperHost& dst = *line.dst;
  const core::SourceRoute route = test::line_route(hops);

  std::optional<viper::Delivery> there, back;
  dst.set_default_handler([&](const viper::Delivery& d) { there = d; });
  src.set_default_handler([&](const viper::Delivery& d) { back = d; });
  src.send(route, pattern_bytes(100));
  sim.run();
  ASSERT_TRUE(there.has_value()) << hops << " hops";
  EXPECT_EQ(there->hops, static_cast<std::uint32_t>(hops));
  dst.reply(*there, pattern_bytes(33));
  sim.run();
  ASSERT_TRUE(back.has_value()) << hops << " hops";
  EXPECT_EQ(back->data, pattern_bytes(33));
  // And the reply's own return route leads out again: reverse symmetry.
  EXPECT_EQ(back->return_route.segments.size(),
            static_cast<std::size_t>(hops) + 1);
}

INSTANTIATE_TEST_SUITE_P(Hops, ChainReversalProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 47));

class TrailerReversalProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

/// A randomized but *encodable* trailer segment: when VNT is set on a
/// legal segment the decoder discards port_info, so real trailer entries
/// (and this generator) keep it empty there — the in-place reversal is
/// byte-preserving regardless; this just keeps the decoded-segment
/// cross-check lossless too.
core::HeaderSegment random_trailer_segment(sim::Rng& rng) {
  core::HeaderSegment seg;
  seg.port = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  seg.tos.priority = static_cast<std::uint8_t>(rng.uniform_int(0, 15));
  seg.flags.vnt = rng.uniform_int(0, 1) == 1;
  seg.flags.dib = rng.uniform_int(0, 1) == 1;
  // The decoder mirrors the DIB flag into tos.drop_if_blocked; keep the
  // generated segment consistent so decode(encode(seg)) == seg.
  seg.tos.drop_if_blocked = seg.flags.dib;
  seg.flags.rpf = rng.uniform_int(0, 1) == 1;
  seg.flags.trm = rng.uniform_int(0, 9) == 0;  // occasional TRM mark
  // Mostly short fields; occasionally >254 bytes to force the 32-bit
  // length escape (a different wire size for the same field count).
  const auto field_len = [&rng]() -> std::size_t {
    return rng.uniform_int(0, 19) == 0 ? 255 + rng.uniform_int(0, 40)
                                       : rng.uniform_int(0, 10);
  };
  seg.token = pattern_bytes(field_len(),
                            static_cast<std::uint8_t>(rng.uniform_int(1, 200)));
  if (!(seg.flags.vnt && !seg.flags.trm)) {
    seg.port_info = pattern_bytes(
        field_len(), static_cast<std::uint8_t>(rng.uniform_int(1, 200)));
  }
  return seg;
}

TEST_P(TrailerReversalProperty, InPlaceReversalMatchesCopyReference) {
  sim::Rng rng(GetParam() * 0x9E37 + 1);
  for (int trial = 0; trial < 40; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 12));
    std::vector<core::HeaderSegment> segments;
    std::vector<std::size_t> sizes;
    wire::Writer w;
    for (std::size_t i = 0; i < n; ++i) {
      segments.push_back(random_trailer_segment(rng));
      sizes.push_back(viper::segment_wire_size(segments.back()));
      viper::encode_segment(w, segments.back());
    }
    const wire::Bytes original = std::move(w).take();

    // Copy-based reference: slice the buffer into records by the encoded
    // sizes of the *original* segments (independent of the view decoder),
    // then concatenate the slices in reverse order.
    wire::Bytes reference;
    std::vector<std::pair<std::size_t, std::size_t>> records;
    std::size_t offset = 0;
    for (const std::size_t size : sizes) {
      records.emplace_back(offset, size);
      offset += size;
    }
    ASSERT_EQ(offset, original.size());
    for (auto it = records.rbegin(); it != records.rend(); ++it) {
      reference.insert(reference.end(),
                       original.begin() + static_cast<std::ptrdiff_t>(it->first),
                       original.begin() +
                           static_cast<std::ptrdiff_t>(it->first + it->second));
    }

    wire::Bytes in_place = original;
    ASSERT_TRUE(viper::reverse_trailer_in_place(in_place)) << "trial "
                                                           << trial;
    EXPECT_EQ(in_place, reference) << "trial " << trial;

    // The decoded segment list is the exact reverse of the original's.
    wire::Reader r(in_place);
    const auto decoded = test::decode_segments(r);
    ASSERT_EQ(decoded.size(), segments.size());
    for (std::size_t i = 0; i < decoded.size(); ++i) {
      EXPECT_EQ(decoded[i], segments[segments.size() - 1 - i])
          << "trial " << trial << " segment " << i;
    }

    // Reversal is an involution: a second pass restores the original.
    ASSERT_TRUE(viper::reverse_trailer_in_place(in_place));
    EXPECT_EQ(in_place, original) << "trial " << trial;
  }
}

TEST_P(TrailerReversalProperty, MalformedTrailersAreLeftUntouched) {
  sim::Rng rng(GetParam() * 0xB5 + 3);
  for (int trial = 0; trial < 20; ++trial) {
    wire::Writer w;
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 6));
    for (std::size_t i = 0; i < n; ++i) {
      viper::encode_segment(w, random_trailer_segment(rng));
    }
    wire::Bytes bytes = std::move(w).take();
    // Chop mid-segment: no whole-number-of-segments parse exists (a
    // truncated final segment either under-runs its length fields or the
    // fixed prefix).
    bytes.resize(bytes.size() -
                 static_cast<std::size_t>(rng.uniform_int(
                     1, static_cast<std::uint64_t>(
                            std::min<std::size_t>(3, bytes.size() - 1)))));
    const wire::Bytes before = bytes;
    EXPECT_FALSE(viper::reverse_trailer_in_place(bytes));
    EXPECT_EQ(bytes, before);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrailerReversalProperty,
                         ::testing::Range<std::uint64_t>(0, 8));

class TelemetryReversalProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

/// A random telemetry record as a router would stamp it.
obs::HopTelemetry random_hop_telemetry(sim::Rng& rng, std::uint8_t hop) {
  obs::HopTelemetry t;
  t.router_id = static_cast<std::uint32_t>(rng.next_u64());
  t.hop = hop;
  t.egress_port = static_cast<std::uint8_t>(rng.uniform_int(1, 255));
  t.token = static_cast<obs::TokenOutcome>(rng.uniform_int(
      0, static_cast<std::uint64_t>(obs::TokenOutcome::kRejected)));
  t.cut_through = rng.uniform_int(0, 1) == 1;
  t.egress_down = rng.uniform_int(0, 1) == 1;
  t.arrival_ps = rng.next_u64() >> 1;
  t.depart_ps = t.arrival_ps + rng.uniform_int(0, 1'000'000);
  t.queue_wait_ps = static_cast<std::uint32_t>(rng.next_u64());
  t.queue_depth = static_cast<std::uint16_t>(rng.uniform_int(0, 0xFFFF));
  t.in_port = static_cast<std::uint16_t>(rng.uniform_int(1, 255));
  return t;
}

/// Appends the wire pseudo-segment for @p t, exactly as stamp_telemetry
/// does on the forward path.
void append_telemetry_record(wire::Bytes& out, const obs::HopTelemetry& t) {
  std::array<std::uint8_t, obs::kHopTelemetryWire> payload{};
  t.encode(payload);
  core::SegmentFlags flags;
  flags.trm = true;
  viper::append_segment_raw(out, core::kTelemetryPort, core::TypeOfService{},
                            flags, {}, payload);
}

TEST_P(TelemetryReversalProperty, ReversalPreservesRecordsAndHopOrder) {
  // A realistic mixed trailer — return entries interleaved with telemetry
  // records — survives the host's in-place reversal: every record
  // still decodes, and sorting by hop number (what the sink host does)
  // reconstructs the identical path from either trailer orientation.
  sim::Rng rng(GetParam() * 0x51A3 + 9);
  for (int trial = 0; trial < 30; ++trial) {
    const auto hops = static_cast<std::uint8_t>(rng.uniform_int(1, 12));
    std::vector<obs::HopTelemetry> stamped;
    wire::Bytes trailer;
    for (std::uint8_t h = 0; h < hops; ++h) {
      // The hop's reversed return entry, then (sometimes) its stamp — a
      // sampled packet is stamped at every hop, but corruption-dropped
      // records mean the sink cannot rely on that.
      wire::Writer w;
      viper::encode_segment(w, random_trailer_segment(rng));
      const wire::Bytes entry = std::move(w).take();
      trailer.insert(trailer.end(), entry.begin(), entry.end());
      if (rng.uniform_int(0, 4) != 0) {
        stamped.push_back(random_hop_telemetry(rng, h));
        append_telemetry_record(trailer, stamped.back());
      }
    }

    wire::Bytes reversed = trailer;
    ASSERT_TRUE(viper::reverse_trailer_in_place(reversed)) << "trial "
                                                           << trial;

    // Decode both orientations and extract the telemetry records the way
    // the host does (classify, then decode each payload, then hop-sort).
    const auto extract = [](const wire::Bytes& bytes) {
      wire::Reader r(bytes);
      test::TrailerInfo info =
          test::classify_trailer(test::decode_segments(r));
      std::vector<obs::HopTelemetry> path;
      for (const core::HeaderSegment& rec : info.telemetry) {
        const auto hop = obs::decode_hop_telemetry(rec.port_info);
        EXPECT_TRUE(hop.has_value());
        if (hop.has_value()) path.push_back(*hop);
      }
      std::sort(path.begin(), path.end(),
                [](const obs::HopTelemetry& a, const obs::HopTelemetry& b) {
                  return a.hop < b.hop;
                });
      return path;
    };
    const auto forward_path = extract(trailer);
    const auto reversed_path = extract(reversed);
    ASSERT_EQ(forward_path.size(), stamped.size()) << "trial " << trial;
    EXPECT_EQ(forward_path, stamped) << "trial " << trial;
    EXPECT_EQ(reversed_path, stamped) << "trial " << trial;

    // Involution, with records present: a second reversal restores the
    // original bytes.
    ASSERT_TRUE(viper::reverse_trailer_in_place(reversed));
    EXPECT_EQ(reversed, trailer) << "trial " << trial;
  }
}

TEST_P(TelemetryReversalProperty, SlicedRecordLeavesTrailerUntouched) {
  // An MTU cut through the newest record makes the trailer unparseable as
  // whole segments; the in-place pass must refuse and leave every byte
  // alone (the host then falls back to the copying decode byte-identically).
  sim::Rng rng(GetParam() * 0x77F + 5);
  for (int trial = 0; trial < 20; ++trial) {
    wire::Bytes trailer;
    const auto hops = static_cast<std::uint8_t>(rng.uniform_int(1, 6));
    for (std::uint8_t h = 0; h < hops; ++h) {
      wire::Writer w;
      viper::encode_segment(w, random_trailer_segment(rng));
      const wire::Bytes entry = std::move(w).take();
      trailer.insert(trailer.end(), entry.begin(), entry.end());
      append_telemetry_record(trailer, random_hop_telemetry(rng, h));
    }
    // Slice 1..35 bytes off the final record: partial payload or partial
    // prefix, never a whole-segment boundary.
    trailer.resize(trailer.size() -
                   static_cast<std::size_t>(rng.uniform_int(1, 35)));
    const wire::Bytes before = trailer;
    EXPECT_FALSE(viper::reverse_trailer_in_place(trailer)) << "trial "
                                                           << trial;
    EXPECT_EQ(trailer, before) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TelemetryReversalProperty,
                         ::testing::Range<std::uint64_t>(0, 8));

class FaultCompositionProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultCompositionProperty, LanesNeverCreateBytesFromThinAir) {
  // The composed perturbation (corrupt ∘ duplicate ∘ reorder ∘ jitter) is
  // conservative at the link layer: every delivered packet descends from
  // an injected one (same id, same length), ids are repeated at most once
  // per counted duplication, and with no drop lane nothing vanishes.
  const std::uint64_t seed = GetParam();
  sim::Simulator sim;
  net::Network net(sim);
  net::PacketFactory packets;
  auto& a = net.add<test::SinkNode>("a");
  auto& b = net.add<test::SinkNode>("b");
  const auto [pa, pb] =
      net.duplex(a, b, net::LinkConfig{1e9, 5 * sim::kMicrosecond, 1500});
  (void)pb;

  fault::FaultPlan plan;
  plan.seed = seed;
  fault::LaneConfig& lane = plan.lane(a.port(pa).name());
  lane.corrupt_rate = 0.3;
  lane.duplicate_rate = 0.3;
  lane.reorder_rate = 0.3;
  lane.jitter_rate = 0.3;
  stats::Registry registry;
  fault::FaultEngine engine(sim, plan, registry);
  engine.attach(a.port(pa));

  // Inject packets whose id -> size map is the ground truth.
  std::map<std::uint64_t, std::size_t> injected;
  sim::Rng rng(seed * 977 + 5);
  const int kPackets = 200;
  for (int i = 0; i < kPackets; ++i) {
    const std::size_t size = 40 + rng.uniform_int(0, 1200);
    auto packet = packets.make(pattern_bytes(size, std::uint8_t(i)),
                               sim.now());
    injected[packet->id] = size;
    sim.at(static_cast<sim::Time>(i) * 2 * sim::kMicrosecond,
           [&a, pa, p = std::move(packet)]() mutable {
             a.port(pa).enqueue(std::move(p), net::TxMeta{}, 0);
           });
  }
  sim.run();

  const std::string target = a.port(pa).name();
  std::map<std::uint64_t, int> seen;
  for (const net::Arrival& arrival : b.arrivals) {
    auto it = injected.find(arrival.packet->id);
    ASSERT_NE(it, injected.end())
        << "seed " << seed << ": delivered id " << arrival.packet->id
        << " was never injected";
    EXPECT_EQ(arrival.packet->size(), it->second)
        << "seed " << seed << ": fault lanes changed a packet's length";
    ++seen[arrival.packet->id];
  }
  // No drop/flap lane: everything injected arrives, plus exactly the
  // counted duplicates — conservation in both directions.
  EXPECT_EQ(b.arrivals.size(),
            kPackets + engine.count(target, "duplicate"));
  std::uint64_t repeats = 0;
  for (const auto& [id, n] : seen) {
    repeats += static_cast<std::uint64_t>(n - 1);
  }
  EXPECT_EQ(repeats, engine.count(target, "duplicate"));
  // The lanes demonstrably fired under these rates.
  EXPECT_GT(engine.count(target, "corrupt"), 0u);
  EXPECT_GT(engine.count(target, "duplicate"), 0u);
  EXPECT_GT(engine.count(target, "reorder"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultCompositionProperty,
                         ::testing::Range<std::uint64_t>(700, 712));

}  // namespace
}  // namespace srp

// Delivery oracles: the host's delivery and the router's control delivery,
// both built on the throw-free view parser (viper::parse_segment /
// viper::parse_body), held to the copying reference decode
// (decode_segment, decode_delivered_body, core::classify_trailer,
// core::build_return_route) on mutated, truncated and byte-soup bodies.
//
// The reference below is what a host computed before the data path
// stopped throwing: any input the copying decode rejects is a malformed
// drop, and any input it accepts yields the same data, return route,
// truncation flag, path telemetry and telemetry decode-error count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>

#include "core/multicast.hpp"
#include "core/trailer.hpp"
#include "obs/telemetry.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "viper/codec.hpp"
#include "viper/host.hpp"
#include "viper/router.hpp"

namespace srp::viper {
namespace {

wire::Bytes random_bytes(sim::Rng& rng, std::size_t len) {
  wire::Bytes out(len);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return out;
}

wire::Bytes encoded(const core::HeaderSegment& seg) {
  wire::Writer w;
  encode_segment(w, seg);
  return std::move(w).take();
}

void append(wire::Bytes& out, std::span<const std::uint8_t> more) {
  out.insert(out.end(), more.begin(), more.end());
}

core::HeaderSegment local_segment(sim::Rng& rng) {
  core::HeaderSegment local;
  local.port = core::kLocalPort;
  switch (rng.uniform_int(0, 2)) {
    case 0:
      local.flags.vnt = true;
      break;
    case 1:
      local.port_info = encode_endpoint_id(rng.uniform_int(1, 1000));
      break;
    default:
      local.port_info = encode_endpoint_id(kControlEndpoint);
      break;
  }
  return local;
}

/// One trailer entry of a random kind: a return entry, a truncation mark,
/// a decodable telemetry record at @p hop, or a 4-byte (undecodable) one.
core::HeaderSegment trailer_entry(sim::Rng& rng, std::uint8_t hop) {
  core::HeaderSegment seg;
  switch (rng.uniform_int(0, 3)) {
    case 0: {
      seg.port = static_cast<std::uint8_t>(rng.uniform_int(1, 255));
      seg.tos.priority = static_cast<std::uint8_t>(rng.uniform_int(0, 15));
      seg.token = random_bytes(rng, rng.uniform_int(0, 12));
      if (rng.chance(0.5)) {
        seg.flags.vnt = true;
      } else {
        seg.port_info = random_bytes(rng, 14);
      }
      break;
    }
    case 1:
      seg = core::HeaderSegment::truncation_marker();
      break;
    case 2: {
      obs::HopTelemetry t;
      t.router_id = rng.uniform_int(1, 99);
      t.hop = hop;
      t.egress_port = static_cast<std::uint8_t>(rng.uniform_int(1, 8));
      t.arrival_ps = rng.uniform_int(0, 1'000'000);
      t.depart_ps = t.arrival_ps + rng.uniform_int(0, 1000);
      seg.port = core::kTelemetryPort;
      seg.flags.trm = true;
      seg.port_info.resize(obs::kHopTelemetryWire);
      t.encode(seg.port_info);
      break;
    }
    default:
      seg.port = core::kTelemetryPort;
      seg.flags.trm = true;
      break;
  }
  return seg;
}

/// Local segment + DataLen + data + @p trailer_entries trailer entries.
wire::Bytes delivered_image(sim::Rng& rng, std::size_t trailer_entries) {
  wire::Bytes image = encoded(local_segment(rng));
  const wire::Bytes data = random_bytes(rng, rng.uniform_int(0, 48));
  image.push_back(static_cast<std::uint8_t>(data.size() >> 8));
  image.push_back(static_cast<std::uint8_t>(data.size()));
  append(image, data);
  for (std::size_t i = 0; i < trailer_entries; ++i) {
    append(image, encoded(trailer_entry(rng, static_cast<std::uint8_t>(i))));
  }
  return image;
}

void mutate(sim::Rng& rng, wire::Bytes& image) {
  if (image.empty()) return;
  const std::size_t at = rng.uniform_int(0, image.size() - 1);
  switch (rng.uniform_int(0, 3)) {
    case 0:
      image[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
      break;
    case 1:
      image.resize(at);
      break;
    case 2: {
      const wire::Bytes tail = random_bytes(rng, rng.uniform_int(0, 32));
      image.resize(at);
      append(image, tail);
      break;
    }
    default:
      image[at] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      break;
  }
}

/// Data cut short in flight, then a final 4-byte segment: a truncation
/// mark, an empty telemetry record, or four random bytes.
wire::Bytes truncated_image(sim::Rng& rng) {
  wire::Bytes image = encoded(local_segment(rng));
  const wire::Bytes data = random_bytes(rng, rng.uniform_int(0, 40));
  const std::size_t claimed = data.size() + rng.uniform_int(1, 500);
  image.push_back(static_cast<std::uint8_t>(claimed >> 8));
  image.push_back(static_cast<std::uint8_t>(claimed));
  append(image, data);
  core::HeaderSegment tail;
  switch (rng.uniform_int(0, 2)) {
    case 0:
      tail = core::HeaderSegment::truncation_marker();
      append(image, encoded(tail));
      break;
    case 1:
      tail.port = core::kTelemetryPort;
      tail.flags.trm = true;
      append(image, encoded(tail));
      break;
    default:
      append(image, random_bytes(rng, 4));
      break;
  }
  return image;
}

// ---------------------------------------------------------------------------
// Host delivery.
// ---------------------------------------------------------------------------

/// What the host's counters and handlers saw for one arrival.
struct HostOutcome {
  std::uint64_t dropped_malformed = 0;
  std::uint64_t misrouted = 0;
  std::uint64_t delivered = 0;
  std::uint64_t control_received = 0;
  std::uint64_t truncated_received = 0;
  std::optional<wire::Bytes> control_payload;
  std::optional<Delivery> delivery;
  std::uint64_t telemetry_decode_errors = 0;
};

HostOutcome run_host(const wire::Bytes& image, bool cut_in_flight) {
  sim::Simulator sim;
  net::PacketFactory packets;
  ViperHost host(sim, "h", packets);
  obs::PathCollector collector(nullptr, nullptr);
  host.set_path_telemetry(&collector, 1, 0);
  HostOutcome out;
  host.set_default_handler([&](const Delivery& d) { out.delivery = d; });
  host.set_control_handler([&](std::span<const std::uint8_t> payload, int) {
    out.control_payload = wire::Bytes(payload.begin(), payload.end());
  });
  net::Arrival arrival;
  arrival.packet = packets.make(image, 0);
  arrival.packet->telemetry = true;
  arrival.packet->truncated = cut_in_flight;
  arrival.in_port = 1;
  host.on_arrival(arrival);
  sim.run();
  out.dropped_malformed = host.stats().dropped_malformed;
  out.misrouted = host.stats().misrouted;
  out.delivered = host.stats().delivered;
  out.control_received = host.stats().control_received;
  out.truncated_received = host.stats().truncated_received;
  out.telemetry_decode_errors = collector.totals().decode_errors;
  return out;
}

/// The copying reference: what process() must compute for @p image.
HostOutcome reference_host(const wire::Bytes& image, bool cut_in_flight) {
  HostOutcome out;
  wire::Reader r(image);
  core::HeaderSegment local;
  DeliveredBody body;
  try {
    local = decode_segment(r);
    if (local.port != core::kLocalPort || !local.is_legal()) {
      out.misrouted = 1;
      return out;
    }
    body = decode_delivered_body(r);
  } catch (const wire::CodecError&) {
    out.dropped_malformed = 1;
    return out;
  }
  const std::optional<std::uint64_t> endpoint =
      decode_endpoint_id(local.port_info);
  if (endpoint == kControlEndpoint) {
    out.control_received = 1;
    out.control_payload = body.data;
    return out;
  }
  core::TrailerInfo info = core::classify_trailer(std::move(body.trailer));
  Delivery d;
  d.data = body.data;
  d.return_route = core::build_return_route(info.entries);
  for (const core::HeaderSegment& rec : info.telemetry) {
    const auto hop = obs::decode_hop_telemetry(rec.port_info);
    if (hop.has_value()) {
      d.path.push_back(*hop);
    } else {
      ++out.telemetry_decode_errors;
    }
  }
  // The host's documented path order: by hop number, records entering the
  // sort newest first.
  std::reverse(d.path.begin(), d.path.end());
  std::sort(d.path.begin(), d.path.end(),
            [](const obs::HopTelemetry& a, const obs::HopTelemetry& b) {
              return a.hop < b.hop;
            });
  d.truncated = info.truncated || cut_in_flight;
  out.delivered = 1;
  out.truncated_received = d.truncated ? 1 : 0;
  out.delivery = std::move(d);
  return out;
}

void expect_host_matches_reference(const wire::Bytes& image,
                                   bool cut_in_flight) {
  const HostOutcome got = run_host(image, cut_in_flight);
  const HostOutcome want = reference_host(image, cut_in_flight);
  EXPECT_EQ(got.dropped_malformed, want.dropped_malformed);
  EXPECT_EQ(got.misrouted, want.misrouted);
  EXPECT_EQ(got.delivered, want.delivered);
  EXPECT_EQ(got.control_received, want.control_received);
  EXPECT_EQ(got.truncated_received, want.truncated_received);
  EXPECT_EQ(got.control_payload, want.control_payload);
  EXPECT_EQ(got.telemetry_decode_errors, want.telemetry_decode_errors);
  ASSERT_EQ(got.delivery.has_value(), want.delivery.has_value());
  if (!got.delivery) return;
  EXPECT_EQ(got.delivery->data, want.delivery->data);
  EXPECT_EQ(got.delivery->return_route, want.delivery->return_route);
  EXPECT_EQ(got.delivery->truncated, want.delivery->truncated);
  EXPECT_EQ(got.delivery->path, want.delivery->path);
}

TEST(HostDeliveryOracle, MutatedBodiesMatchReference) {
  sim::Rng rng(0xDE11);
  int delivered = 0;
  int malformed = 0;
  for (int iter = 0; iter < 1500; ++iter) {
    SCOPED_TRACE(iter);
    wire::Bytes image = delivered_image(rng, rng.uniform_int(0, 6));
    mutate(rng, image);
    const bool cut = rng.chance(0.1);
    expect_host_matches_reference(image, cut);
    const HostOutcome want = reference_host(image, cut);
    delivered += static_cast<int>(want.delivered + want.control_received);
    malformed += static_cast<int>(want.dropped_malformed);
  }
  EXPECT_GT(delivered, 0);
  EXPECT_GT(malformed, 0);
}

TEST(HostDeliveryOracle, TruncatedBodiesMatchReference) {
  sim::Rng rng(0xDE12);
  for (int iter = 0; iter < 300; ++iter) {
    SCOPED_TRACE(iter);
    expect_host_matches_reference(truncated_image(rng), rng.chance(0.5));
  }
}

TEST(HostDeliveryOracle, TrailingMarkAndRecordMatchReference) {
  // The two 4-byte tails the truncated recovery keeps apart: a TRM mark
  // (truncated, no postcard) and an empty telemetry record (a postcard
  // that does not decode, not truncated).
  for (const bool record : {false, true}) {
    SCOPED_TRACE(record);
    core::HeaderSegment local;
    local.port = core::kLocalPort;
    local.flags.vnt = true;
    wire::Bytes image = encoded(local);
    append(image, wire::Bytes{0x01, 0x00, 'a', 'b', 'c'});  // 256 claimed
    core::HeaderSegment tail = core::HeaderSegment::truncation_marker();
    if (record) {
      tail.port = core::kTelemetryPort;
      tail.flags.vnt = false;
    }
    append(image, encoded(tail));
    const HostOutcome got = run_host(image, false);
    ASSERT_TRUE(got.delivery.has_value());
    EXPECT_EQ(got.delivery->data, (wire::Bytes{'a', 'b', 'c'}));
    EXPECT_EQ(got.delivery->truncated, !record);
    EXPECT_EQ(got.telemetry_decode_errors, record ? 1u : 0u);
    expect_host_matches_reference(image, false);
  }
}

TEST(HostDeliveryOracle, TiedHopsKeepNewestFirst) {
  // Two records with one hop number (a tunnel restarts the count): the
  // one appended last, nearest the end of the trailer, comes first.
  core::HeaderSegment local;
  local.port = core::kLocalPort;
  local.flags.vnt = true;
  wire::Bytes image = encoded(local);
  append(image, wire::Bytes{0, 0});
  for (const std::uint32_t router : {1u, 2u}) {
    obs::HopTelemetry t;
    t.router_id = router;
    core::HeaderSegment record;
    record.port = core::kTelemetryPort;
    record.flags.trm = true;
    record.port_info.resize(obs::kHopTelemetryWire);
    t.encode(record.port_info);
    append(image, encoded(record));
  }
  const HostOutcome got = run_host(image, false);
  ASSERT_TRUE(got.delivery.has_value());
  ASSERT_EQ(got.delivery->path.size(), 2u);
  EXPECT_EQ(got.delivery->path[0].router_id, 2u);
  EXPECT_EQ(got.delivery->path[1].router_id, 1u);
  expect_host_matches_reference(image, false);
}

TEST(HostDeliveryOracle, LongTrailersMatchReference) {
  // More than 2 * kMaxSegments trailer segments.
  sim::Rng rng(0xDE13);
  for (int iter = 0; iter < 20; ++iter) {
    SCOPED_TRACE(iter);
    const std::size_t n = 2 * core::kMaxSegments + rng.uniform_int(1, 120);
    const wire::Bytes image = delivered_image(rng, n);
    const HostOutcome got = run_host(image, false);
    EXPECT_EQ(got.dropped_malformed, 0u);
    expect_host_matches_reference(image, false);
  }
}

TEST(HostDeliveryOracle, SoupBodiesMatchReference) {
  sim::Rng rng(0xDE14);
  for (int iter = 0; iter < 1500; ++iter) {
    SCOPED_TRACE(iter);
    wire::Bytes image;
    if (rng.chance(0.5)) image = encoded(local_segment(rng));
    append(image, random_bytes(rng, rng.uniform_int(0, 64)));
    expect_host_matches_reference(image, rng.chance(0.1));
  }
}

// ---------------------------------------------------------------------------
// Router control delivery and tree branching.
// ---------------------------------------------------------------------------

struct RouterOutcome {
  ViperRouter::Stats stats;
  std::vector<wire::Bytes> payloads;
  std::vector<core::HeaderSegment> segments;
};

RouterOutcome run_router(const wire::Bytes& image) {
  sim::Simulator sim;
  ViperRouter router(sim, "r", RouterConfig{});
  RouterOutcome out;
  router.set_control_handler(
      [&](const core::HeaderSegment& seg, wire::Bytes payload, int) {
        out.segments.push_back(seg);
        out.payloads.push_back(std::move(payload));
      });
  net::Arrival arrival;
  arrival.packet = std::make_shared<net::Packet>();
  arrival.packet->bytes = image;
  arrival.in_port = 1;
  router.on_arrival(arrival);
  sim.run();
  out.stats = router.stats();
  return out;
}

TEST(RouterControlOracle, MutatedControlBodiesMatchReference) {
  sim::Rng rng(0xDE15);
  int delivered = 0;
  int malformed = 0;
  for (int iter = 0; iter < 1500; ++iter) {
    SCOPED_TRACE(iter);
    wire::Bytes image;
    switch (rng.uniform_int(0, 2)) {
      case 0:
        image = delivered_image(rng, rng.uniform_int(0, 4));
        mutate(rng, image);
        break;
      case 1:
        image = truncated_image(rng);
        break;
      default:
        image = encoded(local_segment(rng));
        append(image, random_bytes(rng, rng.uniform_int(0, 48)));
        break;
    }
    const RouterOutcome got = run_router(image);

    wire::Reader r(image);
    std::optional<core::HeaderSegment> local;
    std::optional<DeliveredBody> body;
    try {
      local = decode_segment(r);
      if (local->port == core::kLocalPort && local->is_legal()) {
        body = decode_delivered_body(r);
      }
    } catch (const wire::CodecError&) {
    }
    if (!local || !local->is_legal()) {
      EXPECT_EQ(got.stats.dropped_malformed, 1u);
      EXPECT_TRUE(got.payloads.empty());
      ++malformed;
      continue;
    }
    if (local->port != core::kLocalPort) {
      EXPECT_EQ(got.stats.delivered_control, 0u);
      EXPECT_TRUE(got.payloads.empty());
      continue;
    }
    if (!body) {
      EXPECT_EQ(got.stats.dropped_malformed, 1u);
      EXPECT_EQ(got.stats.delivered_control, 0u);
      EXPECT_TRUE(got.payloads.empty());
      ++malformed;
      continue;
    }
    ++delivered;
    EXPECT_EQ(got.stats.dropped_malformed, 0u);
    EXPECT_EQ(got.stats.delivered_control, 1u);
    ASSERT_EQ(got.payloads.size(), 1u);
    EXPECT_EQ(got.payloads[0], body->data);
    EXPECT_EQ(got.segments[0], *local);
  }
  EXPECT_GT(delivered, 0);
  EXPECT_GT(malformed, 0);
}

/// A tree segment carrying @p block, then DataLen and data: each branch
/// copy is its branch route followed by that body.
wire::Bytes tree_image(const wire::Bytes& block) {
  core::HeaderSegment tree;
  tree.port = 1;
  tree.port_info = block;
  wire::Bytes image = encoded(tree);
  append(image, wire::Bytes{0, 3, 'x', 'y', 'z'});
  return image;
}

TEST(RouterTreeOracle, MalformedBlocksMakeNoCopies) {
  const wire::Bytes branch = [] {
    core::HeaderSegment local;
    local.port = core::kLocalPort;
    local.flags.vnt = true;
    return encoded(local);
  }();
  const auto len = static_cast<std::uint8_t>(branch.size());
  std::vector<wire::Bytes> blocks = {
      {core::kTreeInfoTag, 3, 0, len},                 // count > present
      {core::kTreeInfoTag, 1, 0, 200, 1, 2},           // length past end
      {core::kTreeInfoTag, 1, 0},                      // half a length
  };
  // A good first branch, then a bad second: validation precedes copying.
  wire::Bytes good_then_bad{core::kTreeInfoTag, 2, 0, len};
  append(good_then_bad, branch);
  append(good_then_bad, wire::Bytes{0, 9});
  blocks.push_back(good_then_bad);
  // A good branch with trailing bytes after the last one.
  wire::Bytes trailing{core::kTreeInfoTag, 1, 0, len};
  append(trailing, branch);
  trailing.push_back(0xEE);
  blocks.push_back(trailing);

  for (const wire::Bytes& block : blocks) {
    SCOPED_TRACE(testing::PrintToString(block));
    ASSERT_FALSE(core::TreeView::parse(block).has_value());
    const RouterOutcome got = run_router(tree_image(block));
    EXPECT_EQ(got.stats.tree_copies, 0u);
    EXPECT_EQ(got.stats.dropped_malformed, 1u);
    EXPECT_EQ(got.stats.delivered_control, 0u);
  }

  // The same branch in a well-formed block is copied once per branch.
  const RouterOutcome ok =
      run_router(tree_image(core::encode_tree_info({branch, branch})));
  EXPECT_EQ(ok.stats.tree_copies, 2u);
  EXPECT_EQ(ok.stats.dropped_malformed, 0u);
  EXPECT_EQ(ok.stats.delivered_control, 2u);
  EXPECT_EQ(ok.payloads,
            (std::vector<wire::Bytes>(2, wire::Bytes{'x', 'y', 'z'})));
}

}  // namespace
}  // namespace srp::viper

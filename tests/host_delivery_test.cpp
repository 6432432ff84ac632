// Host delivery in one event, and the pools behind it.
//
// A VIPER host is a whole-packet node: its ports fire the arrival at the
// last bit and the host delivers inside that event.  It refills one kept
// Delivery per packet and encodes its sends into recycled slabs of the
// network's PacketFactory arena.  These cases pin what that reuse must not
// change: the event count, truncation after a preempted transmission, the
// independence of a handler's copy, the wait of a direct call made before
// the tail, the bytes of a packet someone still holds, and the release of
// a finished or waiting image's upstream chain once it has settled.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "directory/fabric.hpp"
#include "net/port.hpp"
#include "obs/telemetry.hpp"
#include "test_util.hpp"
#include "viper/codec.hpp"
#include "viper/host.hpp"

namespace srp {
namespace {

using test::pattern_bytes;

constexpr net::LinkConfig kLink{1e9, 2 * sim::kMicrosecond, 1500};

/// A VIPER image as it reaches its host: the local segment, @p data, then a
/// trailer of @p entries return entries (each with a token and a portInfo)
/// followed by @p records telemetry records.
wire::Bytes delivered_image(std::span<const std::uint8_t> data, int entries,
                            int records) {
  core::SourceRoute route;
  route.segments.push_back(test::local_segment());
  wire::Bytes image = viper::encode_packet(route, data);
  for (int i = 0; i < entries; ++i) {
    const auto seed = static_cast<std::uint8_t>(i);
    viper::append_segment_raw(image, static_cast<std::uint8_t>(i + 1),
                              core::TypeOfService{}, core::SegmentFlags{},
                              pattern_bytes(4, seed),
                              pattern_bytes(3 + i, seed));
  }
  for (int i = 0; i < records; ++i) {
    obs::HopTelemetry hop;
    hop.router_id = 7;
    hop.hop = static_cast<std::uint8_t>(records - i);
    std::array<std::uint8_t, obs::kHopTelemetryWire> payload{};
    hop.encode(payload);
    core::SegmentFlags flags;
    flags.trm = true;
    viper::append_segment_raw(image, core::kTelemetryPort,
                              core::TypeOfService{}, flags, {}, payload);
  }
  return image;
}

void expect_same_delivery(const viper::Delivery& got,
                          const viper::Delivery& want) {
  EXPECT_EQ(got.data, want.data);
  EXPECT_EQ(got.return_route, want.return_route);
  EXPECT_EQ(got.reply_link.has_value(), want.reply_link.has_value());
  EXPECT_EQ(got.truncated, want.truncated);
  EXPECT_EQ(got.endpoint, want.endpoint);
  EXPECT_EQ(got.packet_id, want.packet_id);
  EXPECT_EQ(got.flow, want.flow);
  EXPECT_EQ(got.hops, want.hops);
  EXPECT_EQ(got.sent_at, want.sent_at);
  EXPECT_EQ(got.delivered_at, want.delivered_at);
  EXPECT_EQ(got.in_port, want.in_port);
  EXPECT_EQ(got.path, want.path);
}

/// On an idle 1-router line a packet costs two events, one arrival per
/// link: the host's arrival fires at the tail and delivers in place.
TEST(HostDelivery, DeliveryCostsOneEventOnOneRouterLine) {
  sim::Simulator sim;
  dir::Fabric fabric(sim);
  test::Line line = test::build_line(fabric, 1, "src.one", "dst.one");
  std::vector<sim::Time> delivered_at;
  line.dst->set_default_handler(
      [&](const viper::Delivery& d) { delivered_at.push_back(d.delivered_at); });

  line.src->send(test::line_route(1), pattern_bytes(64));
  const std::uint64_t events = sim.run();
  ASSERT_EQ(delivered_at.size(), 1u);
  EXPECT_EQ(events, 2u) << "one event for the router hop, one for the host";
  EXPECT_TRUE(line.dst->whole_packet());
  EXPECT_FALSE(line.router(0).whole_packet());
}

/// A transmission aborted by a preemptive-priority packet still reaches
/// the host at its scheduled tail, and is delivered truncated.
TEST(HostDelivery, PreemptedTransmissionDeliversTruncated) {
  sim::Simulator sim;
  net::PacketFactory packets;
  viper::ViperHost dst(sim, "dst.preempt", packets);
  dst.add_port(kLink);
  net::TxPort feed(sim, "feed", kLink);
  feed.connect(&dst, 1);
  std::vector<viper::Delivery> got;
  dst.set_default_handler([&](const viper::Delivery& d) { got.push_back(d); });

  core::SourceRoute route;
  route.segments.push_back(test::local_segment());
  const net::PacketPtr victim =
      packets.make(viper::encode_packet(route, pattern_bytes(1000)), 0);
  const net::PacketPtr preemptor =
      packets.make(viper::encode_packet(route, pattern_bytes(40)), 0);
  feed.enqueue(victim, net::TxMeta{0, false, false}, 0);
  sim.run_until(3 * sim::kMicrosecond);  // mid-transmission
  feed.enqueue(preemptor, net::TxMeta{7, true, false}, 0);
  sim.run();

  EXPECT_EQ(feed.stats().preempt_aborts, 1u);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].packet_id, preemptor->id);
  EXPECT_FALSE(got[0].truncated);
  EXPECT_EQ(got[1].packet_id, victim->id);
  EXPECT_TRUE(got[1].truncated);
  EXPECT_EQ(dst.stats().truncated_received, 1u);
}

/// The host refills one Delivery: a handler's copy is its own, and every
/// field of the next delivery is rewritten — a shorter route, fewer
/// telemetry records and a cleared truncation flag leave nothing behind.
TEST(HostDelivery, HandlerCopySurvivesNextDelivery) {
  sim::Simulator sim;
  net::PacketFactory packets;
  const std::array<net::PacketPtr, 3> images = {
      packets.make(delivered_image(pattern_bytes(40, 1), 3, 2), 0, 11),
      packets.make(delivered_image(pattern_bytes(10, 2), 1, 0), 0, 12),
      packets.make(delivered_image(pattern_bytes(70, 3), 4, 1), 0, 13)};
  images[0]->truncated = true;
  auto arrival_of = [](const net::PacketPtr& packet) {
    net::Arrival arrival;
    arrival.packet = packet;
    arrival.in_port = 1;
    return arrival;
  };

  // What a fresh host delivers for each image.
  std::vector<viper::Delivery> want;
  for (const net::PacketPtr& packet : images) {
    viper::ViperHost fresh(sim, "h.fresh", packets);
    fresh.set_default_handler(
        [&](const viper::Delivery& d) { want.push_back(d); });
    fresh.on_arrival(arrival_of(packet));
  }
  ASSERT_EQ(want.size(), images.size());
  EXPECT_EQ(want[0].return_route.segments.size(), 4u);
  EXPECT_EQ(want[1].return_route.segments.size(), 2u);

  viper::ViperHost host(sim, "h.reused", packets);
  std::vector<viper::Delivery> copies;
  host.set_default_handler(
      [&](const viper::Delivery& d) { copies.push_back(d); });
  for (const net::PacketPtr& packet : images) host.on_arrival(arrival_of(packet));

  ASSERT_EQ(copies.size(), images.size());
  for (std::size_t i = 0; i < images.size(); ++i) {
    SCOPED_TRACE("delivery " + std::to_string(i));
    expect_same_delivery(copies[i], want[i]);
  }
}

/// Ports deliver to a host at the tail; a direct call made before the
/// tail (as a test or a replay may make) is deferred to the tail.
TEST(HostDelivery, DirectArrivalBeforeTailWaitsForTail) {
  sim::Simulator sim;
  net::PacketFactory packets;
  viper::ViperHost host(sim, "h.direct", packets);
  std::vector<sim::Time> delivered_at;
  host.set_default_handler(
      [&](const viper::Delivery& d) { delivered_at.push_back(d.delivered_at); });

  core::SourceRoute route;
  route.segments.push_back(test::local_segment());
  net::Arrival arrival;
  arrival.packet = packets.make(viper::encode_packet(route, pattern_bytes(8)), 0);
  arrival.in_port = 1;
  arrival.head = 0;
  arrival.tail = 5 * sim::kMicrosecond;
  host.on_arrival(arrival);
  EXPECT_TRUE(delivered_at.empty()) << "delivered before the last bit";

  EXPECT_EQ(sim.run(), 1u);
  ASSERT_EQ(delivered_at.size(), 1u);
  EXPECT_EQ(delivered_at[0], arrival.tail);
}

/// Records the packet objects a port delivers; holds only the first.
class Tap : public net::Node {
 public:
  Tap() : net::Node("tap") {}

  void on_arrival(const net::Arrival& arrival) override {
    if (held == nullptr) {
      held = arrival.packet;
    } else {
      seen.push_back(arrival.packet.get());
    }
  }

  net::PacketPtr held;
  std::vector<const net::Packet*> seen;
};

/// A host's sends come from the network's arena, which recycles a slab
/// only when nothing else holds it: a packet a test keeps is never handed
/// out again, and its bytes do not change however many sends follow.
TEST(PacketPool, HeldPacketIsNeverRecycled) {
  sim::Simulator sim;
  net::PacketFactory packets;
  viper::ViperHost host(sim, "h.pool", packets);
  host.add_port(kLink);
  Tap tap;
  host.port(1).connect(&tap, 1);
  core::SourceRoute route;
  route.segments.push_back(test::local_segment());

  host.send(route, pattern_bytes(64, 1));
  sim.run();
  ASSERT_NE(tap.held, nullptr);
  const std::uint64_t held_id = tap.held->id;
  const wire::Bytes held_bytes = tap.held->bytes;

  constexpr int kSends = 1'000;  // several times the arena's capacity
  for (int i = 0; i < kSends; ++i) {
    host.send(route, pattern_bytes(64 + i % 7, static_cast<std::uint8_t>(i)));
    sim.run();
  }
  ASSERT_EQ(tap.seen.size(), static_cast<std::size_t>(kSends));
  for (const net::Packet* p : tap.seen) ASSERT_NE(p, tap.held.get());
  EXPECT_EQ(tap.held->id, held_id);
  EXPECT_EQ(tap.held->bytes, held_bytes);
  // The pool did recycle: every other send reused a slab.
  EXPECT_GE(packets.arena().stats().recycled,
            static_cast<std::uint64_t>(kSends - 1));
}

/// A finished transmission drops the image's parent chain, so an image
/// that outlives its hop (a free arena slab) does not keep its upstream
/// image, and that image's arena slab, alive.
TEST(PacketPool, FinishedTransmissionReleasesItsParent) {
  sim::Simulator sim;
  net::PacketFactory packets;
  net::TxPort port(sim, "p.fold", kLink);
  Tap tap;
  port.connect(&tap, 1);
  const net::PacketPtr upstream = packets.make(pattern_bytes(100), 0);
  port.enqueue(upstream->derive(pattern_bytes(100, 1)), net::TxMeta{}, 0);
  sim.run();

  ASSERT_NE(tap.held, nullptr);
  EXPECT_EQ(tap.held->parent, nullptr);
  EXPECT_FALSE(tap.held->truncated);
  EXPECT_EQ(upstream.use_count(), 1) << "only this test holds it";
}

/// An image whose chain has settled by the time it is queued drops the
/// chain at enqueue: while it waits behind another transmission it does not
/// keep its upstream image, and that image's arena slab, alive.
TEST(PacketPool, QueuedSettledImageReleasesItsParent) {
  sim::Simulator sim;
  net::PacketFactory packets;
  net::TxPort port(sim, "p.queued", kLink);
  Tap tap;
  port.connect(&tap, 1);
  port.enqueue(packets.make(pattern_bytes(1000), 0), net::TxMeta{}, 0);
  const net::PacketPtr upstream = packets.make(pattern_bytes(100), 0);
  upstream->truncated = true;  // folded into the image
  net::PacketPtr image = upstream->derive(pattern_bytes(100, 1));
  ASSERT_LE(image->settled, sim.now());
  port.enqueue(std::move(image), net::TxMeta{}, 0);

  ASSERT_TRUE(port.busy());
  ASSERT_EQ(port.queue().size(), 1u);
  const net::Packet& queued = *port.queue().front().packet;
  EXPECT_EQ(queued.parent, nullptr);
  EXPECT_EQ(upstream.use_count(), 1) << "only this test holds it";
  EXPECT_TRUE(queued.truncated);

  sim.run();
  EXPECT_EQ(tap.seen.size(), 1u);
}

/// An image queued before its chain settles drops the chain at the first
/// transmission start after it settles, while it still waits.
TEST(PacketPool, WaitingImageReleasesItsParentOnceSettled) {
  sim::Simulator sim;
  net::PacketFactory packets;
  net::TxPort port(sim, "p.waiting", kLink);
  Tap tap;
  port.connect(&tap, 1);
  // 1,000 B at 1 Gb/s: 8 µs on the wire, then the 100 B filler for 0.8 µs.
  port.enqueue(packets.make(pattern_bytes(1000), 0), net::TxMeta{}, 0);
  port.enqueue(packets.make(pattern_bytes(100), 0), net::TxMeta{}, 0);
  const net::PacketPtr upstream = packets.make(pattern_bytes(100), 0);
  net::PacketPtr image = upstream->derive(pattern_bytes(100, 2));
  image->settled = 4 * sim::kMicrosecond;
  port.enqueue(std::move(image), net::TxMeta{}, 0);
  ASSERT_EQ(port.queue().size(), 2u);
  EXPECT_EQ(port.queue().back().packet->parent, upstream) << "not settled";

  sim.run_until(8 * sim::kMicrosecond + 1);  // the filler is on the wire
  ASSERT_EQ(port.queue().size(), 1u);
  EXPECT_EQ(port.queue().front().packet->parent, nullptr);
  EXPECT_EQ(upstream.use_count(), 1) << "only this test holds it";
  sim.run();
  EXPECT_EQ(tap.seen.size(), 2u);
}

/// An image whose transmission ends before its upstream image's last bit
/// is in keeps the chain: an abort upstream still reaches it, and the
/// fold after the settle time keeps the truncation.
TEST(PacketPool, UnsettledChainIsKeptUntilItSettles) {
  sim::Simulator sim;
  net::PacketFactory packets;
  net::TxPort port(sim, "p.unsettled", kLink);
  Tap tap;
  port.connect(&tap, 1);
  const net::PacketPtr upstream = packets.make(pattern_bytes(100), 0);
  net::PacketPtr image = upstream->derive(pattern_bytes(100, 1));
  image->settled = sim::kMillisecond;
  port.enqueue(std::move(image), net::TxMeta{}, 0);
  sim.run();
  ASSERT_NE(tap.held, nullptr);
  ASSERT_LT(sim.now(), sim::kMillisecond);
  EXPECT_EQ(tap.held->parent, upstream);

  upstream->truncated = true;  // aborted before its last bit arrived
  EXPECT_TRUE(tap.held->effectively_truncated());
  tap.held->fold_parent(sim::kMillisecond);
  EXPECT_EQ(tap.held->parent, nullptr);
  EXPECT_TRUE(tap.held->truncated);
}

}  // namespace
}  // namespace srp

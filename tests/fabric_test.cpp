// Tests for the Fabric experiment builder and assorted edge cases of the
// VIPER host/router that the scenario tests do not reach.
#include <gtest/gtest.h>

#include <optional>

#include "directory/fabric.hpp"
#include "test_util.hpp"

namespace srp::dir {
namespace {

using test::local_segment;
using test::p2p_segment;
using test::pattern_bytes;

TEST(FabricApi, IdsAndLookupsAreConsistent) {
  sim::Simulator sim;
  Fabric fabric(sim);
  auto& h = fabric.add_host("h.fab");
  auto& r = fabric.add_router("r.fab");
  fabric.connect(h, r);
  EXPECT_EQ(fabric.id_of(h), 0u);
  EXPECT_EQ(fabric.id_of(r), 1u);
  EXPECT_EQ(r.router_id(), fabric.id_of(r));
  // Unknown node throws.
  net::PacketFactory packets;
  viper::ViperHost stranger(sim, "stranger", packets);
  EXPECT_THROW((void)fabric.id_of(stranger), std::invalid_argument);
  EXPECT_THROW(fabric.fail_link(h, stranger), std::invalid_argument);
}

TEST(FabricApi, DirectoryRegistrationSurvivesEnableTokens) {
  sim::Simulator sim;
  Fabric fabric(sim);
  auto& a = fabric.add_host("a.fab");
  auto& r = fabric.add_router("r1");
  auto& b = fabric.add_host("b.fab");
  fabric.connect(a, r);
  fabric.connect(r, b);
  ASSERT_FALSE(fabric.directory().query(fabric.id_of(a), "b.fab", {})
                   .empty());
  fabric.enable_tokens(1, false);
  // Names were re-registered in the rebuilt directory.
  const auto routes = fabric.directory().query(fabric.id_of(a), "b.fab", {});
  ASSERT_FALSE(routes.empty());
  // Tokens now minted even without enforcement.
  EXPECT_EQ(routes[0].route.segments[0].token.size(),
            tokens::kTokenWireSize);
}

TEST(FabricApi, FailAndRestoreRoundTrip) {
  sim::Simulator sim;
  Fabric fabric(sim);
  auto& a = fabric.add_host("a.fr");
  auto& r = fabric.add_router("r1");
  auto& b = fabric.add_host("b.fr");
  fabric.connect(a, r);
  fabric.connect(r, b);
  int delivered = 0;
  b.set_default_handler([&](const viper::Delivery&) { ++delivered; });
  core::SourceRoute route;
  route.segments = {p2p_segment(2), local_segment()};

  fabric.fail_link(r, b);
  a.send(route, pattern_bytes(10));
  sim.run();
  EXPECT_EQ(delivered, 0);
  // The directory learned about it.
  EXPECT_TRUE(
      fabric.directory().query(fabric.id_of(a), "b.fr", {}).empty());

  fabric.restore_link(r, b);
  a.send(route, pattern_bytes(10));
  sim.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_FALSE(
      fabric.directory().query(fabric.id_of(a), "b.fr", {}).empty());
}

TEST(FabricApi, SilentFailureKeepsDirectoryBlind) {
  sim::Simulator sim;
  Fabric fabric(sim);
  auto& a = fabric.add_host("a.sf");
  auto& r = fabric.add_router("r1");
  auto& b = fabric.add_host("b.sf");
  fabric.connect(a, r);
  fabric.connect(r, b);
  fabric.fail_link_silently(r, b);
  // The directory still *believes* in the route (no advisory), which is
  // precisely the scenario client-side failure detection exists for.
  EXPECT_FALSE(
      fabric.directory().query(fabric.id_of(a), "b.sf", {}).empty());
}

TEST(ViperEdge, OversizedDataRejectedAtSend) {
  sim::Simulator sim;
  Fabric fabric(sim);
  auto& a = fabric.add_host("a.big");
  auto& r = fabric.add_router("r1");
  fabric.connect(a, r);
  core::SourceRoute route;
  route.segments = {p2p_segment(1), local_segment()};
  EXPECT_THROW(a.send(route, wire::Bytes(70'000, 0)), wire::CodecError);
}

TEST(ViperEdge, MaxLengthRouteTraversesFortySevenRouters) {
  // The paper's 48-segment bound: 47 routers + the local segment.
  sim::Simulator sim;
  Fabric fabric(sim);
  auto& src = fabric.add_host("src.long");
  net::PortedNode* prev = &src;
  for (int i = 0; i < 47; ++i) {
    auto& r = fabric.add_router(test::numbered("r", i));
    fabric.connect(*prev, r);
    prev = &r;
  }
  auto& dst = fabric.add_host("dst.long");
  fabric.connect(*prev, dst);
  core::SourceRoute route;
  for (int i = 0; i < 47; ++i) route.segments.push_back(p2p_segment(2));
  route.segments.push_back(local_segment());
  ASSERT_EQ(route.segments.size(), core::kMaxSegments);

  std::optional<viper::Delivery> got;
  dst.set_default_handler([&](const viper::Delivery& d) { got = d; });
  src.send(route, pattern_bytes(100));
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->hops, 47u);
  EXPECT_EQ(got->return_route.segments.size(), 48u);
  // And the 48-segment return route still fits and works.
  std::optional<viper::Delivery> back;
  src.set_default_handler([&](const viper::Delivery& d) { back = d; });
  dst.reply(*got, pattern_bytes(3));
  sim.run();
  ASSERT_TRUE(back.has_value());
}

TEST(ViperEdge, ControlPacketWithoutHandlerCounted) {
  sim::Simulator sim;
  Fabric fabric(sim);
  auto& a = fabric.add_host("a.ctl");
  auto& r = fabric.add_router("r1");
  fabric.connect(a, r);
  // A port-0 segment addressed to the router itself, with no control
  // handler installed.
  core::SourceRoute route;
  route.segments = {local_segment(viper::kControlEndpoint)};
  a.send(route, pattern_bytes(4));
  sim.run();
  EXPECT_EQ(r.stats().dropped_no_port, 1u);
}

TEST(ViperEdge, DropIfBlockedTosTravelsTheRoute) {
  sim::Simulator sim;
  Fabric fabric(sim);
  auto& a = fabric.add_host("a.dib");
  auto& r = fabric.add_router("r1");
  auto& b = fabric.add_host("b.dib");
  dir::LinkParams fast;
  fast.rate_bps = 1e9;
  dir::LinkParams slow;
  slow.rate_bps = 1e8;
  fabric.connect(a, r, fast);
  fabric.connect(r, b, slow);

  int delivered = 0;
  b.set_default_handler([&](const viper::Delivery&) { ++delivered; });
  core::SourceRoute route;
  core::HeaderSegment hop = p2p_segment(2);
  hop.tos.drop_if_blocked = true;
  hop.flags.dib = true;
  route.segments = {hop, local_segment()};
  // Back-to-back packets (plain ToS on the host uplink so both clear the
  // first hop): the second finds the slow router port busy and, being
  // drop-if-blocked per its segment, is discarded at the router.
  a.send(route, pattern_bytes(1000));
  a.send(route, pattern_bytes(1000));
  sim.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(r.port(2).stats().dropped_blocked, 1u);
}

TEST(ViperEdge, PreemptivePriorityAbortsAcrossTheRouter) {
  sim::Simulator sim;
  Fabric fabric(sim);
  auto& a = fabric.add_host("a.pre");
  auto& c = fabric.add_host("c.pre");  // the preemptor's host
  auto& r = fabric.add_router("r1");
  auto& b = fabric.add_host("b.pre");
  dir::LinkParams fast;
  fast.rate_bps = 1e9;
  dir::LinkParams slow;
  slow.rate_bps = 1e8;
  fabric.connect(a, r, fast);   // r port 1
  fabric.connect(c, r, fast);   // r port 2
  fabric.connect(r, b, slow);   // r port 3

  int intact = 0;
  int truncated = 0;
  b.set_default_handler([&](const viper::Delivery& d) {
    d.truncated ? ++truncated : ++intact;
  });
  auto route_with = [&](std::uint8_t priority) {
    core::SourceRoute route;
    core::HeaderSegment hop = p2p_segment(3, priority);
    route.segments = {hop, local_segment()};
    return route;
  };
  // The victim occupies the slow link for ~113 us; the preemptor lands
  // mid-transmission from the other host.
  a.send(route_with(0), wire::Bytes(1400, 0x01));
  sim.at(40 * sim::kMicrosecond, [&] {
    c.send(route_with(7), wire::Bytes(100, 0x02));
  });
  sim.run();
  EXPECT_EQ(r.port(3).stats().preempt_aborts, 1u);
  EXPECT_EQ(intact, 1);     // the preemptor
  EXPECT_EQ(truncated, 1);  // the aborted victim, detected end-to-end
}

TEST(ViperEdge, TruncationChainsAcrossCutThroughHops) {
  // A packet truncated at hop 1 must be seen as damaged by the receiver
  // even though hop 2 forwarded it before the damage happened upstream.
  sim::Simulator sim;
  Fabric fabric(sim);
  auto& a = fabric.add_host("a.tr");
  auto& r1 = fabric.add_router("r1");
  auto& r2 = fabric.add_router("r2");
  auto& b = fabric.add_host("b.tr");
  fabric.connect(a, r1);
  fabric.connect(r1, r2);
  fabric.connect(r2, b);

  std::optional<viper::Delivery> got;
  b.set_default_handler([&](const viper::Delivery& d) { got = d; });
  core::SourceRoute route;
  route.segments = {p2p_segment(2), p2p_segment(2, 0), local_segment()};
  // Launch a big low-priority packet, then preempt it at r1's output by
  // injecting a priority-7 packet from a second host attached to r1.
  auto& c = fabric.add_host("c.tr");
  fabric.connect(c, r1);
  a.send(route, wire::Bytes(1400, 0x55));
  core::SourceRoute vip_route;
  vip_route.segments = {p2p_segment(2, 7), p2p_segment(2, 7),
                        local_segment()};
  // Time the preemptor to land while the victim is on the r1->r2 wire.
  sim.at(8 * sim::kMicrosecond,
         [&] { c.send(vip_route, wire::Bytes(100, 0x66),
                      viper::SendOptions{{7, false}, 0, 1, {}}); });
  sim.run();
  ASSERT_TRUE(got.has_value());  // the last delivery (either packet)
  EXPECT_GE(b.stats().delivered, 1u);
  // If the victim arrived, it must have been flagged truncated.
  if (b.stats().delivered == 2) {
    EXPECT_GE(b.stats().truncated_received, 1u);
  }
}

TEST(FabricApi, LoadReportingFeedsDirectoryAdvisories) {
  sim::Simulator sim;
  Fabric fabric(sim);
  auto& a = fabric.add_host("a.lr");
  auto& r1 = fabric.add_router("r1");
  auto& r2 = fabric.add_router("r2");
  auto& b = fabric.add_host("b.lr");
  LinkParams slow;
  slow.rate_bps = 1e8;
  fabric.connect(a, r1, slow);
  fabric.connect(r1, r2, slow);
  fabric.connect(r2, b, slow);
  fabric.enable_load_reporting(5 * sim::kMillisecond);

  core::SourceRoute route;
  route.segments = {p2p_segment(2), p2p_segment(2), local_segment()};
  // Saturate the r1->r2 link for 30 ms.
  for (int i = 0; i < 400; ++i) {
    sim.at(1 + i * 80 * sim::kMicrosecond,
           [&] { a.send(route, pattern_bytes(1000)); });
  }
  sim.run_until(30 * sim::kMillisecond);
  const auto* link =
      fabric.topology().find_link(fabric.id_of(r1), fabric.id_of(r2));
  ASSERT_NE(link, nullptr);
  EXPECT_GT(link->load, 0.5);

  // Traffic stops; the next reporting intervals show the link idle again.
  sim.run_until(80 * sim::kMillisecond);
  EXPECT_LT(link->load, 0.1);
}

}  // namespace
}  // namespace srp::dir

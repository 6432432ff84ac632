// Integration tests for VIPER forwarding: the strip/reverse/append router
// algorithm, return routes from trailers, LAN portInfo swapping, MTU
// truncation, multicast, and logical ports.
#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <string>

#include "directory/fabric.hpp"
#include "test_util.hpp"
#include "viper/host.hpp"
#include "viper/router.hpp"

namespace srp::viper {
namespace {

using dir::Fabric;
using dir::LinkParams;
using test::local_segment;
using test::p2p_segment;
using test::pattern_bytes;

struct ViperRoutingTest : ::testing::Test {
  sim::Simulator sim;
  Fabric fabric{sim};
};

TEST_F(ViperRoutingTest, OneHopDeliveryAndReturnRoute) {
  auto& alice = fabric.add_host("alice.test");
  auto& router = fabric.add_router("r1");
  auto& bob = fabric.add_host("bob.test");
  fabric.connect(alice, router);
  fabric.connect(router, bob);

  std::optional<Delivery> at_bob;
  bob.set_default_handler([&](const Delivery& d) { at_bob = d; });
  std::optional<Delivery> back_at_alice;
  alice.set_default_handler([&](const Delivery& d) { back_at_alice = d; });

  // alice -> router (router's port 2 leads to bob) -> bob.
  core::SourceRoute route;
  route.segments = {p2p_segment(2), local_segment()};
  const wire::Bytes payload = pattern_bytes(100);
  alice.send(route, payload);
  sim.run();

  ASSERT_TRUE(at_bob.has_value());
  EXPECT_EQ(at_bob->data, payload);
  EXPECT_EQ(at_bob->hops, 1u);
  EXPECT_FALSE(at_bob->truncated);
  EXPECT_EQ(router.stats().forwarded, 1u);

  // The return route must lead back through the router to alice.
  ASSERT_EQ(at_bob->return_route.segments.size(), 2u);
  EXPECT_EQ(at_bob->return_route.segments[0].port, 1);  // router port 1
  EXPECT_TRUE(at_bob->return_route.segments[0].flags.rpf);

  const wire::Bytes pong = pattern_bytes(60, 3);
  bob.reply(*at_bob, pong);
  sim.run();
  ASSERT_TRUE(back_at_alice.has_value());
  EXPECT_EQ(back_at_alice->data, pong);
}

TEST_F(ViperRoutingTest, MultiHopTrailerAccumulates) {
  test::Line line = test::build_line(fabric, 3, "a.test", "b.test");
  auto& a = *line.src;
  auto& b = *line.dst;

  std::optional<Delivery> at_b;
  b.set_default_handler([&](const Delivery& d) { at_b = d; });

  const core::SourceRoute route = test::line_route(3);
  a.send(route, pattern_bytes(50));
  sim.run();

  ASSERT_TRUE(at_b.has_value());
  EXPECT_EQ(at_b->hops, 3u);
  // Three routers -> three reversed trailer entries -> return route of
  // 3 hops + local segment.
  EXPECT_EQ(at_b->return_route.segments.size(), 4u);

  // Round trip: reply and verify delivery at a.
  std::optional<Delivery> at_a;
  a.set_default_handler([&](const Delivery& d) { at_a = d; });
  b.reply(*at_b, pattern_bytes(10));
  sim.run();
  ASSERT_TRUE(at_a.has_value());
  EXPECT_EQ(at_a->hops, 3u);
  // And the reply's trailer reverses back to b again.
  EXPECT_EQ(at_a->return_route.segments.size(), 4u);
}

TEST_F(ViperRoutingTest, DirectoryRouteWorksEndToEnd) {
  auto& a = fabric.add_host("a.test");
  auto& r1 = fabric.add_router("r1");
  auto& r2 = fabric.add_router("r2");
  auto& b = fabric.add_host("b.test");
  fabric.connect(a, r1);
  fabric.connect(r1, r2);
  fabric.connect(r2, b);

  const auto routes =
      fabric.directory().query(fabric.id_of(a), "b.test", {});
  ASSERT_FALSE(routes.empty());
  const auto& issued = routes.front();
  EXPECT_EQ(issued.hops, 2u);
  EXPECT_EQ(issued.mtu, kViperMtu);

  std::optional<Delivery> at_b;
  b.set_default_handler([&](const Delivery& d) { at_b = d; });
  SendOptions options;
  options.out_port = issued.host_out_port;
  options.link = issued.first_hop_link;
  a.send(issued.route, pattern_bytes(200), options);
  sim.run();
  ASSERT_TRUE(at_b.has_value());
  EXPECT_EQ(at_b->data, pattern_bytes(200));
}

TEST_F(ViperRoutingTest, LanHopSwapsEthernetHeader) {
  // a -- r1 -- [LAN] -- r2 -- b : the r1->r2 hop crosses a LAN, so r1 must
  // prepend the portInfo Ethernet header and r2 must reverse it into the
  // trailer.
  auto& a = fabric.add_host("a.test");
  auto& r1 = fabric.add_router("r1");
  auto& r2 = fabric.add_router("r2");
  auto& b = fabric.add_host("b.test");
  fabric.connect(a, r1);
  auto& lan = fabric.add_lan("lan0");
  fabric.attach_lan(lan, r1);
  fabric.attach_lan(lan, r2);
  fabric.mesh_lan(lan);
  fabric.connect(r2, b);

  const auto routes =
      fabric.directory().query(fabric.id_of(a), "b.test", {});
  ASSERT_FALSE(routes.empty());
  const auto& issued = routes.front();
  // r1's segment carries the 14-byte Ethernet header toward r2.
  ASSERT_EQ(issued.route.segments.size(), 3u);
  EXPECT_EQ(issued.route.segments[0].port_info.size(),
            net::EthernetHeader::kWireSize);

  std::optional<Delivery> at_b;
  b.set_default_handler([&](const Delivery& d) { at_b = d; });
  SendOptions options;
  options.out_port = issued.host_out_port;
  options.link = issued.first_hop_link;
  a.send(issued.route, pattern_bytes(99), options);
  sim.run();
  ASSERT_TRUE(at_b.has_value());
  EXPECT_EQ(at_b->data, pattern_bytes(99));

  // The return route's r2 entry must carry the *reversed* Ethernet header.
  bool lan_entry_found = false;
  for (const auto& seg : at_b->return_route.segments) {
    if (seg.port_info.size() == net::EthernetHeader::kWireSize) {
      lan_entry_found = true;
      wire::Reader r(seg.port_info);
      const auto eth = net::EthernetHeader::decode(r);
      // Destination of the return hop is r1's MAC (the original source).
      wire::Reader fwd(issued.route.segments[0].port_info);
      const auto fwd_eth = net::EthernetHeader::decode(fwd);
      EXPECT_EQ(eth.dst, fwd_eth.src);
      EXPECT_EQ(eth.src, fwd_eth.dst);
    }
  }
  EXPECT_TRUE(lan_entry_found);

  // And the reply must actually make it back across the LAN.
  std::optional<Delivery> at_a;
  a.set_default_handler([&](const Delivery& d) { at_a = d; });
  b.reply(*at_b, pattern_bytes(5));
  sim.run();
  ASSERT_TRUE(at_a.has_value());
  EXPECT_EQ(at_a->data, pattern_bytes(5));
}

TEST_F(ViperRoutingTest, EndpointAddressingSelectsHandler) {
  auto& a = fabric.add_host("a.test");
  auto& r = fabric.add_router("r1");
  auto& b = fabric.add_host("b.test");
  fabric.connect(a, r);
  fabric.connect(r, b);

  int to_first = 0, to_second = 0, to_default = 0;
  b.bind(101, [&](const Delivery&) { ++to_first; });
  b.bind(202, [&](const Delivery&) { ++to_second; });
  b.set_default_handler([&](const Delivery&) { ++to_default; });

  auto send_to = [&](std::uint64_t endpoint) {
    core::SourceRoute route;
    route.segments = {p2p_segment(2), local_segment(endpoint)};
    a.send(route, pattern_bytes(10));
  };
  send_to(101);
  send_to(202);
  send_to(202);
  send_to(999);  // unknown -> default handler + unknown_endpoint count
  sim.run();
  EXPECT_EQ(to_first, 1);
  EXPECT_EQ(to_second, 2);
  EXPECT_EQ(to_default, 1);
  EXPECT_EQ(b.stats().unknown_endpoint, 1u);
}

TEST_F(ViperRoutingTest, MtuTruncationDetectedAtReceiver) {
  auto& a = fabric.add_host("a.test");
  auto& r = fabric.add_router("r1");
  auto& b = fabric.add_host("b.test");
  LinkParams fat;
  fat.mtu = 1500;
  LinkParams thin;
  thin.mtu = 300;  // the second hop cannot carry a 500-byte packet
  fabric.connect(a, r, fat);
  fabric.connect(r, b, thin);

  std::optional<Delivery> at_b;
  b.set_default_handler([&](const Delivery& d) { at_b = d; });
  core::SourceRoute route;
  route.segments = {p2p_segment(2), local_segment()};
  a.send(route, pattern_bytes(500));
  sim.run();

  ASSERT_TRUE(at_b.has_value());
  EXPECT_TRUE(at_b->truncated);
  EXPECT_LT(at_b->data.size(), 500u);
  EXPECT_EQ(r.stats().truncated_forwards, 1u);
}

TEST_F(ViperRoutingTest, MalformedAndMisroutedCounted) {
  auto& a = fabric.add_host("a.test");
  auto& r = fabric.add_router("r1");
  auto& b = fabric.add_host("b.test");
  fabric.connect(a, r);
  fabric.connect(r, b);

  // Route names a nonexistent port at the router.
  core::SourceRoute bad_port;
  bad_port.segments = {p2p_segment(77), local_segment()};
  a.send(bad_port, pattern_bytes(10));
  sim.run();
  EXPECT_EQ(r.stats().dropped_no_port, 1u);

  // A packet whose first segment is not local arrives at the host: the
  // host is not a router and must count it as misrouted.
  core::SourceRoute not_local;
  not_local.segments = {p2p_segment(2), p2p_segment(9), local_segment()};
  a.send(not_local, pattern_bytes(10));
  sim.run();
  EXPECT_EQ(b.stats().misrouted, 1u);
}

TEST_F(ViperRoutingTest, FanoutLogicalPortDuplicates) {
  auto& a = fabric.add_host("a.test");
  auto& r = fabric.add_router("r1");
  auto& b1 = fabric.add_host("b1.test");
  auto& b2 = fabric.add_host("b2.test");
  fabric.connect(a, r);   // r port 1
  fabric.connect(r, b1);  // r port 2
  fabric.connect(r, b2);  // r port 3
  r.define_logical_port(200,
                        LogicalPort{LogicalPort::Kind::kFanout, {2, 3}});

  int got1 = 0, got2 = 0;
  b1.set_default_handler([&](const Delivery&) { ++got1; });
  b2.set_default_handler([&](const Delivery&) { ++got2; });

  core::SourceRoute route;
  route.segments = {p2p_segment(200), local_segment()};
  a.send(route, pattern_bytes(25));
  sim.run();
  EXPECT_EQ(got1, 1);
  EXPECT_EQ(got2, 1);
  EXPECT_EQ(r.stats().fanout_copies, 1u);  // one extra copy
}

TEST_F(ViperRoutingTest, LoadBalanceLogicalPortPicksFreeChannel) {
  // Paper §2.2: a 2-channel logical link; with the first channel busy the
  // second packet must take the other one.
  auto& a = fabric.add_host("a.test");
  auto& r = fabric.add_router("r1");
  auto& b = fabric.add_host("b.test");
  fabric.connect(a, r);
  fabric.connect(r, b);  // r port 2
  fabric.connect(r, b);  // r port 3 (parallel channel)
  r.define_logical_port(
      201, LogicalPort{LogicalPort::Kind::kLoadBalance, {2, 3}});

  int deliveries = 0;
  b.set_default_handler([&](const Delivery&) { ++deliveries; });

  core::SourceRoute route;
  route.segments = {p2p_segment(201), local_segment()};
  // Two sizable packets sent back-to-back: they should use both channels.
  a.send(route, pattern_bytes(1200));
  a.send(route, pattern_bytes(1200));
  sim.run();
  EXPECT_EQ(deliveries, 2);
  EXPECT_EQ(r.port(2).stats().sent + r.port(3).stats().sent, 2u);
  EXPECT_GE(r.port(2).stats().sent, 1u);
  EXPECT_GE(r.port(3).stats().sent, 1u);
}

TEST_F(ViperRoutingTest, TreeMulticastBranches) {
  // a -> r1, where the packet's tree segment splits toward b1 and b2.
  auto& a = fabric.add_host("a.test");
  auto& r = fabric.add_router("r1");
  auto& b1 = fabric.add_host("b1.test");
  auto& b2 = fabric.add_host("b2.test");
  fabric.connect(a, r);
  fabric.connect(r, b1);  // port 2
  fabric.connect(r, b2);  // port 3

  // Branch blobs: each a full continuation route.
  auto branch = [&](std::uint8_t port) {
    core::SourceRoute sub;
    sub.segments = {p2p_segment(port), local_segment()};
    return encode_route(sub);
  };
  core::HeaderSegment tree;
  tree.port = 1;  // ignored: branch routes take over
  tree.port_info = core::encode_tree_info({branch(2), branch(3)});

  // NOTE: the tree segment is consumed at r; each branch's first segment
  // is then consumed too (it names r's out port).
  core::SourceRoute route;
  route.segments = {tree};
  std::optional<Delivery> d1, d2;
  b1.set_default_handler([&](const Delivery& d) { d1 = d; });
  b2.set_default_handler([&](const Delivery& d) { d2 = d; });
  a.send(route, pattern_bytes(30));
  sim.run();
  ASSERT_TRUE(d1.has_value());
  ASSERT_TRUE(d2.has_value());
  EXPECT_EQ(d1->data, pattern_bytes(30));
  EXPECT_EQ(d2->data, pattern_bytes(30));
  EXPECT_EQ(r.stats().tree_copies, 2u);
  // Each copy still built a valid return route through r.
  std::optional<Delivery> back;
  a.set_default_handler([&](const Delivery& d) { back = d; });
  b1.reply(*d1, pattern_bytes(7));
  sim.run();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->data, pattern_bytes(7));
}

TEST_F(ViperRoutingTest, TreeCopyAfterLanHopKeepsTheReturnHop) {
  // a -- r1 -- [LAN] -- r2 -- {b1, b2}: the packet crosses the LAN and
  // branches at r2.  Each copy's return entry must be the hop the arrival
  // earned — r2's LAN port with the reversed Ethernet header — or the
  // reply cannot cross the LAN back to r1.
  auto& a = fabric.add_host("a.test");
  auto& r1 = fabric.add_router("r1");
  auto& r2 = fabric.add_router("r2");
  auto& b1 = fabric.add_host("b1.test");
  auto& b2 = fabric.add_host("b2.test");
  fabric.connect(a, r1);
  auto& lan = fabric.add_lan("lan0");
  fabric.attach_lan(lan, r1);
  fabric.attach_lan(lan, r2);  // r2 port 1
  fabric.mesh_lan(lan);
  fabric.connect(r2, b1);  // r2 port 2
  fabric.connect(r2, b2);  // r2 port 3

  const auto routes =
      fabric.directory().query(fabric.id_of(a), "b1.test", {});
  ASSERT_FALSE(routes.empty());
  const auto& issued = routes.front();
  ASSERT_EQ(issued.route.segments.size(), 3u);
  auto branch = [&](std::uint8_t port) {
    core::SourceRoute sub;
    sub.segments = {p2p_segment(port), local_segment()};
    return encode_route(sub);
  };
  core::HeaderSegment tree;
  tree.port = 2;  // ignored: branch routes take over
  tree.port_info = core::encode_tree_info({branch(2), branch(3)});
  core::SourceRoute route;
  route.segments = {issued.route.segments[0], tree};

  std::optional<Delivery> d1, d2;
  b1.set_default_handler([&](const Delivery& d) { d1 = d; });
  b2.set_default_handler([&](const Delivery& d) { d2 = d; });
  SendOptions options;
  options.out_port = issued.host_out_port;
  options.link = issued.first_hop_link;
  a.send(route, pattern_bytes(40), options);
  sim.run();
  ASSERT_TRUE(d1.has_value());
  ASSERT_TRUE(d2.has_value());
  EXPECT_EQ(r2.stats().tree_copies, 2u);

  std::optional<Delivery> back;
  a.set_default_handler([&](const Delivery& d) { back = d; });
  b1.reply(*d1, pattern_bytes(7));
  sim.run();
  EXPECT_EQ(r2.stats().dropped_malformed, 0u);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->data, pattern_bytes(7));
}

TEST_F(ViperRoutingTest, TreeInTreeIsDroppedAtTheNestedBranch) {
  // a -> r1 -> b (r1 port 2).  The frozen image leads with a tree of 255
  // empty branches whose every copy leads with another such tree: each
  // copy is malformed, so one packet costs 255 copies, not 65,280.
  auto& a = fabric.add_host("a.test");
  auto& r = fabric.add_router("r1");
  auto& b = fabric.add_host("b.test");
  fabric.connect(a, r);
  fabric.connect(r, b);  // port 2
  int deliveries = 0;
  b.set_default_handler([&](const Delivery&) { ++deliveries; });

  std::ifstream in(std::string(GOLDEN_DIR) + "/tree_in_tree.bin",
                   std::ios::binary);
  ASSERT_TRUE(in);
  wire::Bytes image((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  net::PacketFactory packets;
  a.port(1).enqueue(packets.make(std::move(image), sim.now()),
                    net::TxMeta{});
  sim.run();

  EXPECT_EQ(r.stats().received, 1u);
  EXPECT_EQ(r.stats().tree_copies, 255u);
  EXPECT_EQ(r.stats().dropped_malformed, 255u);
  EXPECT_EQ(deliveries, 0);
}

TEST_F(ViperRoutingTest, CutThroughBeatsStoreAndForward) {
  // Same 3-hop path; compare delivery time with cut-through on vs off.
  auto run_case = [&](bool cut_through) {
    sim::Simulator s;
    Fabric f(s);
    viper::RouterConfig rc;
    rc.cut_through = cut_through;
    auto& src = f.add_host("s.test");
    auto& r1 = f.add_router("r1", rc);
    auto& r2 = f.add_router("r2", rc);
    auto& dst = f.add_host("d.test");
    f.connect(src, r1);
    f.connect(r1, r2);
    f.connect(r2, dst);
    sim::Time delivered = 0;
    dst.set_default_handler(
        [&](const Delivery& d) { delivered = d.delivered_at; });
    core::SourceRoute route;
    route.segments = {p2p_segment(2), p2p_segment(2), local_segment()};
    src.send(route, pattern_bytes(1200));
    s.run();
    EXPECT_GT(delivered, 0);
    return delivered;
  };
  const sim::Time ct = run_case(true);
  const sim::Time sf = run_case(false);
  // Store-and-forward pays ~full packet serialization per extra hop.
  EXPECT_LT(ct, sf);
  EXPECT_GT(sf - ct, 2 * 9 * sim::kMicrosecond);  // 2 hops, ~1.2KB at 1G
}

TEST_F(ViperRoutingTest, RateMismatchFallsBackToStoreAndForward) {
  sim::Simulator s;
  Fabric f(s);
  auto& src = f.add_host("s.test");
  auto& r1 = f.add_router("r1");
  auto& dst = f.add_host("d.test");
  LinkParams fast;
  fast.rate_bps = 1e9;
  LinkParams slow;
  slow.rate_bps = 1e8;  // 10x slower: cut-through illegal
  f.connect(src, r1, fast);
  f.connect(r1, dst, slow);
  std::optional<Delivery> at_dst;
  dst.set_default_handler([&](const Delivery& d) { at_dst = d; });
  core::SourceRoute route;
  route.segments = {p2p_segment(2), local_segment()};
  src.send(route, pattern_bytes(1000));
  s.run();
  ASSERT_TRUE(at_dst.has_value());
  // Arrival cannot be earlier than full reception at r1 plus the slow
  // serialization: > 8 us (fast rx) + 80 us (slow tx).
  EXPECT_GT(at_dst->delivered_at, 88 * sim::kMicrosecond);
}

TEST_F(ViperRoutingTest, NoInfiniteLoopsByConstruction) {
  // A "looping" route just burns its finite segments: a -> r -> a -> r...
  // is impossible to express beyond the segments provided (paper §2:
  // "the header is finite and is reduced by each router").
  auto& a = fabric.add_host("a.test");
  auto& r = fabric.add_router("r1");
  fabric.connect(a, r);
  int received = 0;
  a.set_default_handler([&](const Delivery&) { ++received; });
  core::SourceRoute route;
  // Bounce a->r->a->r->a using the duplex ports.
  route.segments = {p2p_segment(1), local_segment()};
  a.send(route, pattern_bytes(8));
  sim.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(r.stats().forwarded, 1u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

}  // namespace
}  // namespace srp::viper

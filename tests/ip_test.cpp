// Tests for the IP datagram baseline: header codec, per-hop costs (TTL,
// checksum, store-and-forward), fragmentation/reassembly, and
// distance-vector routing convergence.
#include <gtest/gtest.h>

#include <optional>

#include "ip/builder.hpp"
#include "ip/dv.hpp"
#include "ip/header.hpp"
#include "test_util.hpp"

namespace srp::ip {
namespace {

using test::pattern_bytes;

TEST(IpHeaderCodec, RoundTrip) {
  IpHeader h;
  h.tos = 0x20;
  h.id = 777;
  h.ttl = 31;
  h.protocol = kProtoVmtp;
  h.src = 0x0A000001;
  h.dst = 0x0A000002;
  const wire::Bytes payload = pattern_bytes(64);
  const wire::Bytes packet = encode_ip_packet(h, payload);
  EXPECT_EQ(packet.size(), IpHeader::kWireSize + 64);
  const auto view = decode_ip_packet(packet);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->header.ttl, 31);
  EXPECT_EQ(view->header.src, h.src);
  EXPECT_EQ(view->header.total_length, packet.size());
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                         view->payload.begin(), view->payload.end()));
}

TEST(IpHeaderCodec, ChecksumCatchesCorruption) {
  IpHeader h;
  h.dst = 5;
  wire::Bytes packet = encode_ip_packet(h, pattern_bytes(10));
  packet[16] ^= 0x01;  // flip a bit in the dst address
  EXPECT_FALSE(decode_ip_packet(packet).has_value());
}

TEST(IpHeaderCodec, TtlDecrementKeepsChecksumValid) {
  IpHeader h;
  h.ttl = 3;
  h.dst = 9;
  wire::Bytes packet = encode_ip_packet(h, pattern_bytes(5));
  EXPECT_TRUE(decrement_ttl_in_place(packet));
  auto view = decode_ip_packet(packet);  // verifies checksum
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->header.ttl, 2);
  EXPECT_TRUE(decrement_ttl_in_place(packet));
  EXPECT_FALSE(decrement_ttl_in_place(packet));  // would hit zero
}

struct IpLineTest : ::testing::Test {
  sim::Simulator sim;
  IpFabric fabric{sim};
  IpHost* a = nullptr;
  IpRouter* r1 = nullptr;
  IpRouter* r2 = nullptr;
  IpHost* b = nullptr;

  static constexpr Addr kA = 0x0A000001, kB = 0x0A000002;
  static constexpr Addr kR1 = 0x0A0000FE, kR2 = 0x0A0000FD;

  void build(std::size_t middle_mtu = 1500) {
    a = &fabric.add_host("a", kA);
    r1 = &fabric.add_router("r1", kR1);
    r2 = &fabric.add_router("r2", kR2);
    b = &fabric.add_host("b", kB);
    const net::LinkConfig edge{1e9, 10 * sim::kMicrosecond, 1500};
    const net::LinkConfig middle{1e9, 10 * sim::kMicrosecond, middle_mtu};
    fabric.connect(*a, *r1, edge);
    fabric.connect(*r1, *r2, middle);
    fabric.connect(*r2, *b, edge);
    fabric.enable_dv(DvConfig{20 * sim::kMillisecond, 60 * sim::kMillisecond});
    // Let DV converge.
    sim.run_until(200 * sim::kMillisecond);
  }
};

TEST_F(IpLineTest, DvLearnsEndToEndRoutes) {
  build();
  EXPECT_TRUE(r1->lookup(kB).has_value());
  EXPECT_TRUE(r2->lookup(kA).has_value());
  EXPECT_EQ(*r1->lookup(kB), 2);  // r1's port toward r2
}

TEST_F(IpLineTest, DatagramDeliveredAndTtlDecremented) {
  build();
  std::optional<IpHeader> got;
  wire::Bytes got_payload;
  b->set_handler([&](const IpHeader& h, wire::Bytes payload) {
    got = h;
    got_payload = std::move(payload);
  });
  a->send(kB, kProtoVmtp, pattern_bytes(100));
  sim.run_until(300 * sim::kMillisecond);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->ttl, 62);  // 64 minus two router hops
  EXPECT_EQ(got_payload, pattern_bytes(100));
  EXPECT_EQ(b->stats().delivered, 1u);
}

TEST_F(IpLineTest, NoRouteDropsCounted) {
  build();
  a->send(0xDEAD0000, kProtoVmtp, pattern_bytes(10));
  sim.run_until(250 * sim::kMillisecond);
  EXPECT_GE(r1->stats().dropped_no_route, 1u);
}

TEST_F(IpLineTest, FragmentationAndReassembly) {
  build(/*middle_mtu=*/500);
  std::optional<IpHeader> got;
  wire::Bytes got_payload;
  b->set_handler([&](const IpHeader& h, wire::Bytes payload) {
    got = h;
    got_payload = std::move(payload);
  });
  const wire::Bytes payload = pattern_bytes(1200);
  a->send(kB, kProtoVmtp, payload);
  sim.run_until(300 * sim::kMillisecond);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got_payload, payload);
  EXPECT_GE(r1->stats().fragments_created, 3u);
  EXPECT_EQ(b->stats().reassembled, 1u);
}

TEST_F(IpLineTest, MissingFragmentTimesOutAllOrNothing) {
  build(/*middle_mtu=*/500);
  // Drop one fragment on the middle link.
  int count = 0;
  r1->port(2).fault_hook = net::drop_when([&](const net::Packet& p) {
    // RIP updates also use this port; drop only big data fragments.
    return p.size() > 400 && ++count == 2;
  });
  a->send(kB, kProtoVmtp, pattern_bytes(1200));
  sim.run_until(sim::kSecond);
  EXPECT_EQ(b->stats().delivered, 0u);
  EXPECT_EQ(b->stats().reassembly_timeouts, 1u);
}

TEST_F(IpLineTest, TtlExpiryDropsPacket) {
  build();
  std::optional<IpHeader> got;
  b->set_handler([&](const IpHeader& h, wire::Bytes) { got = h; });
  // TTL 1 dies at the second router.
  IpHeader h;
  h.ttl = 2;
  h.protocol = kProtoVmtp;
  h.src = kA;
  h.dst = kB;
  // Send a raw packet with a tiny TTL through the host's port.
  // (IpHost::send always uses the default TTL, so craft one by hand.)
  auto& net = fabric.network();
  auto packet = net.packets().make(encode_ip_packet(h, pattern_bytes(10)),
                                   sim.now());
  a->port(1).enqueue(std::move(packet), net::TxMeta{}, 0);
  sim.run_until(300 * sim::kMillisecond);
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(r2->stats().dropped_ttl, 1u);
}

TEST(IpDvConvergence, ReroutesAroundFailure) {
  // Triangle: r1 - r2 - r3 - r1; hosts a at r1, b at r3.
  sim::Simulator sim;
  IpFabric fabric(sim);
  constexpr Addr kA = 1, kB = 2;
  auto& a = fabric.add_host("a", kA);
  auto& b = fabric.add_host("b", kB);
  auto& r1 = fabric.add_router("r1", 100);
  auto& r2 = fabric.add_router("r2", 101);
  auto& r3 = fabric.add_router("r3", 102);
  const net::LinkConfig cfg{1e9, 10 * sim::kMicrosecond, 1500};
  fabric.connect(a, r1, cfg);   // r1 port 1
  fabric.connect(r1, r3, cfg);  // r1 port 2 (direct path)
  fabric.connect(r1, r2, cfg);  // r1 port 3 (detour)
  fabric.connect(r2, r3, cfg);
  fabric.connect(r3, b, cfg);
  fabric.enable_dv(DvConfig{20 * sim::kMillisecond, 60 * sim::kMillisecond});
  sim.run_until(200 * sim::kMillisecond);
  ASSERT_TRUE(r1.lookup(kB).has_value());
  EXPECT_EQ(*r1.lookup(kB), 2);  // direct

  fabric.fail_link(r1, r3);
  // Convergence: r1 must eventually point at the detour via r2.
  sim::Time converged_at = 0;
  for (sim::Time t = 210 * sim::kMillisecond; t <= 2 * sim::kSecond;
       t += 10 * sim::kMillisecond) {
    sim.run_until(t);
    const auto route = r1.lookup(kB);
    if (route.has_value() && *route == 3) {
      converged_at = t;
      break;
    }
  }
  EXPECT_GT(converged_at, 0) << "distance vector never converged";
  // And traffic flows again.
  int delivered = 0;
  b.set_handler([&](const IpHeader&, wire::Bytes) { ++delivered; });
  a.send(kB, kProtoVmtp, pattern_bytes(10));
  sim.run_until(converged_at + 100 * sim::kMillisecond);
  EXPECT_EQ(delivered, 1);
}

TEST(IpReassemblyOverflow, BoundedBuffersFailSystematically) {
  sim::Simulator sim;
  IpFabric fabric(sim);
  IpHostConfig small;
  small.max_reassemblies = 2;
  auto& a = fabric.add_host("a", 1);
  auto& r = fabric.add_router("r", 100);
  auto& b = fabric.add_host("b", 2, small);
  const net::LinkConfig edge{1e9, sim::kMicrosecond, 1500};
  const net::LinkConfig thin{1e9, sim::kMicrosecond, 300};
  fabric.connect(a, r, edge);
  fabric.connect(r, b, thin);
  r.add_connected(1, 1);
  r.add_connected(2, 2);
  // Hold every datagram incomplete by dropping its final fragment, so the
  // 2-buffer reassembly table overruns — the paper's systematic failure.
  r.port(2).fault_hook = net::drop_when([](const net::Packet& p) {
    const auto view = decode_ip_packet(p.bytes);
    return view.has_value() && !view->header.more_fragments() &&
           view->header.frag_offset_bytes() > 0;
  });
  for (int i = 0; i < 6; ++i) {
    a.send(2, kProtoVmtp, test::pattern_bytes(900));
  }
  sim.run_until(400 * sim::kMillisecond);  // before reassembly timeout
  EXPECT_GT(b.stats().reassembly_overflows, 0u);
  EXPECT_EQ(b.stats().delivered, 0u);
}

TEST(DvUpdateCodec, RoundTrip) {
  const std::vector<std::pair<Addr, std::uint8_t>> entries{
      {0x0A000001, 1}, {0x0A000002, 16}, {0xFFFFFFFF, 3}};
  const wire::Bytes bytes = encode_dv_update(entries);
  EXPECT_EQ(decode_dv_update(bytes), entries);
}

}  // namespace
}  // namespace srp::ip

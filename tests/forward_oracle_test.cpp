// Differential test of the router's one forwarding path against the
// copy-decode reference (reference_forward.hpp).
//
// ViperRouter rewrites every hop into an arena slab from segment views;
// the reference decodes with field copies, builds the return entry as a
// core::HeaderSegment and encodes it through a wire::Writer before
// Packet::derive().  Every dispatch the router has — point-to-point, LAN
// in and out, tunnel ingress and egress, logical fan-out and trunk, tree
// branch copies, the kBlocking retry — must produce exactly the
// reference's bytes and side-band, including the telemetry stamp, the
// MTU cut, escaped (> 254 B) fields, VNT padding and both reversible and
// non-reversible tokens.  Forwarded packets are captured through the
// shaper hook (custody taken, so no link machinery runs) and tunnel
// egress through the tunnel transmit hook.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/multicast.hpp"
#include "reference_forward.hpp"
#include "test_util.hpp"
#include "tokens/cache.hpp"
#include "tokens/token.hpp"
#include "viper/codec.hpp"
#include "viper/router.hpp"

namespace srp::viper {
namespace {

using test::local_segment;
using test::p2p_segment;
using test::pattern_bytes;
using test::ReferenceHop;

constexpr std::uint32_t kRouterId = 9;
constexpr int kSmallMtuPort = 4;
constexpr std::size_t kSmallMtu = 128;

net::EthernetHeader ethernet(std::uint16_t dst, std::uint16_t src) {
  return net::EthernetHeader{net::MacAddr::from_index(dst),
                             net::MacAddr::from_index(src),
                             net::kEtherTypeSirpent};
}

wire::Bytes encoded(const net::EthernetHeader& header) {
  wire::Writer w(net::EthernetHeader::kWireSize);
  header.encode(w);
  return std::move(w).take();
}

/// [link header] route, DataLen, @p payload.
wire::Bytes image(const core::SourceRoute& route, std::size_t payload,
                  const std::optional<net::EthernetHeader>& link = {}) {
  wire::Bytes bytes = link.has_value() ? encoded(*link) : wire::Bytes{};
  const wire::Bytes body = encode_packet(route, pattern_bytes(payload, 3));
  bytes.insert(bytes.end(), body.begin(), body.end());
  return bytes;
}

core::SourceRoute two_hop(core::HeaderSegment first) {
  core::SourceRoute route;
  route.segments.push_back(std::move(first));
  route.segments.push_back(local_segment(0x1234));
  return route;
}

/// A hop arriving on @p in_port; each case sets the rest.
ReferenceHop arrived_on(int in_port) {
  ReferenceHop hop;
  hop.in_port = in_port;
  return hop;
}

RouterConfig config() {
  RouterConfig config;
  config.router_id = kRouterId;
  return config;
}

class ForwardOracle : public ::testing::Test {
 protected:
  struct Emitted {
    int out_port = 0;
    net::PacketPtr packet;
  };
  struct Tunneled {
    wire::Bytes info;
    wire::Bytes encap;
    core::TypeOfService tos;
  };

  ForwardOracle() {
    router_.add_port(link_);  // 1: ingress
    router_.add_port(link_);  // 2
    router_.add_port(link_);  // 3
    net::LinkConfig small = link_;
    small.mtu_bytes = kSmallMtu;
    router_.add_port(small);  // 4: small MTU
    router_.set_shaper([this](int out_port, std::uint8_t, net::PacketPtr p,
                              net::TxMeta, sim::Time) {
      emitted_.push_back({out_port, std::move(p)});
      return true;  // custody taken: nothing reaches the link
    });
  }

  /// A packet arriving on @p in_port, with every side-band field set.
  net::Arrival arrive(const wire::Bytes& bytes, int in_port = 1) {
    net::PacketPtr packet =
        packets_.make(bytes, 7 * sim::kMicrosecond, /*flow=*/42);
    packet->hops = 3;
    packet->trace_id = 77;
    packet->route_digest = 0xD16E57;
    packet->feedforward = 5;
    net::Arrival arrival;
    arrival.packet = packet;
    arrival.in_port = in_port;
    arrival.head = sim_.now() + 10 * sim::kMicrosecond;
    arrival.tail = arrival.head + sim::byte_time(bytes.size(), link_.rate_bps);
    arrival.rate_bps = link_.rate_bps;
    return arrival;
  }

  /// The record this router stamps for a cut-through forward of
  /// @p arrival to an idle @p out_port whose front is @p consumed bytes.
  obs::HopTelemetry stamp(const net::Arrival& arrival, int out_port,
                          std::size_t consumed,
                          obs::TokenOutcome token = obs::TokenOutcome::kNone) {
    obs::HopTelemetry t;
    t.router_id = kRouterId;
    t.hop = static_cast<std::uint8_t>(arrival.packet->hops);
    t.egress_port = static_cast<std::uint8_t>(out_port);
    t.token = token;
    t.cut_through = true;
    t.in_port = static_cast<std::uint16_t>(arrival.in_port);
    t.arrival_ps = static_cast<std::uint64_t>(arrival.head);
    t.depart_ps = static_cast<std::uint64_t>(
        arrival.head + sim::byte_time(consumed, arrival.rate_bps) +
        router_.config().decision_delay);
    return t;
  }

  static void expect_same(const net::Packet& got, const net::Packet& want) {
    EXPECT_EQ(got.bytes, want.bytes);
    EXPECT_EQ(got.id, want.id);
    EXPECT_EQ(got.created, want.created);
    EXPECT_EQ(got.flow, want.flow);
    EXPECT_EQ(got.hops, want.hops);
    EXPECT_EQ(got.trace_id, want.trace_id);
    EXPECT_EQ(got.route_digest, want.route_digest);
    EXPECT_EQ(got.telemetry, want.telemetry);
    EXPECT_EQ(got.truncated, want.truncated);
    EXPECT_EQ(got.last_in_port, want.last_in_port);
    EXPECT_EQ(got.feedforward, want.feedforward);
    EXPECT_EQ(got.recirculations, want.recirculations);
    EXPECT_EQ(got.parent.get(), want.parent.get());
  }

  /// Routes @p arrival and expects one forward out @p out_port equal to
  /// the reference.
  void expect_forward(const net::Arrival& arrival, const ReferenceHop& hop,
                      int out_port) {
    emitted_.clear();
    router_.on_arrival(arrival);
    sim_.run();
    ASSERT_EQ(emitted_.size(), 1u);
    EXPECT_EQ(emitted_[0].out_port, out_port);
    expect_same(*emitted_[0].packet,
                *test::reference_forward(*arrival.packet,
                                         arrival.packet->bytes, hop));
  }

  void enforce_tokens(tokens::UncachedPolicy policy) {
    router_.set_token_authority(&authority_, &ledger_);
    router_.set_token_requirement(true, policy, 20 * sim::kMicrosecond);
  }

  wire::Bytes mint(std::uint8_t port, bool reverse_ok) {
    tokens::TokenBody body;
    body.router_id = kRouterId;
    body.port = port;
    body.max_priority = 7;
    body.reverse_ok = reverse_ok;
    body.account = 3;
    return authority_.mint(body);
  }

  sim::Simulator sim_;
  net::LinkConfig link_;
  ViperRouter router_{sim_, "r.oracle", config()};
  net::PacketFactory packets_;
  tokens::TokenAuthority authority_{0x0AC1E};
  tokens::Ledger ledger_;
  std::vector<Emitted> emitted_;
};

TEST_F(ForwardOracle, PointToPoint) {
  const auto arrival = arrive(image(two_hop(p2p_segment(2, 3)), 64));
  expect_forward(arrival, arrived_on(1), 2);
}

TEST_F(ForwardOracle, DropIfBlockedIsMirroredIntoTheReturnEntry) {
  core::HeaderSegment seg = p2p_segment(2, 5);
  seg.tos.drop_if_blocked = true;
  seg.flags.dib = true;
  const auto arrival = arrive(image(two_hop(seg), 64));
  expect_forward(arrival, arrived_on(1), 2);
}

TEST_F(ForwardOracle, LanIngressReversesTheLinkHeader) {
  router_.set_port_kind(1, PortKind::kLan);
  const auto arrival =
      arrive(image(two_hop(p2p_segment(2)), 64, ethernet(1, 2)));
  ReferenceHop hop = arrived_on(1);
  hop.link_in = true;
  expect_forward(arrival, hop, 2);
}

TEST_F(ForwardOracle, LanEgressPrependsTheNextLinkHeader) {
  router_.set_port_kind(2, PortKind::kLan);
  core::HeaderSegment seg = p2p_segment(2);
  seg.flags.vnt = false;
  seg.port_info = encoded(ethernet(5, 6));
  const auto arrival = arrive(image(two_hop(seg), 64));
  ReferenceHop hop = arrived_on(1);
  hop.link_out = true;
  expect_forward(arrival, hop, 2);
}

TEST_F(ForwardOracle, LanToLan) {
  router_.set_port_kind(1, PortKind::kLan);
  router_.set_port_kind(2, PortKind::kLan);
  core::HeaderSegment seg = p2p_segment(2);
  seg.flags.vnt = false;
  seg.port_info = encoded(ethernet(5, 6));
  const auto arrival = arrive(image(two_hop(seg), 200, ethernet(1, 2)));
  ReferenceHop hop = arrived_on(1);
  hop.link_in = true;
  hop.link_out = true;
  expect_forward(arrival, hop, 2);
}

TEST_F(ForwardOracle, LanEgressWithoutALinkHeaderIsDropped) {
  router_.set_port_kind(2, PortKind::kLan);
  core::HeaderSegment seg = p2p_segment(2);
  seg.flags.vnt = false;
  seg.port_info = pattern_bytes(net::EthernetHeader::kWireSize - 1);
  router_.on_arrival(arrive(image(two_hop(seg), 64)));
  EXPECT_TRUE(emitted_.empty());
  EXPECT_EQ(router_.stats().dropped_malformed, 1u);
}

TEST_F(ForwardOracle, TunnelIngressNamesTheTunnelPort) {
  for (const std::size_t info_size : {std::size_t{0}, std::size_t{5},
                                      std::size_t{300}}) {
    emitted_.clear();
    const wire::Bytes bytes = image(two_hop(p2p_segment(2)), 64);
    const wire::Bytes info = pattern_bytes(info_size, 9);
    router_.inject_from_tunnel(11, bytes, info);
    ASSERT_EQ(emitted_.size(), 1u) << info_size;
    const net::Packet& injected = *emitted_[0].packet->parent;
    EXPECT_EQ(injected.bytes, bytes);
    ReferenceHop hop = arrived_on(0);
    hop.tunnel_return.emplace(11, info);
    expect_same(*emitted_[0].packet,
                *test::reference_forward(injected, bytes, hop));
  }
}

TEST_F(ForwardOracle, TunnelEgressEncapsulatesTheRewrite) {
  std::vector<Tunneled> tunneled;
  router_.define_tunnel_port(
      12, [&](const wire::Bytes& info, wire::Bytes encap,
              const core::TypeOfService& tos) {
        tunneled.push_back({info, std::move(encap), tos});
      });
  core::HeaderSegment seg = p2p_segment(12, 5);
  seg.flags.vnt = false;
  seg.port_info = pattern_bytes(5, 4);
  seg.token = pattern_bytes(40, 8);
  const auto arrival = arrive(image(two_hop(seg), 100));
  router_.set_path_telemetry(true);
  arrival.packet->telemetry = true;
  router_.on_arrival(arrival);

  ASSERT_EQ(tunneled.size(), 1u);
  EXPECT_TRUE(emitted_.empty());
  EXPECT_EQ(tunneled[0].info, seg.port_info);
  EXPECT_EQ(tunneled[0].tos, seg.tos);
  // Tunnel egress is store-and-forward: decision at the tail, no queue.
  obs::HopTelemetry t = stamp(arrival, 12, 0);
  t.cut_through = false;
  t.depart_ps = static_cast<std::uint64_t>(arrival.tail);
  ReferenceHop hop = arrived_on(1);
  hop.token_reversible = true;
  hop.telemetry = t;
  const wire::Bytes& bytes = arrival.packet->bytes;
  EXPECT_EQ(tunneled[0].encap,
            test::reference_rewrite(
                bytes, test::reference_front(bytes, hop.link_in), hop));
}

TEST_F(ForwardOracle, LogicalFanoutCopiesEveryMember) {
  router_.define_logical_port(
      20, LogicalPort{LogicalPort::Kind::kFanout, {2, 3}});
  const auto arrival = arrive(image(two_hop(p2p_segment(20)), 64));
  router_.on_arrival(arrival);
  ASSERT_EQ(emitted_.size(), 2u);
  const auto want = test::reference_forward(
      *arrival.packet, arrival.packet->bytes, arrived_on(1));
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(emitted_[i].out_port, static_cast<int>(i) + 2);
    expect_same(*emitted_[i].packet, *want);
  }
  EXPECT_NE(emitted_[0].packet, emitted_[1].packet);
  EXPECT_EQ(router_.stats().fanout_copies, 1u);
}

TEST_F(ForwardOracle, TrunkPicksAnIdleMember) {
  router_.define_logical_port(
      21, LogicalPort{LogicalPort::Kind::kLoadBalance, {3, 2}});
  const auto arrival = arrive(image(two_hop(p2p_segment(21)), 64));
  expect_forward(arrival, arrived_on(1), 3);
}

TEST_F(ForwardOracle, TreeBranchesRouteCopies) {
  core::SourceRoute left;
  left.segments.push_back(p2p_segment(2));
  core::SourceRoute right;
  right.segments.push_back(p2p_segment(3, 6));
  core::HeaderSegment tree = p2p_segment(2);
  tree.flags.vnt = false;
  tree.port_info = core::encode_tree_info(
      {encode_route(left), encode_route(right)});
  router_.set_port_kind(1, PortKind::kLan);  // branch copies carry no link
  const auto arrival =
      arrive(image(two_hop(tree), 80, ethernet(1, 2)));
  router_.on_arrival(arrival);

  ASSERT_EQ(emitted_.size(), 2u);
  // Each copy's return entry is the hop the arrival earned: the LAN port
  // with the reversed link header as its portInfo.
  ReferenceHop hop = arrived_on(1);
  hop.tunnel_return.emplace(1, encoded(ethernet(1, 2).reversed()));
  const wire::Bytes& bytes = arrival.packet->bytes;
  const std::size_t rest_at = net::EthernetHeader::kWireSize +
                              segment_wire_size(tree);
  int out_port = 2;
  std::size_t i = 0;
  for (const core::SourceRoute& branch : {left, right}) {
    wire::Bytes copy = encode_route(branch);
    copy.insert(copy.end(), bytes.begin() + static_cast<long>(rest_at),
                bytes.end());
    EXPECT_EQ(emitted_[i].out_port, out_port);
    expect_same(*emitted_[i].packet,
                *test::reference_forward(*arrival.packet, copy, hop));
    ++out_port;
    ++i;
  }
  EXPECT_EQ(router_.stats().tree_copies, 2u);
}

TEST_F(ForwardOracle, TreeBranchesAfterTunnelIngressKeepTheTunnelReturn) {
  core::SourceRoute left;
  left.segments.push_back(p2p_segment(2));
  core::SourceRoute right;
  right.segments.push_back(p2p_segment(3));
  core::HeaderSegment tree = p2p_segment(2);
  tree.flags.vnt = false;
  tree.port_info = core::encode_tree_info(
      {encode_route(left), encode_route(right)});
  const wire::Bytes bytes = image(two_hop(tree), 48);
  const wire::Bytes info = pattern_bytes(6, 9);
  router_.inject_from_tunnel(11, bytes, info);

  ASSERT_EQ(emitted_.size(), 2u);
  const net::Packet& injected = *emitted_[0].packet->parent;
  // Each copy names the tunnel port and far-end info, not local port 0.
  ReferenceHop hop = arrived_on(0);
  hop.tunnel_return.emplace(11, info);
  const std::size_t rest_at = segment_wire_size(tree);
  int out_port = 2;
  std::size_t i = 0;
  for (const core::SourceRoute& branch : {left, right}) {
    wire::Bytes copy = encode_route(branch);
    copy.insert(copy.end(), bytes.begin() + static_cast<long>(rest_at),
                bytes.end());
    EXPECT_EQ(emitted_[i].out_port, out_port);
    expect_same(*emitted_[i].packet,
                *test::reference_forward(injected, copy, hop));
    ++out_port;
    ++i;
  }
  EXPECT_EQ(router_.stats().tree_copies, 2u);
}

TEST_F(ForwardOracle, TelemetryStampFollowsTheReturnEntry) {
  router_.set_path_telemetry(true);
  const auto arrival = arrive(image(two_hop(p2p_segment(2)), 64));
  arrival.packet->telemetry = true;
  ReferenceHop hop = arrived_on(1);
  hop.telemetry = stamp(arrival, 2, 4);
  expect_forward(arrival, hop, 2);
  EXPECT_EQ(router_.stats().telemetry_stamped, 1u);
}

TEST_F(ForwardOracle, MtuCutAppendsTheTruncationMark) {
  const auto arrival =
      arrive(image(two_hop(p2p_segment(kSmallMtuPort)), 256));
  ReferenceHop hop = arrived_on(1);
  hop.mtu = kSmallMtu;
  expect_forward(arrival, hop, kSmallMtuPort);
  EXPECT_EQ(router_.stats().truncated_forwards, 1u);
}

TEST_F(ForwardOracle, MtuCutSlicesTheTelemetryRecord) {
  router_.set_path_telemetry(true);
  // The image fits the MTU; only the stamp pushes it over.
  const auto arrival = arrive(
      image(two_hop(p2p_segment(kSmallMtuPort)), kSmallMtu - 20));
  arrival.packet->telemetry = true;
  ReferenceHop hop = arrived_on(1);
  hop.telemetry = stamp(arrival, kSmallMtuPort, 4);
  hop.mtu = kSmallMtu;
  expect_forward(arrival, hop, kSmallMtuPort);
  EXPECT_EQ(router_.stats().truncated_forwards, 1u);
}

TEST_F(ForwardOracle, EscapedTokenAndPortInfo) {
  core::HeaderSegment seg = p2p_segment(2);
  seg.flags.vnt = false;
  seg.token = pattern_bytes(300, 5);
  seg.port_info = pattern_bytes(300, 6);
  const auto arrival = arrive(image(two_hop(seg), 64));
  // Unenforced tokens are echoed into the trailer.
  ReferenceHop hop = arrived_on(1);
  hop.token_reversible = true;
  expect_forward(arrival, hop, 2);
}

TEST_F(ForwardOracle, VntPaddingIsSkippedNotForwarded) {
  core::HeaderSegment seg = p2p_segment(2);
  seg.port_info = pattern_bytes(6, 0xAB);  // VNT set: padding
  const auto arrival = arrive(image(two_hop(seg), 64));
  expect_forward(arrival, arrived_on(1), 2);
}

TEST_F(ForwardOracle, EnforcedTokensEchoOnlyWhenReversible) {
  enforce_tokens(tokens::UncachedPolicy::kOptimistic);
  for (const bool reverse_ok : {false, true}) {
    core::HeaderSegment seg = p2p_segment(2);
    seg.token = mint(2, reverse_ok);
    const wire::Bytes bytes = image(two_hop(seg), 64);
    // Uncached: optimistic admission echoes the token.
    ReferenceHop hop = arrived_on(1);
    hop.token_reversible = true;
    expect_forward(arrive(bytes), hop, 2);
    // The verification has landed: a hit echoes it only if reversible.
    hop.token_reversible = reverse_ok;
    expect_forward(arrive(bytes), hop, 2);
  }
}

TEST_F(ForwardOracle, BlockingRetryReparsesTheDeferredCopy) {
  enforce_tokens(tokens::UncachedPolicy::kBlocking);
  router_.set_path_telemetry(true);
  router_.set_port_kind(1, PortKind::kLan);
  core::HeaderSegment seg = p2p_segment(2);
  seg.token = mint(2, /*reverse_ok=*/true);
  const auto arrival = arrive(image(two_hop(seg), 64, ethernet(1, 2)));
  arrival.packet->telemetry = true;
  router_.on_arrival(arrival);
  EXPECT_TRUE(emitted_.empty());  // deferred until verification lands
  sim_.run();

  ASSERT_EQ(emitted_.size(), 1u);
  // The retry sees a cache hit but keeps the miss-blocking outcome.
  ReferenceHop hop = arrived_on(1);
  hop.link_in = true;
  hop.token_reversible = true;
  hop.telemetry = stamp(
      arrival, 2,
      net::EthernetHeader::kWireSize + 4 + tokens::kTokenWireSize,
      obs::TokenOutcome::kMissBlocking);
  expect_same(*emitted_[0].packet,
              *test::reference_forward(*arrival.packet,
                                       arrival.packet->bytes, hop));
}

TEST_F(ForwardOracle, BlockingRetryKeepsTheTunnelReturn) {
  enforce_tokens(tokens::UncachedPolicy::kBlocking);
  core::HeaderSegment seg = p2p_segment(2);
  seg.token = mint(2, /*reverse_ok=*/false);
  const wire::Bytes bytes = image(two_hop(seg), 64);
  const wire::Bytes info = pattern_bytes(5, 2);
  router_.inject_from_tunnel(11, bytes, info);
  EXPECT_TRUE(emitted_.empty());
  sim_.run();

  ASSERT_EQ(emitted_.size(), 1u);
  ReferenceHop hop = arrived_on(0);
  hop.tunnel_return.emplace(11, info);
  expect_same(*emitted_[0].packet,
              *test::reference_forward(*emitted_[0].packet->parent, bytes,
                                       hop));
}

}  // namespace
}  // namespace srp::viper

// Parameterized property sweeps across the stack.
#include <gtest/gtest.h>

#include <optional>

#include "cvc/host.hpp"
#include "cvc/switch.hpp"
#include "directory/fabric.hpp"
#include "ip/builder.hpp"
#include "obs/recorder.hpp"
#include "stats/queueing.hpp"
#include "stats/registry.hpp"
#include "test_util.hpp"
#include "transport/vmtp.hpp"
#include "workload/sources.hpp"

namespace srp {
namespace {

using test::local_segment;
using test::p2p_segment;
using test::pattern_bytes;

// ---------- Simulated queue matches M/D/1 across utilizations ----------

class Md1Sweep : public ::testing::TestWithParam<double> {};

TEST_P(Md1Sweep, SimMatchesClosedFormWithinTolerance) {
  const double rho = GetParam();
  sim::Simulator sim;
  net::Network net(sim);
  net::PacketFactory packets;
  struct Sink : net::PortedNode {
    using net::PortedNode::PortedNode;
    void on_arrival(const net::Arrival&) override {}
  };
  auto& a = net.add<Sink>("a");
  auto& b = net.add<Sink>("b");
  const auto [pa, pb] = net.duplex(a, b, net::LinkConfig{1e9, 0, 65536});
  (void)pb;
  net::TxPort& port = a.port(pa);

  constexpr std::size_t kSize = 1000;
  const double service_s = kSize * 8.0 / 1e9;
  // Each packet's wait (start minus enqueue) from the port's histogram.
  stats::Registry registry;
  port.set_observer(obs::Observer{&registry, nullptr});
  const stats::Histogram& wait_ps = registry.histogram(
      "port." + stats::metric_component(port.name()) + ".queue_wait_ps");
  wl::PoissonSource source(
      sim, 42 + static_cast<std::uint64_t>(rho * 100),
      sim::from_seconds(service_s / rho), [&] {
        port.enqueue(packets.make(wire::Bytes(kSize, 0), sim.now()),
                     net::TxMeta{}, 0);
      });
  source.start();
  sim.run_until(3 * sim::kSecond);
  source.stop();
  sim.run();

  ASSERT_GT(wait_ps.count(), 0u);
  const double mean_wait_units = static_cast<double>(wait_ps.sum()) /
                                 static_cast<double>(wait_ps.count()) /
                                 static_cast<double>(sim::kSecond) /
                                 service_s;
  const double expected = stats::md1_mean_wait_service_units(rho);
  // 12% relative + small absolute tolerance for simulation noise.
  EXPECT_NEAR(mean_wait_units, expected, 0.12 * expected + 0.03)
      << "rho=" << rho;
}

INSTANTIATE_TEST_SUITE_P(Utilizations, Md1Sweep,
                         ::testing::Values(0.2, 0.3, 0.4, 0.5, 0.6, 0.7,
                                           0.8));

// ---------- Priority order property over all pairs ----------

class PriorityPair
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PriorityPair, HigherRankDepartsFirstWhenQueuedTogether) {
  const auto [pa_raw, pb_raw] = GetParam();
  const auto prio_a = static_cast<std::uint8_t>(pa_raw);
  const auto prio_b = static_cast<std::uint8_t>(pb_raw);
  if (core::priority_rank(prio_a) == core::priority_rank(prio_b)) {
    GTEST_SKIP() << "equal ranks are FIFO (covered elsewhere)";
  }
  sim::Simulator sim;
  net::Network net(sim);
  net::PacketFactory packets;
  auto& a = net.add<test::SinkNode>("a");
  auto& b = net.add<test::SinkNode>("b");
  const auto [port_a, _] = net.duplex(a, b, net::LinkConfig{1e9, 0, 1500});
  // Occupy the wire, then enqueue both.
  a.port(port_a).enqueue(packets.make(wire::Bytes(1000, 0), 0),
                         net::TxMeta{}, 0);
  auto pkt_a = packets.make(wire::Bytes(100, 1), 0);
  auto pkt_b = packets.make(wire::Bytes(100, 2), 0);
  const auto id_hi = core::priority_rank(prio_a) > core::priority_rank(prio_b)
                         ? pkt_a->id
                         : pkt_b->id;
  a.port(port_a).enqueue(pkt_a,
                         net::TxMeta{core::priority_rank(prio_a), false,
                                     false},
                         0);
  a.port(port_a).enqueue(pkt_b,
                         net::TxMeta{core::priority_rank(prio_b), false,
                                     false},
                         0);
  sim.run();
  ASSERT_EQ(b.arrivals.size(), 3u);
  EXPECT_EQ(b.arrivals[1].packet->id, id_hi)
      << "priorities " << pa_raw << " vs " << pb_raw;
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, PriorityPair,
    ::testing::Combine(::testing::Values(0, 1, 5, 7, 8, 15),
                       ::testing::Values(0, 2, 6, 9, 15)));

// ---------- VMTP packet group sizes 1..16 ----------

class GroupSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(GroupSizeSweep, RoundTripsAtEveryGroupSize) {
  const int kb = GetParam();
  sim::Simulator sim;
  dir::Fabric fabric(sim);
  auto& ch = fabric.add_host("c.group");
  auto& r = fabric.add_router("r1");
  auto& sh = fabric.add_host("s.group");
  fabric.connect(ch, r);
  fabric.connect(r, sh);
  vmtp::VmtpEndpoint client(sim, ch, 1, {});
  vmtp::VmtpEndpoint server(sim, sh, 2, {});
  server.serve([](std::span<const std::uint8_t> req, const viper::Delivery&) {
    return wire::Bytes(req.begin(), req.end());
  });
  dir::QueryOptions q;
  q.dest_endpoint = 2;
  const auto routes = fabric.directory().query(fabric.id_of(ch), "s.group",
                                               q);
  ASSERT_FALSE(routes.empty());
  const wire::Bytes request =
      pattern_bytes(static_cast<std::size_t>(kb) * 1024 - 7);
  std::optional<vmtp::Result> result;
  client.invoke(routes[0], 2, request,
                [&](vmtp::Result r2) { result = std::move(r2); });
  sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok);
  EXPECT_EQ(result->response, request);
}

INSTANTIATE_TEST_SUITE_P(Kilobytes, GroupSizeSweep,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 12, 16));

// ---------- IP fragmentation across MTUs ----------

class MtuSweep : public ::testing::TestWithParam<int> {};

TEST_P(MtuSweep, FragmentationReassemblesAtEveryMtu) {
  const auto mtu = static_cast<std::size_t>(GetParam());
  sim::Simulator sim;
  ip::IpFabric fabric(sim);
  auto& a = fabric.add_host("a", 1);
  auto& r = fabric.add_router("r", 100);
  auto& b = fabric.add_host("b", 2);
  fabric.connect(a, r, net::LinkConfig{1e9, sim::kMicrosecond, 1500});
  fabric.connect(r, b, net::LinkConfig{1e9, sim::kMicrosecond, mtu});
  r.add_connected(1, 1);
  r.add_connected(2, 2);
  const wire::Bytes payload = pattern_bytes(1200);
  wire::Bytes got;
  b.set_handler(
      [&](const ip::IpHeader&, wire::Bytes p) { got = std::move(p); });
  a.send(2, ip::kProtoVmtp, payload);
  sim.run_until(sim::kSecond);
  EXPECT_EQ(got, payload) << "mtu " << mtu;
  if (mtu < 1220) {
    EXPECT_GT(r.stats().fragments_created, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Mtus, MtuSweep,
                         ::testing::Values(68, 100, 256, 300, 512, 576,
                                           1006, 1500));

// ---------- MPL boundary sweep ----------

class MplSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(MplSweep, AgeBoundaryRespected) {
  const std::int64_t offset_ms = GetParam();  // sender clock offset
  sim::Simulator sim;
  dir::Fabric fabric(sim);
  auto& ch = fabric.add_host("c.mpl");
  auto& r = fabric.add_router("r1");
  auto& sh = fabric.add_host("s.mpl");
  fabric.connect(ch, r);
  fabric.connect(r, sh);
  vmtp::VmtpConfig client_config;
  client_config.clock_offset = offset_ms * sim::kMillisecond;
  client_config.max_retries = 0;
  vmtp::VmtpConfig server_config;
  server_config.mpl_ms = 10'000;
  server_config.future_skew_ms = 1'000;
  vmtp::VmtpEndpoint client(sim, ch, 1, client_config);
  vmtp::VmtpEndpoint server(sim, sh, 2, server_config);
  server.serve([](std::span<const std::uint8_t>, const viper::Delivery&) {
    return wire::Bytes{1};
  });
  dir::QueryOptions q;
  q.dest_endpoint = 2;
  const auto routes =
      fabric.directory().query(fabric.id_of(ch), "s.mpl", q);
  client.invoke(routes[0], 2, pattern_bytes(10), [](vmtp::Result) {});
  sim.run_until(100 * sim::kMillisecond);

  // Sender offset -X ms => packets look X ms old; acceptance window is
  // (-1000, +10000] ms of age.
  const bool should_accept = -offset_ms <= 10'000 && -offset_ms >= -1'000;
  if (should_accept) {
    EXPECT_EQ(server.stats().requests_served, 1u) << offset_ms;
    EXPECT_EQ(server.stats().mpl_discards, 0u);
  } else {
    EXPECT_EQ(server.stats().requests_served, 0u) << offset_ms;
    EXPECT_GE(server.stats().mpl_discards, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Offsets, MplSweep,
                         ::testing::Values(-60'000, -20'000, -9'000, -500,
                                           0, 500, 2'000, 20'000));

// ---------- CVC circuit-count state accounting ----------

class CircuitCountSweep : public ::testing::TestWithParam<int> {};

TEST_P(CircuitCountSweep, StateScalesLinearlyWithHeldCircuits) {
  const int count = GetParam();
  sim::Simulator sim;
  net::Network net(sim);
  auto& a = net.add<cvc::CvcHost>("a", net.packets());
  auto& s = net.add<cvc::CvcSwitch>("s");
  auto& b = net.add<cvc::CvcHost>("b", net.packets());
  const net::LinkConfig cfg{1e9, sim::kMicrosecond, 1500};
  net.duplex(a, s, cfg);
  net.duplex(s, b, cfg);
  int connected = 0;
  for (int i = 0; i < count; ++i) {
    a.open({2}, [&](auto c) { connected += c.has_value() ? 1 : 0; });
  }
  sim.run();
  EXPECT_EQ(connected, count);
  EXPECT_EQ(s.stats().circuits_active, static_cast<std::size_t>(count));
  EXPECT_EQ(s.state_bytes(), static_cast<std::size_t>(count) * 2 * 32);
}

INSTANTIATE_TEST_SUITE_P(Counts, CircuitCountSweep,
                         ::testing::Values(1, 4, 16, 64, 200));

}  // namespace
}  // namespace srp

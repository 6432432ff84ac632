// Tests for the optional / forward-looking mechanisms: Blazenet-style
// delay lines (§2.1), token expiry, CVC call rejection, hierarchical
// switch structuring (§5), and transport-id process migration (§4.1).
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "cvc/host.hpp"
#include "cvc/switch.hpp"
#include "directory/fabric.hpp"
#include "test_util.hpp"
#include "transport/vmtp.hpp"

namespace srp {
namespace {

using test::local_segment;
using test::p2p_segment;
using test::pattern_bytes;

// ---------- Delay lines (paper §2.1) ----------

TEST(DelayLines, DeferInsteadOfDroppingTransientBursts) {
  sim::Simulator sim;
  dir::Fabric fabric(sim);
  auto& src = fabric.add_host("src.dl");
  auto& r = fabric.add_router("r1");
  auto& dst = fabric.add_host("dst.dl");
  dir::LinkParams fast;
  fast.rate_bps = 1e9;
  dir::LinkParams slow;
  slow.rate_bps = 1e8;
  fabric.connect(src, r, fast);
  fabric.connect(r, dst, slow);
  r.port(2).set_buffer_limit(2'500);  // two packets of queue, tops
  r.enable_delay_lines(200 * sim::kMicrosecond, /*max_recirculations=*/10);

  int delivered = 0;
  dst.set_default_handler([&](const viper::Delivery&) { ++delivered; });
  core::SourceRoute route;
  route.segments = {p2p_segment(2), local_segment()};
  // A 10-packet burst overruns the 2.5 KB buffer instantly...
  for (int i = 0; i < 10; ++i) src.send(route, pattern_bytes(1000));
  sim.run();
  // ...but the delay lines recirculate the overflow until the slow link
  // drains: nothing is lost.
  EXPECT_EQ(delivered, 10);
  EXPECT_EQ(r.port(2).stats().dropped_full, 0u);
  EXPECT_GT(r.port(2).stats().deflected, 0u);
  EXPECT_GT(r.stats().delay_line_loops, 0u);
}

TEST(DelayLines, RecirculationCapBoundsSustainedOverload) {
  sim::Simulator sim;
  dir::Fabric fabric(sim);
  auto& src = fabric.add_host("src.dl2");
  auto& r = fabric.add_router("r1");
  auto& dst = fabric.add_host("dst.dl2");
  dir::LinkParams fast;
  fast.rate_bps = 1e9;
  dir::LinkParams slow;
  slow.rate_bps = 1e7;  // 10 Mb/s: hopeless under this burst
  fabric.connect(src, r, fast);
  fabric.connect(r, dst, slow);
  r.port(2).set_buffer_limit(2'500);
  r.enable_delay_lines(50 * sim::kMicrosecond, /*max_recirculations=*/3);

  core::SourceRoute route;
  route.segments = {p2p_segment(2), local_segment()};
  for (int i = 0; i < 60; ++i) src.send(route, pattern_bytes(1000));
  sim.run_until(100 * sim::kMillisecond);
  // The cap turned sustained overload back into (bounded) loss instead of
  // packets circulating forever.
  EXPECT_GT(r.stats().delay_line_overflows, 0u);
  EXPECT_GT(r.port(2).stats().dropped_full, 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// ---------- Token expiry ----------

TEST(TokenExpiry, ExpiredTokensRejectedAtTheRouter) {
  sim::Simulator sim;
  dir::Fabric fabric(sim);
  auto& src = fabric.add_host("src.exp");
  auto& r = fabric.add_router("r1");
  auto& dst = fabric.add_host("dst.exp");
  fabric.connect(src, r);
  fabric.connect(r, dst);
  fabric.enable_tokens(0xE1, true, tokens::UncachedPolicy::kBlocking,
                       10 * sim::kMicrosecond);
  dir::QueryOptions q;
  q.token_expiry_sec = 1;  // valid for the first simulated second only
  const auto routes =
      fabric.directory().query(fabric.id_of(src), "dst.exp", q);
  ASSERT_FALSE(routes.empty());

  int delivered = 0;
  dst.set_default_handler([&](const viper::Delivery&) { ++delivered; });
  viper::SendOptions options;
  options.out_port = routes[0].host_out_port;

  src.send(routes[0].route, pattern_bytes(50), options);
  sim.run();
  EXPECT_EQ(delivered, 1);  // inside the validity window

  sim.run_until(2 * sim::kSecond);  // let the token age past expiry
  src.send(routes[0].route, pattern_bytes(50), options);
  sim.run();
  EXPECT_EQ(delivered, 1);  // rejected now
  EXPECT_EQ(r.stats().dropped_expired_token, 1u);
}

// ---------- CVC rejection ----------

TEST(CvcReject, UnroutableSetupRejectedImmediately) {
  sim::Simulator sim;
  net::Network net(sim);
  auto& a = net.add<cvc::CvcHost>("a", net.packets());
  auto& s = net.add<cvc::CvcSwitch>("s");
  auto& b = net.add<cvc::CvcHost>("b", net.packets());
  const net::LinkConfig cfg{1e9, 10 * sim::kMicrosecond, 1500};
  net.duplex(a, s, cfg);
  net.duplex(s, b, cfg);

  std::optional<std::optional<std::uint16_t>> outcome;
  sim::Time decided_at = 0;
  a.open({77}, [&](auto c) {  // port 77 does not exist at the switch
    outcome = c;
    decided_at = sim.now();
  });
  sim.run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->has_value());
  // Decided by the Reject, far faster than the 200 ms setup timeout.
  EXPECT_LT(decided_at, 5 * sim::kMillisecond);
  EXPECT_EQ(a.stats().setup_timeouts, 0u);
}

// ---------- Hierarchical switches (paper §5) ----------

TEST(HierarchicalSwitch, TwoStageFabricExtendsFanout) {
  // "We require that larger fan-out switches be structured hierarchically
  // as a series of switches, each with a fan-out of at most 255" — here a
  // root stage feeding 3 leaf stages of 4 hosts each; a route crosses two
  // segments inside the "one big switch".
  sim::Simulator sim;
  dir::Fabric fabric(sim);
  auto& src = fabric.add_host("src.h");
  auto& root = fabric.add_router("stage0");
  fabric.connect(src, root);  // root port 1
  std::vector<viper::ViperRouter*> leaves;
  std::vector<viper::ViperHost*> hosts;
  for (int l = 0; l < 3; ++l) {
    auto& leaf = fabric.add_router("stage1-" + std::to_string(l));
    fabric.connect(root, leaf);  // root ports 2..4, leaf port 1 up
    leaves.push_back(&leaf);
    for (int h = 0; h < 4; ++h) {
      auto& host = fabric.add_host(test::numbered("h", l) + "_" +
                                   std::to_string(h) + ".h");
      fabric.connect(leaf, host);  // leaf ports 2..5
      hosts.push_back(&host);
    }
  }
  // Reach host (leaf 2, member 3) through the two stages.
  std::optional<viper::Delivery> got;
  hosts[11]->set_default_handler(
      [&](const viper::Delivery& d) { got = d; });
  core::SourceRoute route;
  route.segments = {p2p_segment(4), p2p_segment(5), local_segment()};
  src.send(route, pattern_bytes(64));
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->hops, 2u);  // two internal stages
  // The directory sees it the same way and round trips work.
  std::optional<viper::Delivery> back;
  src.set_default_handler([&](const viper::Delivery& d) { back = d; });
  hosts[11]->reply(*got, pattern_bytes(5));
  sim.run();
  ASSERT_TRUE(back.has_value());
  // The added stage costs only a cut-through decision, not a full store:
  // (paper: hierarchy "imposes no significant additional delay given the
  // use of cut-through routing at each stage").
  EXPECT_LT(got->delivered_at - got->sent_at, 50 * sim::kMicrosecond);
}

// ---------- Entity migration (paper §4.1) ----------

TEST(EntityMigration, TransportIdSurvivesMovingHosts) {
  // "The network-independent addressing in VMTP is used to support
  // process migration, multi-homed hosts and mobile hosts."  The entity
  // keeps its 64-bit id; only the route changes.
  sim::Simulator sim;
  dir::Fabric fabric(sim);
  auto& client_host = fabric.add_host("client.mig");
  auto& r = fabric.add_router("r1");
  auto& host_a = fabric.add_host("a.mig");
  auto& host_b = fabric.add_host("b.mig");
  fabric.connect(client_host, r);
  fabric.connect(r, host_a);
  fabric.connect(r, host_b);

  constexpr std::uint64_t kService = 0x5EAF00D;
  vmtp::VmtpEndpoint client(sim, client_host, 0xC, {});
  auto serve = [](std::span<const std::uint8_t>, const viper::Delivery&) {
    return wire::Bytes{0xAA};
  };

  dir::QueryOptions q;
  q.dest_endpoint = kService;

  // Incarnation 1 on host A.
  auto service = std::make_unique<vmtp::VmtpEndpoint>(
      sim, host_a, kService, vmtp::VmtpConfig{});
  service->serve(serve);
  auto routes = fabric.directory().query(fabric.id_of(client_host),
                                         "a.mig", q);
  std::optional<vmtp::Result> r1v;
  client.invoke(routes[0], kService, pattern_bytes(8),
                [&](vmtp::Result res) { r1v = std::move(res); });
  sim.run();
  ASSERT_TRUE(r1v.has_value());
  EXPECT_TRUE(r1v->ok);

  // Migrate: tear down on A, re-incarnate on B with the SAME entity id.
  service.reset();  // unbinds from host A
  host_a.set_default_handler({});
  service = std::make_unique<vmtp::VmtpEndpoint>(sim, host_b, kService,
                                                 vmtp::VmtpConfig{});
  service->serve(serve);

  // The client just asks the directory for the service's new location;
  // its transport-level peer id is unchanged.
  routes = fabric.directory().query(fabric.id_of(client_host), "b.mig", q);
  std::optional<vmtp::Result> r2v;
  client.invoke(routes[0], kService, pattern_bytes(8),
                [&](vmtp::Result res) { r2v = std::move(res); });
  sim.run();
  ASSERT_TRUE(r2v.has_value());
  EXPECT_TRUE(r2v->ok);
  EXPECT_EQ(r2v->response, wire::Bytes{0xAA});

  // A stale packet sent to the OLD host is not accepted by anyone else:
  // host A has no binding left, so it lands in unknown_endpoint.
  auto stale = fabric.directory().query(fabric.id_of(client_host),
                                        "a.mig", q);
  client.invoke(stale[0], kService, pattern_bytes(8), [](vmtp::Result) {});
  sim.run_until(sim.now() + 50 * sim::kMillisecond);
  EXPECT_GT(host_a.stats().unknown_endpoint, 0u);
}

}  // namespace
}  // namespace srp

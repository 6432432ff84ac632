// One home per count: every registry counter is a read-only binding to a
// field its component already keeps, so after a fixed-seed chaos run with
// every observability plane on, each series must equal its struct field
// (the sum of the fields where several components share a name).  The
// same run with the planes off must deliver the same responses and leave
// every node's Stats identical — observers count, they never steer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "congestion/controller.hpp"
#include "directory/fabric.hpp"
#include "fault/engine.hpp"
#include "flow/observer.hpp"
#include "flow/plane.hpp"
#include "health/monitor.hpp"
#include "obs/recorder.hpp"
#include "obs/telemetry.hpp"
#include "test_util.hpp"
#include "transport/vmtp.hpp"

namespace srp {
namespace {

constexpr int kClients = 3;  // share the client host: one vmtp.* name
constexpr std::uint64_t kServer = 0x5E;
constexpr sim::Time kTrafficEnd = 300 * sim::kMillisecond;
constexpr sim::Time kDrainEnd = 3 * sim::kSecond;

/// What a run must reproduce whether or not it is observed.
struct RunDigest {
  /// (client, ok, response hash, completion time), sorted: the delivery
  /// multiset.
  std::vector<std::tuple<int, bool, std::uint64_t, sim::Time>> deliveries;
  /// Every node's, port's, endpoint's and controller's Stats, word by word.
  std::vector<std::uint64_t> stats;

  bool operator==(const RunDigest&) const = default;
};

/// Appends a Stats struct of plain 64-bit counters word by word.
template <class S>
void append_words(std::vector<std::uint64_t>& out, const S& s) {
  static_assert(std::is_trivially_copyable_v<S>);
  static_assert(sizeof(S) % sizeof(std::uint64_t) == 0);
  const std::size_t at = out.size();
  out.resize(at + sizeof(S) / sizeof(std::uint64_t));
  std::memcpy(out.data() + at, &s, sizeof(S));
}

std::uint64_t series(const std::map<std::string, std::uint64_t>& snap,
                     const std::string& name) {
  const auto it = snap.find(name);
  EXPECT_NE(it, snap.end()) << name << " is not a registry series";
  return it != snap.end() ? it->second : 0;
}

/// Every former twin series equals the field it is bound to.
void expect_one_home(const stats::Registry& registry, dir::Fabric& fabric,
                     const fault::FaultEngine& engine,
                     const stats::Registry& fault_stats,
                     const flow::FlowPlane& plane,
                     const vmtp::VmtpEndpoint& server,
                     const std::vector<std::unique_ptr<vmtp::VmtpEndpoint>>&
                         clients) {
  const auto snap = registry.snapshot();

  vmtp::VmtpEndpoint::Stats sum;
  for (const auto& client : clients) {
    sum.timeouts += client->stats().timeouts;
    sum.failures += client->stats().failures;
    sum.retransmitted_packets += client->stats().retransmitted_packets;
  }
  EXPECT_GT(sum.retransmitted_packets, 0u);
  EXPECT_EQ(series(snap, "vmtp.client_chaos.timeouts"), sum.timeouts);
  EXPECT_EQ(series(snap, "vmtp.client_chaos.failures"), sum.failures);
  EXPECT_EQ(series(snap, "vmtp.client_chaos.retransmits"),
            sum.retransmitted_packets);
  EXPECT_EQ(series(snap, "vmtp.server_chaos.retransmits"),
            server.stats().retransmitted_packets);

  std::uint64_t sampled = 0;
  for (viper::ViperRouter* router : fabric.routers()) {
    const std::string r = stats::metric_component(router->name());
    const auto& cc = fabric.controller_of(*router)->stats();
    EXPECT_EQ(series(snap, "cc." + r + ".reports_sent"), cc.reports_sent);
    EXPECT_EQ(series(snap, "cc." + r + ".reports_received"),
              cc.reports_received);
    EXPECT_EQ(series(snap, "cc." + r + ".shaped"), cc.packets_shaped);
    const flow::FlowObserver* flow = plane.observer(router->name());
    ASSERT_NE(flow, nullptr) << router->name();
    EXPECT_EQ(series(snap, "flow." + r + ".sampled"), flow->sampled());
    EXPECT_EQ(series(snap, "flow." + r + ".evictions"),
              flow->table().stats().evictions);
    sampled += flow->sampled();
  }
  EXPECT_GT(sampled, 0u);

  const auto& totals = fabric.path_collector()->totals();
  EXPECT_GT(totals.packets, 0u);
  EXPECT_EQ(series(snap, "int.path.packets"), totals.packets);
  EXPECT_EQ(series(snap, "int.path.hops_stamped"), totals.hops_stamped);
  EXPECT_EQ(series(snap, "int.path.truncated"), totals.truncated);
  EXPECT_EQ(series(snap, "int.path.decode_errors"), totals.decode_errors);
  EXPECT_EQ(series(snap, "int.path.drops_localized"),
            totals.drops_localized);
  EXPECT_EQ(series(snap, "int.path.paths_overflow"), totals.paths_overflow);

  EXPECT_GT(fabric.health_monitor()->windows(), 0u);
  EXPECT_EQ(series(snap, "health.monitor.windows"),
            fabric.health_monitor()->windows());

  // The fault engine's counts: every series is the engine's own count,
  // including the flap count schedule_flap and the lane share.
  for (const auto& [name, value] : fault_stats.snapshot()) {
    const auto first = name.find('.');
    const auto last = name.rfind('.');
    EXPECT_EQ(engine.count(name.substr(first + 1, last - first - 1),
                           name.substr(last + 1)),
              value)
        << name;
  }
  EXPECT_EQ(engine.count("r1:p2", "flap"), 1u);
}

RunDigest run(std::uint64_t seed, bool observed) {
  stats::Registry registry;
  obs::FlightRecorder recorder(std::size_t{1} << 14);
  flow::FlowPlane plane(flow::FlowConfig{128, 16, seed}, &registry,
                        &recorder);
  const obs::Observer observer =
      observed ? obs::Observer{&registry, &recorder, &plane}
               : obs::Observer{};

  sim::Simulator sim;
  dir::Fabric fabric(sim);
  auto& client_host = fabric.add_host("client.chaos");
  auto& server_host = fabric.add_host("server.chaos");
  auto& r1 = fabric.add_router("r1");
  auto& r2 = fabric.add_router("r2");
  auto& r3a = fabric.add_router("r3a");
  auto& r3b = fabric.add_router("r3b");
  auto& r4 = fabric.add_router("r4");
  dir::LinkParams fast;
  fast.prop_delay = 10 * sim::kMicrosecond;
  dir::LinkParams slower;
  slower.prop_delay = 15 * sim::kMicrosecond;
  fabric.connect(client_host, r1, fast);
  fabric.connect(r1, r2, fast);
  fabric.connect(r2, r4, fast);
  fabric.connect(r1, r3a, slower);
  fabric.connect(r3a, r3b, slower);
  fabric.connect(r3b, r4, slower);
  fabric.connect(r4, server_host, fast);
  fabric.enable_tokens(0xC4A05, /*enforce=*/true,
                       tokens::UncachedPolicy::kOptimistic);
  fabric.enable_congestion_control();
  fabric.enable_observability(observer);
  dir::PathTelemetryConfig telemetry;
  telemetry.seed = seed;
  telemetry.sample_period = 4;
  fabric.enable_path_telemetry(telemetry);
  if (observed) fabric.enable_health();

  fault::FaultPlan plan;
  plan.seed = seed;
  plan.defaults.drop_rate = 0.01;
  plan.defaults.duplicate_rate = 0.01;
  plan.defaults.reorder_rate = 0.01;
  plan.defaults.jitter_rate = 0.01;
  plan.token_poisons_per_second = 100.0;
  for (const char* lane : {"client.chaos:p1", "server.chaos:p1"}) {
    plan.lane(lane).corrupt_rate = 0.01;
    plan.lane(lane).corrupt_max_bits = 1;
  }
  stats::Registry fault_stats;
  fault::FaultEngine engine(sim, plan, fault_stats);
  for (auto* router : fabric.routers()) {
    engine.attach_all(*router);
    engine.attach_token_cache(std::string(router->name()),
                              router->token_cache());
  }
  engine.attach_all(client_host);
  engine.attach_all(server_host);
  engine.schedule_flap(r1.port(2), 100 * sim::kMillisecond,
                       20 * sim::kMillisecond);

  vmtp::VmtpConfig config;
  config.max_retries = 6;
  vmtp::VmtpEndpoint server(sim, server_host, kServer, config);
  server.set_observer(observer);
  server.serve([](std::span<const std::uint8_t> req, const viper::Delivery&) {
    wire::Bytes response(req.begin(), req.end());
    for (auto& byte : response) byte ^= 0x5A;
    return response;
  });
  dir::RouteCacheConfig cache_config;
  cache_config.ttl = kDrainEnd;
  dir::RouteCache& cache = fabric.route_cache(client_host, cache_config);
  std::vector<std::unique_ptr<vmtp::VmtpEndpoint>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<vmtp::VmtpEndpoint>(
        sim, client_host, 0xC1 + static_cast<std::uint64_t>(c), config));
    clients.back()->set_observer(observer);
    clients.back()->set_observer(observer);  // rebinding must not double
    clients.back()->set_failure_hook(
        [&cache] { cache.report_failure("server.chaos"); });
  }

  RunDigest digest;
  dir::QueryOptions q;
  q.dest_endpoint = kServer;
  sim::Rng traffic(seed * 131 + 17);
  int issued = 0;
  test::drive(sim, 1, kTrafficEnd, [&]() -> sim::Time {
    const auto route = cache.route_to("server.chaos", q);
    if (route.has_value()) {
      const int c = issued++ % kClients;
      clients[static_cast<std::size_t>(c)]->invoke(
          *route, kServer,
          test::pattern_bytes(1 + traffic.uniform_int(0, 2000),
                              static_cast<std::uint8_t>(issued)),
          [&digest, &sim, c](vmtp::Result r) {
            digest.deliveries.emplace_back(c, r.ok, test::fnv1a(r.response),
                                           sim.now());
          });
    }
    return static_cast<sim::Time>(sim::kMillisecond +
                                  traffic.uniform_int(0, sim::kMillisecond));
  });
  sim.run_until(kDrainEnd);

  EXPECT_GT(issued, 100);
  EXPECT_EQ(digest.deliveries.size(), static_cast<std::size_t>(issued));
  std::sort(digest.deliveries.begin(), digest.deliveries.end());
  for (viper::ViperRouter* router : fabric.routers()) {
    append_words(digest.stats, router->stats());
    for (int p = 1; p <= router->port_count(); ++p) {
      append_words(digest.stats, router->port(p).stats());
    }
    append_words(digest.stats, fabric.controller_of(*router)->stats());
  }
  for (viper::ViperHost* host : fabric.hosts()) {
    append_words(digest.stats, host->stats());
    append_words(digest.stats, host->port(1).stats());
  }
  append_words(digest.stats, server.stats());
  for (const auto& client : clients) append_words(digest.stats, client->stats());
  for (const auto& [name, value] : fault_stats.snapshot()) {
    digest.stats.push_back(value);
  }

  if (observed) {
    expect_one_home(registry, fabric, engine, fault_stats, plane, server,
                    clients);
  }
  return digest;
}

TEST(OneHome, FormerTwinsReadTheirStructFields) { run(7, /*observed=*/true); }

TEST(ObserversNeverSteer, ChaosRunIsIdenticalWithPlanesOffAndOn) {
  const RunDigest off = run(7, /*observed=*/false);
  const RunDigest on = run(7, /*observed=*/true);
  EXPECT_EQ(off.deliveries, on.deliveries);
  EXPECT_EQ(off.stats, on.stats);
}

}  // namespace
}  // namespace srp

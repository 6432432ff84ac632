// Shared helpers for the Sirpent test suite.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "congestion/throttle.hpp"
#include "core/segment.hpp"
#include "directory/fabric.hpp"
#include "fault/engine.hpp"
#include "net/network.hpp"
#include "net/node.hpp"
#include "sim/random.hpp"
#include "transport/vmtp.hpp"
#include "viper/router.hpp"

namespace srp::test {

/// FNV-1a over a byte span — the suite's content-hash for wire/payload
/// equivalence checks.
inline std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// Node that records every arrival for assertions.
class SinkNode : public net::PortedNode {
 public:
  SinkNode(sim::Simulator& sim, std::string name)
      : net::PortedNode(sim, std::move(name)) {}

  void on_arrival(const net::Arrival& arrival) override {
    arrivals.push_back(arrival);
  }

  std::vector<net::Arrival> arrivals;
};

/// A point-to-point hop segment (VNT set, no token).
inline core::HeaderSegment p2p_segment(std::uint8_t port,
                                       std::uint8_t priority = 0) {
  core::HeaderSegment seg;
  seg.port = port;
  seg.tos.priority = priority;
  seg.flags.vnt = true;
  return seg;
}

/// A final local-delivery segment addressed to @p endpoint (0 = default
/// dispatcher).
inline core::HeaderSegment local_segment(std::uint64_t endpoint = 0) {
  core::HeaderSegment seg;
  seg.port = core::kLocalPort;
  if (endpoint != 0) {
    seg.port_info = viper::encode_endpoint_id(endpoint);
  } else {
    seg.flags.vnt = true;
  }
  return seg;
}

/// Bytes helper.
inline wire::Bytes bytes_of(std::initializer_list<std::uint8_t> list) {
  return wire::Bytes(list);
}

/// Payload of n distinct bytes.
inline wire::Bytes pattern_bytes(std::size_t n, std::uint8_t seed = 1) {
  wire::Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(seed + i * 13);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Topology builders (hoisted from the per-suite fixtures).

/// A src —r0—r1—…—r(n-1)— dst line built through the fabric: the fixture
/// shape shared by the vmtp, congestion and routing suites.  Each fabric
/// connect() allocates ports in order, so on every router port 1 faces the
/// source and port 2 faces the destination.
struct Line {
  viper::ViperHost* src = nullptr;
  std::vector<viper::ViperRouter*> routers;
  viper::ViperHost* dst = nullptr;

  [[nodiscard]] viper::ViperRouter& router(std::size_t i) {
    return *routers.at(i);
  }
};

/// Builds a Line of @p n_routers.  @p params applies to every link unless
/// @p per_hop returns an override for hop index i (0 = src—r0 edge).
inline Line build_line(
    dir::Fabric& fabric, int n_routers, const std::string& src_name,
    const std::string& dst_name, dir::LinkParams params = {},
    const std::function<dir::LinkParams(int)>& per_hop = nullptr) {
  Line line;
  line.src = &fabric.add_host(src_name);
  net::PortedNode* prev = line.src;
  for (int i = 0; i < n_routers; ++i) {
    auto& r = fabric.add_router("r" + std::to_string(i + 1));
    fabric.connect(*prev, r, per_hop ? per_hop(i) : params);
    line.routers.push_back(&r);
    prev = &r;
  }
  line.dst = &fabric.add_host(dst_name);
  fabric.connect(*prev, *line.dst,
                 per_hop ? per_hop(n_routers) : params);
  return line;
}

/// The source route along a Line: @p hops forward segments (port 2 leads
/// onward on every Line router) then local delivery.
inline core::SourceRoute line_route(int hops, std::uint64_t endpoint = 0,
                                    std::uint8_t priority = 0) {
  core::SourceRoute route;
  for (int i = 0; i < hops; ++i) {
    route.segments.push_back(p2p_segment(2, priority));
  }
  route.segments.push_back(local_segment(endpoint));
  return route;
}

/// A random connected internetwork: a router spanning tree plus chords,
/// one host per router (the property/chaos/soak topology generator).
struct RandomNet {
  sim::Simulator sim;
  dir::Fabric fabric{sim};
  std::vector<viper::ViperRouter*> routers;
  std::vector<viper::ViperHost*> hosts;

  RandomNet(std::uint64_t seed, int n_routers) {
    sim::Rng rng(seed);
    for (int i = 0; i < n_routers; ++i) {
      routers.push_back(&fabric.add_router("r" + std::to_string(i)));
      if (i > 0) {
        // Spanning tree: attach to a random earlier router.
        const auto parent =
            rng.uniform_int(0, static_cast<std::uint64_t>(i - 1));
        dir::LinkParams params;
        params.prop_delay =
            static_cast<sim::Time>(rng.uniform_int(1, 50)) *
            sim::kMicrosecond;
        fabric.connect(*routers[static_cast<std::size_t>(parent)],
                       *routers[static_cast<std::size_t>(i)], params);
      }
    }
    // A few chords for path diversity.
    const int chords = n_routers / 2;
    for (int c = 0; c < chords; ++c) {
      const auto a = rng.uniform_int(
          0, static_cast<std::uint64_t>(n_routers - 1));
      const auto b = rng.uniform_int(
          0, static_cast<std::uint64_t>(n_routers - 1));
      if (a == b) continue;
      dir::LinkParams params;
      params.prop_delay = static_cast<sim::Time>(rng.uniform_int(1, 50)) *
                          sim::kMicrosecond;
      fabric.connect(*routers[a], *routers[b], params);
    }
    for (int i = 0; i < n_routers; ++i) {
      auto& h = fabric.add_host("h" + std::to_string(i) + ".prop");
      fabric.connect(h, *routers[static_cast<std::size_t>(i)]);
      hosts.push_back(&h);
    }
  }
};

// ---------------------------------------------------------------------------
// Event-chain helpers.

/// Drives a self-rescheduling chain: @p step first runs at @p start and
/// returns the delay until its next run; the chain ends at @p until.  The
/// chain owns itself through the pending event only (weak self-capture),
/// so it is reclaimed as soon as it stops — the pump pattern shared by the
/// congestion/chaos suites and the benches.
inline void drive(sim::Simulator& sim, sim::Time start, sim::Time until,
                  std::function<sim::Time()> step) {
  auto chain = std::make_shared<std::function<void()>>();
  *chain = [&sim, until, step = std::move(step),
            weak = std::weak_ptr(chain)] {
    if (sim.now() >= until) return;
    const sim::Time delay = step();
    sim.after(std::max<sim::Time>(delay, 1),
              [self = weak.lock()] { (*self)(); });
  };
  sim.at(start, [chain] { (*chain)(); });
}

/// Runs @p scenario twice and asserts both runs produce identical results —
/// the seed-replay (determinism) check shared by the stress/chaos suites.
/// The scenario must build its entire world (simulator, fabric, RNGs)
/// internally so nothing leaks between runs.
template <class Scenario>
void expect_deterministic(Scenario scenario) {
  const auto first = scenario();
  const auto second = scenario();
  EXPECT_EQ(first, second);
}

// ---------------------------------------------------------------------------
// Chaos harness (hoisted from chaos_test.cpp so the batch-equivalence suite
// can run the identical scenario with a differently-configured fabric).

namespace chaos {
constexpr sim::Time kTrafficEnd = 600 * sim::kMillisecond;
constexpr sim::Time kDrainEnd = 3 * sim::kSecond;
constexpr sim::Time kFlapAt = 200 * sim::kMillisecond;
constexpr sim::Time kFlapFor = 30 * sim::kMillisecond;
}  // namespace chaos

/// Everything the replay contract must reproduce, keyed for EXPECT_EQ
/// diffing.
using ChaosDigest = std::map<std::string, std::uint64_t>;

struct ChaosOutcome {
  int issued = 0;
  int completed = 0;      ///< callbacks fired (ok or error)
  int ok = 0;
  int mismatched = 0;     ///< acked responses whose bytes were wrong
  int ok_after_flap = 0;  ///< successes completing after the flap window
  /// Order-independent sum of per-response FNV hashes of every ok
  /// response's bytes — pins the delivered *content*, not just counts.
  std::uint64_t response_hash = 0;
  ChaosDigest digest;

  bool operator==(const ChaosOutcome&) const = default;
};

/// Runs the full chaos scenario: VMTP transactions over a multi-hop VIPER
/// diamond while a deterministic FaultPlan attacks every link.  The world
/// is built from scratch each call so reruns share no state but the seed.
/// @p configure, when set, sees the fabric after the topology and the
/// standard enables but before any traffic — the hook the coalescing
/// equivalence suite uses to flip Fabric::enable_batching.  @p inspect,
/// when set, sees the drained fabric before teardown (for cross-checking
/// external planes against fabric-owned state like the ledger).
inline ChaosOutcome run_chaos(
    std::uint64_t seed, const obs::Observer& observer = {},
    const std::function<void(dir::Fabric&)>& inspect = {},
    const std::function<void(dir::Fabric&)>& configure = {}) {
  using namespace chaos;
  sim::Simulator sim;
  dir::Fabric fabric(sim);
  auto& client_host = fabric.add_host("client.chaos");
  auto& server_host = fabric.add_host("server.chaos");
  auto& r1 = fabric.add_router("r1");
  auto& r2 = fabric.add_router("r2");   // primary mid hop
  auto& r3a = fabric.add_router("r3a");  // backup path, one router longer
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
  if (configure) configure(fabric);

  // The attack: every lane live on every port of every node, ≥1% each,
  // plus token-cache forgetting and two explicit flap windows that kill
  // the primary path mid-run.
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.defaults.drop_rate = 0.01;
  plan.defaults.corrupt_rate = 0.01;
  plan.defaults.duplicate_rate = 0.01;
  plan.defaults.reorder_rate = 0.01;
  plan.defaults.jitter_rate = 0.01;
  plan.token_poisons_per_second = 100.0;  // forget mode: recoverable
  stats::Registry fault_stats;
  fault::FaultEngine engine(sim, plan, fault_stats);
  for (auto* router : fabric.routers()) {
    engine.attach_all(*router);
    engine.attach_token_cache(std::string(router->name()),
                              router->token_cache());
  }
  engine.attach_all(client_host);
  engine.attach_all(server_host);
  engine.schedule_flap(r1.port(2), kFlapAt, kFlapFor);
  engine.schedule_flap(r2.port(1), kFlapAt, kFlapFor);

  vmtp::VmtpConfig config;
  config.max_retries = 6;
  auto client = std::make_unique<vmtp::VmtpEndpoint>(sim, client_host,
                                                     0xC1, config);
  auto server = std::make_unique<vmtp::VmtpEndpoint>(sim, server_host,
                                                     0x5E, config);
  // Echo server with a visible transform: a correct "ok" must match this
  // byte-for-byte, so a corrupted-but-acked delivery cannot hide.
  server->serve([](std::span<const std::uint8_t> req,
                   const viper::Delivery&) {
    wire::Bytes response(req.begin(), req.end());
    for (auto& byte : response) byte ^= 0x5A;
    return response;
  });

  dir::RouteCacheConfig cache_config;
  cache_config.ttl = kDrainEnd;  // reroute on failure reports, not expiry
  dir::RouteCache& cache = fabric.route_cache(client_host, cache_config);
  client->set_failure_hook([&] { cache.report_failure("server.chaos"); });
  client->set_rtt_hook(
      [&](sim::Time rtt) { cache.report_rtt("server.chaos", rtt); });

  ChaosOutcome outcome;
  dir::QueryOptions q;
  q.dest_endpoint = 0x5E;
  sim::Rng traffic_rng(seed * 131 + 17);
  test::drive(sim, 1, kTrafficEnd, [&]() -> sim::Time {
    const auto route = cache.route_to("server.chaos", q);
    if (route.has_value()) {
      const wire::Bytes request = pattern_bytes(
          1 + traffic_rng.uniform_int(0, 2000),
          static_cast<std::uint8_t>(outcome.issued));
      wire::Bytes expected = request;
      for (auto& byte : expected) byte ^= 0x5A;
      ++outcome.issued;
      client->invoke(*route, 0x5E, request,
                     [&outcome, expected = std::move(expected),
                      &sim](vmtp::Result r) {
                       ++outcome.completed;
                       if (!r.ok) return;
                       if (r.response == expected) {
                         ++outcome.ok;
                         outcome.response_hash += fnv1a(r.response);
                         if (sim.now() > chaos::kFlapAt + chaos::kFlapFor) {
                           ++outcome.ok_after_flap;
                         }
                       } else {
                         ++outcome.mismatched;
                       }
                     });
    }
    return static_cast<sim::Time>(
        sim::kMillisecond + traffic_rng.uniform_int(0, sim::kMillisecond));
  });

  // run_until (not run()): the poisoning process reschedules forever.
  sim.run_until(kDrainEnd);

  outcome.digest = fault_stats.snapshot();
  const auto& cs = client->stats();
  const auto& ss = server->stats();
  outcome.digest["vmtp.client.requests_sent"] = cs.requests_sent;
  outcome.digest["vmtp.client.responses_received"] = cs.responses_received;
  outcome.digest["vmtp.client.retransmitted"] = cs.retransmitted_packets;
  outcome.digest["vmtp.client.timeouts"] = cs.timeouts;
  outcome.digest["vmtp.client.failures"] = cs.failures;
  outcome.digest["vmtp.client.checksum_drops"] = cs.checksum_drops;
  outcome.digest["vmtp.client.misdeliveries"] = cs.misdeliveries;
  outcome.digest["vmtp.server.requests_served"] = ss.requests_served;
  outcome.digest["vmtp.server.checksum_drops"] = ss.checksum_drops;
  outcome.digest["vmtp.server.misdeliveries"] = ss.misdeliveries;
  outcome.digest["vmtp.server.duplicate_requests"] = ss.duplicate_requests;
  outcome.digest["chaos.ok"] = static_cast<std::uint64_t>(outcome.ok);
  outcome.digest["chaos.completed"] =
      static_cast<std::uint64_t>(outcome.completed);
  outcome.digest["chaos.response_hash"] = outcome.response_hash;

  // Congestion soft state has expired back to "unlimited" by the end of
  // the drain window ("as soft cached state, it can be discarded").
  cc::SourceThrottle* throttle = fabric.throttle_of(client_host);
  EXPECT_NE(throttle, nullptr);
  if (throttle != nullptr) {
    EXPECT_TRUE(
        std::isinf(throttle->rate(cc::FlowKey{fabric.id_of(r1), 2})));
  }
  if (inspect) inspect(fabric);
  return outcome;
}

}  // namespace srp::test

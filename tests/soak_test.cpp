// Soak harness: randomized VIPER internetworks under a randomized
// FaultPlan, driven by VMTP transactions long enough for every recovery
// mechanism to cycle.  Seeds are environment-selectable so the nightly CI
// job can sweep fresh ones under the sanitizers:
//
//   SOAK_SEED_BASE=<n>  first seed (default 1)
//   SOAK_SEEDS=<n>      number of seeds (default 3, nightly uses 16)
//
// Per seed the harness asserts the chaos invariants: every transaction
// resolves, no corrupted response is ever acked, recovery keeps the
// success rate up, and the run replays byte-identically from its seed.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "directory/fabric.hpp"
#include "fault/engine.hpp"
#include "flow/plane.hpp"
#include "health/export.hpp"
#include "health/monitor.hpp"
#include "obs/recorder.hpp"
#include "stats/registry.hpp"
#include "test_util.hpp"
#include "transport/vmtp.hpp"

namespace srp::fault {
namespace {

using test::pattern_bytes;

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::strtoull(value, nullptr, 10) : fallback;
}

std::vector<std::uint64_t> soak_seeds() {
  const std::uint64_t base = env_u64("SOAK_SEED_BASE", 1);
  const std::uint64_t count = env_u64("SOAK_SEEDS", 3);
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < count; ++i) seeds.push_back(base + i);
  return seeds;
}

struct SoakOutcome {
  int issued = 0;
  int completed = 0;
  int ok = 0;
  int mismatched = 0;
  std::map<std::string, std::uint64_t> digest;

  bool operator==(const SoakOutcome&) const = default;
};

/// One soak run: a seed-shaped random internetwork, a seed-shaped fault
/// plan on every port, and several concurrent client/server pairs.
SoakOutcome run_soak(std::uint64_t seed) {
  constexpr sim::Time kTrafficEnd = 400 * sim::kMillisecond;
  constexpr sim::Time kDrainEnd = 2 * sim::kSecond;

  sim::Rng shape_rng(seed * 7919 + 3);
  test::RandomNet net(seed, 4 + static_cast<int>(seed % 5));
  sim::Simulator& sim = net.sim;

  FaultPlan plan;
  plan.seed = seed;
  plan.defaults.drop_rate = 0.005 + 0.01 * shape_rng.next_double();
  const double corrupt_rate = 0.005 + 0.01 * shape_rng.next_double();
  plan.defaults.duplicate_rate = 0.005 + 0.01 * shape_rng.next_double();
  plan.defaults.reorder_rate = 0.005 + 0.01 * shape_rng.next_double();
  plan.defaults.jitter_rate = 0.01;
  // A slow random flap process on router-router ports keeps link state
  // churning; host access links stay up so clients are never isolated.
  FaultPlan host_plan = plan;
  plan.defaults.flaps_per_second = 2.0;
  plan.defaults.flap_down_max = 5 * sim::kMillisecond;
  // Corruption runs on ONE seed-chosen router, flipping one bit per event.
  // That keeps "no corrupted response is ever acked" sound for *any* seed:
  // the 16-bit Internet checksum provably catches any single-bit error,
  // but it is blind to opposite flips in the same bit column — which two
  // independent corrupting hops can produce (observed in practice: flips
  // of bit 5 at offsets 805 and 871 of one payload cancelled exactly).
  // A packet leaves each router at most once, so one corrupting router
  // means at most one flip per traversal.  Multi-bit and multi-hop
  // corruption (where rare undetected deliveries are *expected*) is
  // chaos_test territory, with fixed seeds.
  viper::ViperRouter* corrupter =
      net.routers[shape_rng.uniform_int(0, net.routers.size() - 1)];
  for (int i = 1; i <= corrupter->port_count(); ++i) {
    LaneConfig& lane = plan.lane(std::string(corrupter->port(i).name()));
    lane.corrupt_rate = corrupt_rate;
    lane.corrupt_max_bits = 1;
  }
  stats::Registry fault_stats;
  FaultEngine engine(sim, plan, fault_stats);
  FaultEngine host_engine(sim, host_plan, fault_stats);
  for (auto* router : net.routers) engine.attach_all(*router);
  for (auto* host : net.hosts) host_engine.attach_all(*host);

  // Client/server pairs across the random topology.
  struct Pair {
    std::unique_ptr<vmtp::VmtpEndpoint> client;
    std::unique_ptr<vmtp::VmtpEndpoint> server;
    dir::IssuedRoute route;
  };
  vmtp::VmtpConfig config;
  config.max_retries = 6;
  std::vector<Pair> pairs;
  const std::size_t want_pairs = 3;
  for (int attempt = 0; attempt < 50 && pairs.size() < want_pairs;
       ++attempt) {
    const auto ci = shape_rng.uniform_int(0, net.hosts.size() - 1);
    const auto si = shape_rng.uniform_int(0, net.hosts.size() - 1);
    if (ci == si) continue;
    const std::uint64_t server_entity = 0x500 + pairs.size();
    dir::QueryOptions q;
    q.dest_endpoint = server_entity;
    const auto routes = net.fabric.directory().query(
        net.fabric.id_of(*net.hosts[ci]),
        std::string(net.hosts[si]->name()), q);
    if (routes.empty()) continue;
    Pair pair;
    pair.client = std::make_unique<vmtp::VmtpEndpoint>(
        sim, *net.hosts[ci], 0xC00 + pairs.size(), config);
    pair.server = std::make_unique<vmtp::VmtpEndpoint>(
        sim, *net.hosts[si], server_entity, config);
    pair.server->serve([](std::span<const std::uint8_t> req,
                          const viper::Delivery&) {
      wire::Bytes response(req.begin(), req.end());
      for (auto& byte : response) byte ^= 0xA5;
      return response;
    });
    pair.route = routes.front();
    pairs.push_back(std::move(pair));
  }
  EXPECT_FALSE(pairs.empty()) << "seed " << seed;

  SoakOutcome outcome;
  sim::Rng traffic_rng(seed * 6151 + 11);
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    Pair& pair = pairs[p];
    const std::uint64_t server_entity = pair.server->entity_id();
    test::drive(sim, 1 + static_cast<sim::Time>(p),
                kTrafficEnd, [&, server_entity]() -> sim::Time {
      const wire::Bytes request = pattern_bytes(
          1 + traffic_rng.uniform_int(0, 1500),
          static_cast<std::uint8_t>(outcome.issued));
      wire::Bytes expected = request;
      for (auto& byte : expected) byte ^= 0xA5;
      ++outcome.issued;
      pair.client->invoke(pair.route, server_entity, request,
                          [&outcome, expected = std::move(expected)](
                              vmtp::Result r) {
                            ++outcome.completed;
                            if (!r.ok) return;
                            if (r.response == expected) {
                              ++outcome.ok;
                            } else {
                              ++outcome.mismatched;
                            }
                          });
      return static_cast<sim::Time>(
          sim::kMillisecond +
          traffic_rng.uniform_int(0, 2 * sim::kMillisecond));
    });
  }

  // run_until: the random flap processes reschedule forever.
  sim.run_until(kDrainEnd);

  outcome.digest = fault_stats.snapshot();
  for (const Pair& pair : pairs) {
    const std::string key =
        "vmtp." + std::to_string(pair.client->entity_id());
    outcome.digest[key + ".sent"] = pair.client->stats().requests_sent;
    outcome.digest[key + ".failures"] = pair.client->stats().failures;
    outcome.digest[key + ".checksum_drops"] =
        pair.client->stats().checksum_drops +
        pair.server->stats().checksum_drops;
  }
  return outcome;
}

class SoakSuite : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SoakSuite, RandomWorldSurvivesRandomPlan) {
  const SoakOutcome outcome = run_soak(GetParam());
  // Liveness: traffic flowed and every transaction resolved.
  EXPECT_GT(outcome.issued, 100);
  EXPECT_EQ(outcome.completed, outcome.issued);
  // Detection: nothing corrupted was ever acked.
  EXPECT_EQ(outcome.mismatched, 0);
  // Recovery: the success rate survived the plan.
  EXPECT_GT(outcome.ok, outcome.issued / 3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoakSuite, ::testing::ValuesIn(soak_seeds()));

TEST(SoakReplay, FirstSeedReplaysByteIdentically) {
  const std::uint64_t seed = env_u64("SOAK_SEED_BASE", 1);
  test::expect_deterministic([seed] { return run_soak(seed); });
}

struct HealthSoakOutcome {
  int issued = 0;
  int ok = 0;
  std::uint64_t windows = 0;
  std::size_t firing = 0;
  std::size_t fired_total = 0;
  std::string alerts_json;

  bool operator==(const HealthSoakOutcome&) const = default;
};

/// Fault-free health soak: a seed-shaped random internetwork with the
/// health plane live but NO fault engine attached.  Over a run long
/// enough for hundreds of detector windows, the alert engine must stay
/// completely silent — probabilistic detectors earning false positives
/// from ordinary queueing noise would show up here first.
HealthSoakOutcome run_health_soak(std::uint64_t seed) {
  constexpr sim::Time kTrafficEnd = 800 * sim::kMillisecond;
  constexpr sim::Time kDrainEnd = 1 * sim::kSecond;

  stats::Registry registry;
  obs::FlightRecorder recorder;
  flow::FlowPlane flow_plane({}, &registry, &recorder);
  test::RandomNet net(seed, 4 + static_cast<int>(seed % 4));
  sim::Simulator& sim = net.sim;
  net.fabric.enable_observability(
      obs::Observer{&registry, &recorder, &flow_plane});
  auto& monitor = net.fabric.enable_health(10 * sim::kMillisecond);

  vmtp::VmtpConfig vconfig;
  vconfig.max_retries = 6;
  auto client = std::make_unique<vmtp::VmtpEndpoint>(
      sim, *net.hosts.front(), 0xC0, vconfig);
  auto server = std::make_unique<vmtp::VmtpEndpoint>(
      sim, *net.hosts.back(), 0x50, vconfig);
  server->serve([](std::span<const std::uint8_t> req,
                   const viper::Delivery&) {
    return wire::Bytes(req.begin(), req.end());
  });
  dir::QueryOptions q;
  q.dest_endpoint = 0x50;
  const auto routes = net.fabric.directory().query(
      net.fabric.id_of(*net.hosts.front()),
      std::string(net.hosts.back()->name()), q);
  EXPECT_FALSE(routes.empty()) << "seed " << seed;
  if (routes.empty()) return {};

  HealthSoakOutcome outcome;
  sim::Rng traffic_rng(seed * 3571 + 7);
  test::drive(sim, 1, kTrafficEnd, [&]() -> sim::Time {
    const wire::Bytes request = pattern_bytes(
        64 + traffic_rng.uniform_int(0, 1200),
        static_cast<std::uint8_t>(outcome.issued));
    ++outcome.issued;
    client->invoke(routes.front(), 0x50, request,
                   [&outcome](vmtp::Result r) {
                     if (r.ok) ++outcome.ok;
                   });
    return static_cast<sim::Time>(
        200 * sim::kMicrosecond +
        traffic_rng.uniform_int(0, 400 * sim::kMicrosecond));
  });
  sim.run_until(kDrainEnd);

  outcome.windows = monitor.windows();
  outcome.firing = monitor.engine().firing_count();
  outcome.fired_total = monitor.engine().fired().size();
  outcome.alerts_json = health::to_alerts_json(monitor);
  return outcome;
}

TEST_P(SoakSuite, FaultFreeHealthPlaneStaysSilent) {
  const HealthSoakOutcome outcome = run_health_soak(GetParam());
  EXPECT_GT(outcome.issued, 1000);
  EXPECT_GT(outcome.ok, outcome.issued * 9 / 10);
  // The monitor really ran (~100 windows) and never raised anything.
  EXPECT_GE(outcome.windows, 90u);
  EXPECT_EQ(outcome.firing, 0u);
  EXPECT_EQ(outcome.fired_total, 0u);
}

TEST(SoakReplay, HealthSoakReplaysByteIdentically) {
  const std::uint64_t seed = env_u64("SOAK_SEED_BASE", 1);
  test::expect_deterministic([seed] { return run_health_soak(seed); });
}

}  // namespace
}  // namespace srp::fault

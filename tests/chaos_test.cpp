// Chaos harness: VMTP transactions over a multi-hop VIPER diamond while a
// deterministic FaultPlan attacks every link (paper §4: the no-checksum,
// no-TTL, no-per-hop-verification bet).  Machine-checked invariants:
//
//   * every corrupted delivery is detected end-to-end and never acked —
//     an "ok" response is always byte-identical to the expected echo;
//   * every loss is recovered by selective retransmission / retry or
//     surfaced as a transport error — no transaction hangs;
//   * trailer-built return routes stay valid across link-flap windows —
//     transactions succeed after the flaps;
//   * token-cache poisoning (forget mode) is absorbed by optimistic
//     re-verification; flag mode blocks the path until the client routes
//     around it end-to-end;
//   * congestion soft state expires back to "unlimited" after the storm;
//   * the whole run — fault counters and endpoint stats — replays
//     byte-identically from the same plan seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "congestion/throttle.hpp"
#include "directory/client.hpp"
#include "directory/fabric.hpp"
#include "fault/engine.hpp"
#include "flow/observer.hpp"
#include "flow/plane.hpp"
#include "obs/recorder.hpp"
#include "test_util.hpp"
#include "transport/vmtp.hpp"

namespace srp::fault {
namespace {

using test::pattern_bytes;
using test::run_chaos;  // hoisted to test_util.hpp (batch suite reuses it)
using ChaosOutcome = test::ChaosOutcome;
using Digest = test::ChaosDigest;

class ChaosSuite : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosSuite, AllLanesLiveEndToEndInvariantsHold) {
  const ChaosOutcome outcome = run_chaos(GetParam());

  // The attack really ran: each probabilistic lane fired somewhere.
  std::uint64_t drops = 0, corrupts = 0, duplicates = 0, reorders = 0,
                poisons = 0;
  for (const auto& [name, value] : outcome.digest) {
    if (name.ends_with(".drop")) drops += value;
    if (name.ends_with(".corrupt")) corrupts += value;
    if (name.ends_with(".duplicate")) duplicates += value;
    if (name.ends_with(".reorder")) reorders += value;
    if (name.ends_with(".token_poison")) poisons += value;
  }
  EXPECT_GT(drops, 0u);
  EXPECT_GT(corrupts, 0u);
  EXPECT_GT(duplicates, 0u);
  EXPECT_GT(reorders, 0u);
  EXPECT_GT(poisons, 0u);

  // Zero unrecovered losses: every transaction resolved (ok or error).
  EXPECT_GT(outcome.issued, 100);
  EXPECT_EQ(outcome.completed, outcome.issued);

  // Zero undetected corruptions: nothing acked with damaged bytes.  The
  // damage was real (corrupts > 0 above), so detection must show up as
  // checksum drops somewhere or as hop-level discards of mangled headers.
  EXPECT_EQ(outcome.mismatched, 0);

  // Loss recovery did the work: most transactions still succeeded, and
  // kept succeeding after the flap windows (the trailer-built return
  // routes stayed valid through link state churn).
  EXPECT_GT(outcome.ok, outcome.issued / 2);
  EXPECT_GT(outcome.ok_after_flap, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSuite,
                         ::testing::Values(1u, 42u, 0xDEADBEEFu));

TEST(ChaosReplay, SameSeedYieldsByteIdenticalStats) {
  test::expect_deterministic([] { return run_chaos(0x5EED); });
}

TEST(ChaosFlowAccounting, RollupsReconcileWithLedgerUnderChaos) {
  // The flow plane's per-account roll-up mirrors every ledger charge, so
  // even with drops, corruption, duplication, flaps and token poisoning it
  // must equal the authoritative ledger exactly — and byte-identically on
  // replay of the same seed.
  auto scenario = [] {
    flow::FlowPlane plane(flow::FlowConfig{256, 64, 0x5EED});
    Digest digest;
    const ChaosOutcome outcome =
        run_chaos(42, obs::Observer{nullptr, nullptr, &plane},
                  [&](dir::Fabric& fabric) {
                    const auto rollup = plane.account_rollup();
                    const auto ledger = fabric.ledger().all();
                    EXPECT_FALSE(ledger.empty());
                    EXPECT_EQ(rollup.size(), ledger.size());
                    for (const auto& [account, usage] : ledger) {
                      const auto it = rollup.find(account);
                      ASSERT_NE(it, rollup.end()) << "account " << account;
                      EXPECT_EQ(it->second.packets, usage.packets)
                          << "account " << account;
                      EXPECT_EQ(it->second.bytes, usage.bytes)
                          << "account " << account;
                      digest["ledger." + std::to_string(account) + ".bytes"] =
                          usage.bytes;
                      digest["flow." + std::to_string(account) + ".bytes"] =
                          it->second.bytes;
                    }
                  });
    EXPECT_GT(outcome.ok, 0);
    // Every router's table really observed traffic.
    for (const auto* observer : plane.observers()) {
      EXPECT_GT(observer->table().stats().recorded, 0u) << observer->name();
    }
    digest["chaos.ok"] = static_cast<std::uint64_t>(outcome.ok);
    return digest;
  };
  test::expect_deterministic(scenario);
}

TEST(ChaosObservability, SpanTimelinesStayCoherentUnderChaos) {
  stats::Registry registry;
  obs::FlightRecorder recorder(std::size_t{1} << 18);
  stats::MetricsSnapshot snap;
  // Counters read their components' fields: snapshot while the fabric is
  // alive.
  const ChaosOutcome outcome = run_chaos(
      1, {&registry, &recorder},
      [&](dir::Fabric&) { snap = registry.full_snapshot(); });
  EXPECT_GT(outcome.ok, 0);
  EXPECT_GT(recorder.recorded(), 0u);

  // Per-hop latency histograms filled at the routers on the primary path.
  EXPECT_GT(snap.histograms.at("viper.r1.hop_latency_ps").count, 0u);
  EXPECT_GT(snap.histograms.at("viper.r4.hop_latency_ps").count, 0u);

  // Even under drops, duplicates, reordering and flaps, every span must
  // describe a causally ordered window, and a delivered trace must show
  // the router hops that preceded the delivery.
  std::map<std::uint64_t, std::vector<obs::SpanRecord>> by_trace;
  std::uint64_t hop_spans = 0;
  std::uint64_t deliver_spans = 0;
  for (const auto& span : recorder.spans()) {
    EXPECT_NE(span.trace_id, 0u);
    EXPECT_GE(span.decision, span.start);
    EXPECT_GE(span.end, span.decision);
    if (span.kind == obs::SpanKind::kHop) ++hop_spans;
    if (span.kind == obs::SpanKind::kDeliver) ++deliver_spans;
    by_trace[span.trace_id].push_back(span);
  }
  EXPECT_GT(hop_spans, 0u);
  EXPECT_GT(deliver_spans, 0u);
  for (const auto& [trace, spans] : by_trace) {
    sim::Time first_hop_start = -1;
    sim::Time deliver_end = -1;
    for (const auto& span : spans) {
      if (span.kind == obs::SpanKind::kHop &&
          (first_hop_start < 0 || span.start < first_hop_start)) {
        first_hop_start = span.start;
      }
      if (span.kind == obs::SpanKind::kDeliver) {
        deliver_end = std::max(deliver_end, span.end);
      }
    }
    if (deliver_end >= 0) {
      ASSERT_GE(first_hop_start, 0)
          << "delivered trace " << trace << " has no hop spans";
      EXPECT_LE(first_hop_start, deliver_end) << "trace " << trace;
    }
  }
}

TEST(TokenFlagPoisoning, BlockedPathIsRoutedAroundEndToEnd) {
  // Flag (rather than forget) every cached token at the primary mid
  // router: its users are blocked until the *client* notices end-to-end
  // and fails over to the backup path — the paper's recovery model.
  sim::Simulator sim;
  dir::Fabric fabric(sim);
  auto& client_host = fabric.add_host("client.flag");
  auto& server_host = fabric.add_host("server.flag");
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
  fabric.enable_tokens(0xF1A6, /*enforce=*/true,
                       tokens::UncachedPolicy::kOptimistic);

  vmtp::VmtpConfig config;
  config.min_rto = 2 * sim::kMillisecond;
  config.max_retries = 2;
  auto client = std::make_unique<vmtp::VmtpEndpoint>(sim, client_host,
                                                     0xC1, config);
  auto server = std::make_unique<vmtp::VmtpEndpoint>(sim, server_host,
                                                     0x5E, config);
  server->serve([](std::span<const std::uint8_t> req,
                   const viper::Delivery&) {
    return wire::Bytes(req.begin(), req.end());
  });
  dir::RouteCacheConfig cache_config;
  cache_config.ttl = 10 * sim::kSecond;
  dir::RouteCache& cache = fabric.route_cache(client_host, cache_config);
  client->set_failure_hook([&] { cache.report_failure("server.flag"); });

  int ok_before = 0, ok_after = 0, failed = 0;
  constexpr sim::Time kPoisonAt = 50 * sim::kMillisecond;
  dir::QueryOptions q;
  q.dest_endpoint = 0x5E;
  test::drive(sim, 1, 400 * sim::kMillisecond, [&]() -> sim::Time {
    const auto route = cache.route_to("server.flag", q);
    if (route.has_value()) {
      client->invoke(*route, 0x5E, pattern_bytes(64), [&](vmtp::Result r) {
        if (!r.ok) {
          ++failed;
        } else if (sim.now() < kPoisonAt) {
          ++ok_before;
        } else {
          ++ok_after;
        }
      });
    }
    return 4 * sim::kMillisecond;
  });

  sim.at(kPoisonAt, [&] {
    // Flag every entry: selector i hits entry i (flagging keeps entries in
    // place, so the scan covers the whole cache).
    const std::size_t n = r2.token_cache().size();
    EXPECT_GT(n, 0u);  // the primary path was warm
    for (std::size_t i = 0; i < n; ++i) {
      r2.token_cache().poison(i, /*flag=*/true);
    }
  });

  sim.run_until(sim::kSecond);

  // The warm primary path worked, the poisoned tokens really blocked it
  // (flagged entries are rejected as unauthorized at r2), and the client
  // recovered end-to-end onto the backup path.
  EXPECT_GT(ok_before, 5);
  EXPECT_GT(r2.stats().dropped_unauthorized, 0u);
  EXPECT_GT(failed, 0);
  EXPECT_GT(ok_after, 10);
}

}  // namespace
}  // namespace srp::fault

// Differential batch-equivalence harness: same-instant coalescing (one
// drain event per instant, token prefetch, then the per-packet path item
// by item) must be *observationally identical* to dispatching every
// arrival in its own event.  Because batch boundaries are aligned to event
// boundaries and every derived time comes from the arrival timestamps,
// not from when the drain pass runs, the simulation output — delivered
// bytes, span timelines, flow rollups, ledger state, fault counters —
// must be byte-identical for every batch size, including under a
// fixed-seed fault plan on the chaos diamond (drops, corruption,
// duplication, reordering, jitter, token poisoning, link flaps all on).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "directory/fabric.hpp"
#include "flow/observer.hpp"
#include "flow/plane.hpp"
#include "obs/recorder.hpp"
#include "test_util.hpp"
#include "viper/codec.hpp"

namespace srp::viper {
namespace {

using test::ChaosOutcome;
using test::expect_deterministic;
using test::fnv1a;
using test::local_segment;
using test::p2p_segment;
using test::pattern_bytes;
using test::run_chaos;

constexpr std::uint64_t kSeed = 0xBA7C4;

/// The batch sizes the differential sweep covers: degenerate (1), small,
/// the default, and larger-than-any-real-burst (64).
const std::size_t kBatchSizes[] = {1, 4, 16, 64};

std::function<void(dir::Fabric&)> batching_on(std::size_t max_burst) {
  return [max_burst](dir::Fabric& fabric) {
    viper::ViperRouter::BatchConfig config;
    config.max_burst = max_burst;
    fabric.enable_batching(config);
  };
}

TEST(BatchEquivalence, ChaosDigestIdenticalAcrossBatchSizes) {
  // Reference: no coalescing.
  const ChaosOutcome reference = run_chaos(kSeed);
  EXPECT_GT(reference.ok, 0);
  EXPECT_NE(reference.response_hash, 0u);

  for (const std::size_t batch : kBatchSizes) {
    std::uint64_t arena_acquired = 0;
    const ChaosOutcome batched = run_chaos(
        kSeed, /*observer=*/{},
        [&](dir::Fabric& fabric) {
          for (const auto* router : fabric.routers()) {
            arena_acquired += router->arena().stats().acquired;
          }
        },
        batching_on(batch));
    EXPECT_EQ(batched, reference) << "batch size " << batch;
    // The equivalence is not vacuous: the arena-backed rewrite really
    // carried traffic.
    EXPECT_GT(arena_acquired, 0u) << "batch size " << batch;
  }
}

/// All SpanRecord fields folded into one comparable key.  Spans recorded
/// within the same picosecond may land in the ring in a different order
/// (the drain runs after every other event of its instant), so timelines
/// are compared as sorted multisets, which is order-blind only between
/// equal-time records — the timeline itself is pinned by the timestamps.
std::vector<std::string> span_multiset(const obs::FlightRecorder& recorder) {
  std::vector<std::string> keys;
  for (const auto& span : recorder.spans()) {
    std::ostringstream key;
    key << span.trace_id << '|' << span.hop << '|'
        << static_cast<int>(span.kind) << '|'
        << static_cast<int>(span.token) << '|' << span.cut_through << '|'
        << span.in_port << '|' << span.out_port << '|' << span.start << '|'
        << span.decision << '|' << span.end << '|' << span.queue_delay
        << '|' << span.component_view() << '|';
    for (std::size_t i = 0; i < span.excerpt_len; ++i) {
      key << static_cast<int>(span.excerpt[i]) << ',';
    }
    keys.push_back(std::move(key).str());
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(BatchEquivalence, SpanTimelinesIdenticalUnderFaults) {
  stats::Registry ref_registry;
  obs::FlightRecorder ref_recorder(std::size_t{1} << 18);
  const ChaosOutcome reference =
      run_chaos(kSeed, {&ref_registry, &ref_recorder});
  EXPECT_GT(ref_recorder.recorded(), 0u);
  // The ring must not have wrapped, or the multiset comparison would only
  // see a suffix.
  ASSERT_EQ(ref_recorder.dropped(), 0u);

  stats::Registry batch_registry;
  obs::FlightRecorder batch_recorder(std::size_t{1} << 18);
  const ChaosOutcome batched = run_chaos(
      kSeed, {&batch_registry, &batch_recorder}, {}, batching_on(16));

  EXPECT_EQ(batched, reference);
  EXPECT_EQ(batch_recorder.recorded(), ref_recorder.recorded());
  EXPECT_EQ(span_multiset(batch_recorder), span_multiset(ref_recorder));
  EXPECT_EQ(batch_registry.snapshot(), ref_registry.snapshot());
}

/// Ledger + flow-plane rollup digest of a chaos run.
test::ChaosDigest accounting_digest(std::size_t batch) {
  flow::FlowPlane plane(flow::FlowConfig{256, 64, 0x5EED});
  test::ChaosDigest digest;
  const ChaosOutcome outcome = run_chaos(
      kSeed, obs::Observer{nullptr, nullptr, &plane},
      [&](dir::Fabric& fabric) {
        for (const auto& [account, usage] : fabric.ledger().all()) {
          digest["ledger." + std::to_string(account) + ".packets"] =
              usage.packets;
          digest["ledger." + std::to_string(account) + ".bytes"] =
              usage.bytes;
        }
      },
      batch == 0 ? std::function<void(dir::Fabric&)>{} : batching_on(batch));
  for (const auto& [account, charge] : plane.account_rollup()) {
    digest["flow." + std::to_string(account) + ".packets"] = charge.packets;
    digest["flow." + std::to_string(account) + ".bytes"] = charge.bytes;
  }
  std::uint64_t sampled = 0;
  for (const auto* observer : plane.observers()) {
    sampled += observer->sampled();
    digest["table." + observer->name() + ".recorded"] =
        observer->table().stats().recorded;
  }
  digest["flow.sampled"] = sampled;
  digest["chaos.ok"] = static_cast<std::uint64_t>(outcome.ok);
  digest["chaos.response_hash"] = outcome.response_hash;
  return digest;
}

TEST(BatchEquivalence, FlowRollupsAndLedgerIdenticalAcrossBatchSizes) {
  const test::ChaosDigest reference = accounting_digest(0);
  EXPECT_FALSE(reference.empty());
  for (const std::size_t batch : kBatchSizes) {
    EXPECT_EQ(accounting_digest(batch), reference)
        << "batch size " << batch;
  }
}

// ---------------------------------------------------------------------------
// Faultless byte-exactness: a fan-in topology (four sources into one
// router, so same-instant arrivals form real multi-packet bursts) where
// every delivery's bytes, rebuilt return route and timestamps are pinned
// exactly against the per-packet path.

struct DeliveryRecord {
  std::uint64_t packet_id = 0;
  std::string key;

  bool operator<(const DeliveryRecord& other) const {
    return packet_id < other.packet_id;
  }
  bool operator==(const DeliveryRecord&) const = default;
};

std::vector<DeliveryRecord> run_fan_in(std::size_t batch) {
  sim::Simulator sim;
  dir::Fabric fabric(sim);
  std::vector<viper::ViperHost*> sources;
  for (int i = 0; i < 4; ++i) {
    sources.push_back(&fabric.add_host("s" + std::to_string(i) + ".fan"));
  }
  auto& r1 = fabric.add_router("r1");
  auto& r2 = fabric.add_router("r2");
  auto& dst = fabric.add_host("dst.fan");
  for (auto* src : sources) fabric.connect(*src, r1);  // r1 ports 1..4
  fabric.connect(r1, r2);                              // r1 port 5
  fabric.connect(r2, dst);                             // r2 port 2
  if (batch != 0) batching_on(batch)(fabric);

  std::vector<DeliveryRecord> records;
  dst.set_default_handler([&](const viper::Delivery& d) {
    std::ostringstream key;
    key << d.sent_at << '|' << d.delivered_at << '|' << d.hops << '|'
        << d.truncated << '|' << d.in_port << '|' << d.flow << '|'
        << fnv1a(d.data) << '|'
        << fnv1a(viper::encode_route(d.return_route));
    records.push_back({d.packet_id, std::move(key).str()});
  });

  core::SourceRoute route;
  route.segments.push_back(p2p_segment(5));
  route.segments.push_back(p2p_segment(2));
  route.segments.push_back(local_segment());
  // 50 rounds; each round all four sources send at the *same instant*, so
  // their packets reach r1 on four different in-ports within one event
  // window and the drain really sees multi-packet bursts.
  for (int round = 0; round < 50; ++round) {
    const auto at = static_cast<sim::Time>((round + 1) * sim::kMillisecond);
    for (std::size_t i = 0; i < sources.size(); ++i) {
      sim.at(at, [&, round, i] {
        viper::SendOptions options;
        options.flow = i + 1;
        sources[i]->send(
            route,
            pattern_bytes(1 + ((round * 131 + i * 37) % 900),
                          static_cast<std::uint8_t>(round + i)),
            options);
      });
    }
  }
  sim.run();
  EXPECT_EQ(records.size(), 200u);
  if (batch != 0) {
    // The fan-in really formed arena-backed bursts on both routers.
    EXPECT_TRUE(r1.batching_enabled());
    EXPECT_GT(r1.arena().stats().acquired, 0u);
    EXPECT_GT(r2.arena().stats().acquired, 0u);
    // Slabs recycle once the downstream copies retire (zero-copy claim:
    // the steady state runs out of the pool, not the allocator).
    EXPECT_GT(r1.arena().stats().recycled, 0u);
  }
  std::sort(records.begin(), records.end());
  return records;
}

TEST(BatchEquivalence, FanInDeliveriesByteExactAcrossBatchSizes) {
  const auto reference = run_fan_in(0);
  for (const std::size_t batch : kBatchSizes) {
    EXPECT_EQ(run_fan_in(batch), reference) << "batch size " << batch;
  }
}

TEST(BatchReplay, BatchedChaosRunIsDeterministic) {
  expect_deterministic(
      [] { return run_chaos(kSeed, {}, {}, batching_on(16)); });
}

}  // namespace
}  // namespace srp::viper

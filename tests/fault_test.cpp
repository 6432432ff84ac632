// Unit tests for the deterministic fault-injection engine (src/fault):
// lane behavior on a single link, the seed-replay contract, attach-order
// independence of the per-target RNG streams, explicit flap windows, and
// token-cache poisoning.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "fault/engine.hpp"
#include "net/network.hpp"
#include "stats/registry.hpp"
#include "test_util.hpp"
#include "tokens/cache.hpp"
#include "viper/codec.hpp"
#include "viper/router.hpp"

namespace srp::fault {
namespace {

using test::SinkNode;

struct FaultFixture : ::testing::Test {
  sim::Simulator sim;
  net::Network net{sim};
  net::PacketFactory packets;
  stats::Registry registry;

  SinkNode* a = nullptr;
  SinkNode* b = nullptr;
  int pa = 0;

  void link() {
    a = &net.add<SinkNode>("a");
    b = &net.add<SinkNode>("b");
    const auto [out, in] =
        net.duplex(*a, *b, net::LinkConfig{1e9, 5 * sim::kMicrosecond, 1500});
    (void)in;
    pa = out;
  }

  void inject(int n, std::size_t size = 200) {
    for (int i = 0; i < n; ++i) {
      sim.at(1 + static_cast<sim::Time>(i) * sim::kMicrosecond, [this, size] {
        a->port(pa).enqueue(packets.make(wire::Bytes(size, 0x42), sim.now()),
                            net::TxMeta{}, 0);
      });
    }
  }
};

TEST_F(FaultFixture, DropLaneLosesCountedPacketsOnly) {
  link();
  FaultPlan plan;
  plan.seed = 7;
  plan.lane(a->port(pa).name()).drop_rate = 0.5;
  FaultEngine engine(sim, plan, registry);
  engine.attach(a->port(pa));

  inject(400);
  sim.run();

  const std::uint64_t dropped = engine.count(a->port(pa).name(), "drop");
  EXPECT_GT(dropped, 100u);  // ~200 expected at p = 0.5
  EXPECT_LT(dropped, 300u);
  EXPECT_EQ(b->arrivals.size() + dropped, 400u);
  EXPECT_EQ(a->port(pa).stats().dropped_injected, dropped);
}

TEST_F(FaultFixture, CountOfAnUnknownLaneCreatesNoSeries) {
  link();
  FaultPlan plan;
  plan.lane(a->port(pa).name()).drop_rate = 0.5;
  FaultEngine engine(sim, plan, registry);
  engine.attach(a->port(pa));
  const std::size_t series = registry.snapshot().size();
  EXPECT_EQ(engine.count("nowhere:p9", "drop"), 0u);
  EXPECT_EQ(engine.count(a->port(pa).name(), "no_such_lane"), 0u);
  EXPECT_EQ(registry.snapshot().size(), series);
}

TEST_F(FaultFixture, LaneThatCannotFireLeavesPortUntouched) {
  link();
  FaultPlan plan;  // all rates zero
  FaultEngine engine(sim, plan, registry);
  engine.attach(a->port(pa));
  EXPECT_FALSE(static_cast<bool>(a->port(pa).fault_hook));
  inject(5);
  sim.run();
  EXPECT_EQ(b->arrivals.size(), 5u);
}

TEST_F(FaultFixture, ExplicitFlapWindowLosesTrafficThenRecovers) {
  link();
  FaultPlan plan;
  FaultEngine engine(sim, plan, registry);
  const sim::Time down_at = 50 * sim::kMicrosecond;
  const sim::Time down_for = 100 * sim::kMicrosecond;
  engine.schedule_flap(a->port(pa), down_at, down_for);

  inject(200);  // one per microsecond from t=1
  sim.run();

  EXPECT_EQ(engine.count(a->port(pa).name(), "flap"), 1u);
  const auto& s = a->port(pa).stats();
  // Packets offered inside the window are dropped as link-down losses...
  EXPECT_GT(s.dropped_down, 50u);
  // ...and traffic resumes after the window: every packet either arrived
  // or is a counted link-down loss.  (A transmission aborted by the flap
  // still arrives, flagged truncated — the receiver's problem, as with
  // real cut-through hardware.)
  EXPECT_EQ(b->arrivals.size() + s.dropped_down, 200u);
  if (s.preempt_aborts > 0) {
    int truncated = 0;
    for (const auto& arrival : b->arrivals) {
      truncated += arrival.packet->truncated ? 1 : 0;
    }
    EXPECT_GT(truncated, 0);
  }
  EXPECT_TRUE(a->port(pa).is_up());
}

/// One full scenario; returns every observable the replay contract covers.
std::pair<std::map<std::string, std::uint64_t>, std::size_t> chaos_once(
    std::uint64_t seed, bool attach_reversed) {
  sim::Simulator sim;
  net::Network net(sim);
  net::PacketFactory packets;
  stats::Registry registry;
  auto& a = net.add<SinkNode>("a");
  auto& b = net.add<SinkNode>("b");
  const auto [pa, pb] =
      net.duplex(a, b, net::LinkConfig{1e9, 5 * sim::kMicrosecond, 1500});

  FaultPlan plan;
  plan.seed = seed;
  plan.defaults.drop_rate = 0.1;
  plan.defaults.corrupt_rate = 0.2;
  plan.defaults.duplicate_rate = 0.15;
  plan.defaults.reorder_rate = 0.15;
  plan.defaults.jitter_rate = 0.2;
  FaultEngine engine(sim, plan, registry);
  // The RNG stream belongs to the port's *name*: attaching in a different
  // order must not change a single draw.
  if (attach_reversed) {
    engine.attach(b.port(pb));
    engine.attach(a.port(pa));
  } else {
    engine.attach(a.port(pa));
    engine.attach(b.port(pb));
  }

  for (int i = 0; i < 300; ++i) {
    sim.at(1 + static_cast<sim::Time>(i) * sim::kMicrosecond, [&, i] {
      auto& src = (i % 2 == 0) ? a : b;
      const int port = (i % 2 == 0) ? pa : pb;
      src.port(port).enqueue(
          packets.make(wire::Bytes(100 + i % 700, std::uint8_t(i)),
                       sim.now()),
          net::TxMeta{}, 0);
    });
  }
  sim.run();
  return {registry.snapshot(), a.arrivals.size() + b.arrivals.size()};
}

// ---------------------------------------------------------------------------
// Arena-backed port: the fault lanes must compose with slab reuse.  The
// engine's corrupt and duplicate lanes clone the packet before touching
// it, so an injected copy owns its bytes outright — a recycled slab must
// never scribble over a delayed duplicate's payload, and lane conservation
// (arrivals + drops == forwarded + duplicates) must hold on the router's
// default arena.

/// Sink that records (packet id, decoded payload hash) and then releases
/// the packet immediately — unlike SinkNode it holds no PacketPtr, so
/// upstream arena slabs recycle as they would under real load.
class DigestSink : public net::PortedNode {
 public:
  struct Record {
    std::uint64_t id = 0;
    std::uint64_t payload_hash = 0;
    bool parsed = false;
  };

  DigestSink(sim::Simulator& sim, std::string name)
      : net::PortedNode(sim, std::move(name)) {}

  void on_arrival(const net::Arrival& arrival) override {
    Record rec;
    rec.id = arrival.packet->id;
    try {
      wire::Reader r(arrival.packet->bytes);
      (void)viper::decode_segment(r);  // the local-delivery segment
      const std::uint16_t len = r.u16();
      rec.payload_hash = test::fnv1a(r.view(len));
      rec.parsed = true;
    } catch (const wire::CodecError&) {
      rec.parsed = false;  // corrupt-lane damage; counted, not parsed
    }
    records.push_back(rec);
  }

  std::vector<Record> records;
};

struct ArenaPortFixture {
  sim::Simulator sim;
  net::Network net{sim};
  net::PacketFactory packets;
  stats::Registry registry;
  viper::ViperRouter* router = nullptr;
  DigestSink* dst = nullptr;
  test::SinkNode* src = nullptr;
  int src_port = 0;

  ArenaPortFixture() {
    src = &net.add<test::SinkNode>("src");
    router = &net.add<viper::ViperRouter>("r", viper::RouterConfig{});
    dst = &net.add<DigestSink>("dst");
    const net::LinkConfig link{1e9, 5 * sim::kMicrosecond, 1500};
    src_port = net.duplex(*src, *router, link).first;  // router port 1
    net.duplex(*router, *dst, link);                   // router port 2
  }

  /// Sends @p n packets with distinct payloads; returns id -> payload
  /// hash of everything injected.
  std::map<std::uint64_t, std::uint64_t> inject(int n) {
    core::SourceRoute route;
    route.segments.push_back(test::p2p_segment(2));
    route.segments.push_back(test::local_segment());
    std::map<std::uint64_t, std::uint64_t> sent;
    for (int i = 0; i < n; ++i) {
      const wire::Bytes payload =
          test::pattern_bytes(64 + i % 128, static_cast<std::uint8_t>(i));
      auto packet = packets.make(viper::encode_packet(route, payload), 0);
      sent[packet->id] = test::fnv1a(payload);
      sim.at(1 + static_cast<sim::Time>(i) * 4 * sim::kMicrosecond,
             [this, packet = std::move(packet)]() mutable {
               src->port(src_port).enqueue(std::move(packet),
                                           net::TxMeta{}, 0);
             });
    }
    return sent;
  }
};

TEST(ArenaPortFaults, LanesConservePacketsOnTheArenaBackedPort) {
  ArenaPortFixture world;
  FaultPlan plan;
  plan.seed = 11;
  auto& lane = plan.lane(world.router->port(2).name());
  lane.drop_rate = 0.1;
  lane.corrupt_rate = 0.1;
  lane.duplicate_rate = 0.15;
  lane.reorder_rate = 0.1;
  FaultEngine engine(world.sim, plan, world.registry);
  engine.attach(world.router->port(2));

  constexpr int kPackets = 400;
  world.inject(kPackets);
  world.sim.run();

  const auto& name = world.router->port(2).name();
  const std::uint64_t drops = engine.count(name, "drop");
  const std::uint64_t dups = engine.count(name, "duplicate");
  EXPECT_GT(drops, 0u);
  EXPECT_GT(dups, 0u);
  EXPECT_GT(engine.count(name, "corrupt"), 0u);
  // Every packet was forwarded through an arena slab, and conservation
  // holds: nothing vanished except counted drops, nothing appeared except
  // counted duplicates.
  EXPECT_EQ(world.router->stats().forwarded,
            static_cast<std::uint64_t>(kPackets));
  EXPECT_EQ(world.dst->records.size() + drops,
            static_cast<std::uint64_t>(kPackets) + dups);
  // The port really ran on recycled slabs while the lanes fired.
  EXPECT_GT(world.router->arena().stats().recycled, 0u);
}

TEST(ArenaPortFaults, DuplicatesCarryTheirOwnBytesAcrossSlabRecycling) {
  ArenaPortFixture world;
  FaultPlan plan;
  plan.seed = 23;
  auto& lane = plan.lane(world.router->port(2).name());
  lane.duplicate_rate = 0.3;
  // Delay duplicates far beyond the original's in-flight window, so the
  // original's slab has been recycled into a *different* packet's bytes
  // by the time the duplicate transmits.
  lane.duplicate_lag_max = 200 * sim::kMicrosecond;
  FaultEngine engine(world.sim, plan, world.registry);
  engine.attach(world.router->port(2));

  constexpr int kPackets = 300;
  const auto sent = world.inject(kPackets);
  world.sim.run();

  const std::uint64_t dups =
      engine.count(world.router->port(2).name(), "duplicate");
  EXPECT_GT(dups, 20u);
  EXPECT_GT(world.router->arena().stats().recycled,
            static_cast<std::uint64_t>(kPackets) / 2);
  EXPECT_EQ(world.dst->records.size(),
            static_cast<std::uint64_t>(kPackets) + dups);
  // The witness: every arrival — original or delayed duplicate — still
  // carries the payload bytes its id was injected with.  A duplicate
  // aliasing a recycled slab would surface here as a payload from some
  // *later* packet under the old id.
  for (const auto& rec : world.dst->records) {
    ASSERT_TRUE(rec.parsed) << "id " << rec.id;
    const auto it = sent.find(rec.id);
    ASSERT_NE(it, sent.end()) << "unknown id " << rec.id;
    EXPECT_EQ(rec.payload_hash, it->second) << "id " << rec.id;
  }
}

TEST(FaultReplay, SameSeedReplaysByteIdentically) {
  test::expect_deterministic([] { return chaos_once(99, false); });
}

TEST(FaultReplay, AttachOrderDoesNotPerturbStreams) {
  EXPECT_EQ(chaos_once(1234, false), chaos_once(1234, true));
}

TEST(FaultReplay, DifferentSeedsDiverge) {
  EXPECT_NE(chaos_once(1, false).first, chaos_once(2, false).first);
}

TEST(TokenPoison, ForgetErasesEntryForReverification) {
  tokens::TokenCache cache;
  const wire::Bytes token{1, 2, 3, 4};
  cache.store(token, tokens::TokenBody{});
  ASSERT_EQ(cache.size(), 1u);

  EXPECT_EQ(cache.poison(/*selector=*/42, /*flag=*/false), 1u);
  EXPECT_EQ(cache.size(), 0u);
  // The next user takes a miss and re-verifies: the recoverable failure.
  EXPECT_FALSE(cache.lookup(token).has_value());
}

TEST(TokenPoison, FlagBlocksSubsequentUsers) {
  tokens::TokenCache cache;
  const wire::Bytes token{9, 9, 9};
  cache.store(token, tokens::TokenBody{});

  EXPECT_EQ(cache.poison(7, /*flag=*/true), 1u);
  const auto entry = cache.lookup(token);
  ASSERT_TRUE(entry.has_value());
  EXPECT_TRUE(entry->flagged);
  EXPECT_FALSE(entry->valid);
}

TEST(TokenPoison, EmptyCacheIsUnaffected) {
  tokens::TokenCache cache;
  EXPECT_EQ(cache.poison(5, false), 0u);
  EXPECT_EQ(cache.poison(5, true), 0u);
}

TEST(TokenPoison, EnginePoisonProcessFiresAndCounts) {
  sim::Simulator sim;
  stats::Registry registry;
  tokens::TokenCache cache;
  cache.store(wire::Bytes{1}, tokens::TokenBody{});
  cache.store(wire::Bytes{2}, tokens::TokenBody{});

  FaultPlan plan;
  plan.token_poisons_per_second = 2000.0;  // mean gap 0.5 ms
  FaultEngine engine(sim, plan, registry);
  engine.attach_token_cache("r1", cache);

  sim.run_until(20 * sim::kMillisecond);
  EXPECT_GT(engine.count("r1", "token_poison"), 0u);
  EXPECT_EQ(cache.size(), 0u);  // both entries eventually forgotten
}

}  // namespace
}  // namespace srp::fault

// Tests for rate-based congestion control (paper §2.2): backpressure from
// a congested queue to upstream routers and source hosts, soft-state
// expiry, and the network-layer slow-start ramp.
#include <gtest/gtest.h>

#include <cmath>

#include "congestion/controller.hpp"
#include "congestion/messages.hpp"
#include "congestion/throttle.hpp"
#include "directory/fabric.hpp"
#include "test_util.hpp"

namespace srp::cc {
namespace {

using test::local_segment;
using test::p2p_segment;
using test::pattern_bytes;

TEST(RateReportCodec, RoundTrip) {
  const RateReport report{42, 7, 1.25e8};
  const wire::Bytes bytes = encode_rate_report(report);
  const auto back = decode_rate_report(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, report);
}

TEST(RateReportCodec, RejectsGarbage) {
  EXPECT_FALSE(decode_rate_report(wire::Bytes{}).has_value());
  EXPECT_FALSE(decode_rate_report(wire::Bytes{0x99, 1, 2}).has_value());
  // Valid tag but zero rate must be rejected.
  RateReport zero{1, 1, 0.0};
  wire::Bytes bytes = encode_rate_report(zero);
  EXPECT_FALSE(decode_rate_report(bytes).has_value());
}

/// Bottleneck fixture: source host -> r1 -> (slow link) -> r2 -> sink.
/// The source offers ~4x the bottleneck rate.
struct BottleneckTest : ::testing::Test {
  sim::Simulator sim;
  dir::Fabric fabric{sim};
  viper::ViperHost* src = nullptr;
  viper::ViperRouter* r1 = nullptr;
  viper::ViperRouter* r2 = nullptr;
  viper::ViperHost* dst = nullptr;
  core::SourceRoute route;
  std::size_t max_queue_packets = 0;
  int delivered = 0;

  static constexpr double kBottleneck = 1e8;  // 100 Mb/s
  static constexpr std::size_t kPacket = 1000;

  void build(bool with_cc) {
    dir::LinkParams fast;
    fast.rate_bps = 1e9;
    dir::LinkParams slow;
    slow.rate_bps = kBottleneck;
    // src -(fast)- r1 -(slow, the bottleneck at r1 port 2)- r2 -(slow)- dst
    test::Line line = test::build_line(
        fabric, 2, "src.test", "dst.test", {},
        [&](int hop) { return hop == 0 ? fast : slow; });
    src = line.src;
    r1 = &line.router(0);
    r2 = &line.router(1);
    dst = line.dst;
    if (with_cc) {
      ControllerConfig config;
      config.interval = sim::kMillisecond;
      config.queue_watermark_bytes = 16'000;
      fabric.enable_congestion_control(config);
    }
    route = test::line_route(2);
    dst->set_default_handler([this](const viper::Delivery&) { ++delivered; });
    r1->port(2).on_queue_change = [this](sim::Time, std::size_t n) {
      max_queue_packets = std::max(max_queue_packets, n);
    };
  }

  /// Source pump: offers a packet every @p interval, consulting the
  /// throttle when congestion control is on (a rate-based transport).
  void pump(sim::Time interval, sim::Time until) {
    const FlowKey key{fabric.id_of(*r1), 2};
    test::drive(sim, 1, until, [this, key, interval]() -> sim::Time {
      SourceThrottle* throttle = fabric.throttle_of(*src);
      sim::Time when = sim.now();
      if (throttle != nullptr) {
        when = throttle->acquire(key, kPacket);
      }
      sim.at(std::max(when, sim.now()), [this] {
        src->send(route, pattern_bytes(kPacket));
      });
      return std::max(when, sim.now()) + interval - sim.now();
    });
  }
};

TEST_F(BottleneckTest, WithoutControlQueueGrowsUnbounded) {
  build(/*with_cc=*/false);
  pump(20 * sim::kMicrosecond, 100 * sim::kMillisecond);  // ~400 Mb/s offered
  sim.run_until(100 * sim::kMillisecond);
  // Offered 4x capacity for 100 ms: the queue holds thousands of packets.
  EXPECT_GT(max_queue_packets, 1000u);
}

TEST_F(BottleneckTest, BackpressureBoundsQueueAndHoldsThroughput) {
  build(/*with_cc=*/true);
  pump(20 * sim::kMicrosecond, 200 * sim::kMillisecond);
  sim.run_until(220 * sim::kMillisecond);

  SourceThrottle* throttle = fabric.throttle_of(*src);
  ASSERT_NE(throttle, nullptr);
  EXPECT_GT(throttle->stats().reports_received, 0u);
  EXPECT_GT(throttle->stats().sends_delayed, 0u);

  // Queue stays near the watermark, not thousands of packets.
  EXPECT_LT(max_queue_packets, 200u);

  // The bottleneck still carries close to its capacity: >= 60% of the
  // ~100 Mb/s over the run (ramp oscillation costs some).
  const double sent_bits =
      static_cast<double>(r1->port(2).stats().bytes_sent) * 8.0;
  EXPECT_GT(sent_bits, 0.6 * kBottleneck * 0.2);
  EXPECT_GT(delivered, 0);
}

TEST_F(BottleneckTest, SoftStateExpiresAfterQuiet) {
  build(/*with_cc=*/true);
  pump(20 * sim::kMicrosecond, 50 * sim::kMillisecond);
  sim.run_until(60 * sim::kMillisecond);
  SourceThrottle* throttle = fabric.throttle_of(*src);
  ASSERT_NE(throttle, nullptr);
  const FlowKey key{fabric.id_of(*r1), 2};
  // Under pressure the granted rate is finite.
  EXPECT_LT(throttle->rate(key), 1e12);
  // After the source stops, reports cease, the rate ramps up, and the
  // soft state disappears ("as soft cached state, it can be discarded").
  sim.run_until(300 * sim::kMillisecond);
  EXPECT_TRUE(std::isinf(throttle->rate(key)));
}

TEST_F(BottleneckTest, RouterControllerSeesNoFalseCongestion) {
  build(/*with_cc=*/true);
  // Gentle traffic well under the bottleneck: no reports should flow.
  pump(200 * sim::kMicrosecond, 50 * sim::kMillisecond);  // ~40 Mb/s
  sim.run_until(60 * sim::kMillisecond);
  SourceThrottle* throttle = fabric.throttle_of(*src);
  ASSERT_NE(throttle, nullptr);
  EXPECT_EQ(throttle->stats().reports_received, 0u);
  EXPECT_EQ(delivered,
            static_cast<int>(dst->stats().delivered));
  EXPECT_GT(delivered, 100);
}

TEST(ThrottleUnit, AcquirePacesAtGrantedRate) {
  sim::Simulator sim;
  net::PacketFactory packets;
  viper::ViperHost host(sim, "h", packets);
  SourceThrottle throttle(sim, host);

  const FlowKey key{5, 2};
  // No limit installed: sends go immediately.
  EXPECT_EQ(throttle.acquire(key, 1250), sim.now());
  EXPECT_TRUE(std::isinf(throttle.rate(key)));

  // Grant 1 Mb/s: a 1250-byte packet occupies 10 ms of budget.
  throttle.apply_report(RateReport{5, 2, 1e6});
  EXPECT_DOUBLE_EQ(throttle.rate(key), 1e6);
  const sim::Time t1 = throttle.acquire(key, 1250);
  const sim::Time t2 = throttle.acquire(key, 1250);
  EXPECT_EQ(t1, sim.now());
  EXPECT_EQ(t2 - t1, 10 * sim::kMillisecond);

  // An unrelated flow key is unaffected.
  EXPECT_EQ(throttle.acquire(FlowKey{6, 1}, 1250), sim.now());
}

TEST(FeedForward, StampTravelsOneHopAndRenewsGrants) {
  // Two-tier: source -> r0 -> r1 -> bottleneck -> sink, with feed-forward
  // enabled.  r0's shaped packets carry their backlog; r1 must keep
  // renewing the grant while that backlog persists even when its own
  // queue has drained below the watermark.
  sim::Simulator sim;
  dir::Fabric fabric(sim);
  auto& src = fabric.add_host("src.ff");
  auto& r0 = fabric.add_router("r0");
  auto& r1 = fabric.add_router("r1");
  auto& dst = fabric.add_host("dst.ff");
  dir::LinkParams fast;
  fast.rate_bps = 1e9;
  dir::LinkParams slow;
  slow.rate_bps = 1e8;
  fabric.connect(src, r0, fast);
  fabric.connect(r0, r1, fast);
  fabric.connect(r1, dst, slow);
  ControllerConfig config;
  config.interval = sim::kMillisecond;
  config.queue_watermark_bytes = 4'000;
  config.feed_forward = true;
  fabric.enable_congestion_control(config);

  core::SourceRoute route;
  route.segments = {p2p_segment(2), p2p_segment(2), local_segment()};
  // Blast 3x the bottleneck for 30 ms, then watch the renewals continue
  // while r0 drains its backlog.
  for (int i = 0; i < 1200; ++i) {
    sim.at(1 + i * 33 * sim::kMicrosecond, [&] {
      src.send(route, pattern_bytes(1000));
    });
  }
  sim.run_until(120 * sim::kMillisecond);

  auto* c0 = fabric.controller_of(r0);
  auto* c1 = fabric.controller_of(r1);
  ASSERT_NE(c0, nullptr);
  ASSERT_NE(c1, nullptr);
  // r0 shaped packets (took custody at least once)...
  EXPECT_GT(c0->stats().packets_shaped, 0u);
  // ...and r1 kept reporting well beyond the initial congestion episode.
  EXPECT_GT(c1->stats().reports_sent, 5u);
  // Everything eventually arrives (no loss at the 100 Mb/s port's default
  // unbounded buffer, but throughput was shaped).
  EXPECT_GT(dst.stats().delivered, 1000u);
}

/// A router-side rate limit's whole life: src -> r0 -> r1 -> (100 Mb/s)
/// -> dst.  The source offers 2.4x the bottleneck for 30 ms and stops; r1
/// grants r0 a rate toward its congested port, r0 shapes toward it, and
/// once r1's reports stop the core decides how r0's limit leaves.
CongestionController::Stats router_flow_after_quiet(double ramp_factor) {
  sim::Simulator sim;
  dir::Fabric fabric(sim);
  auto& src = fabric.add_host("src.rf");
  auto& r0 = fabric.add_router("r0");
  auto& r1 = fabric.add_router("r1");
  auto& dst = fabric.add_host("dst.rf");
  dir::LinkParams fast;
  fast.rate_bps = 1e9;
  dir::LinkParams slow;
  slow.rate_bps = 1e8;
  fabric.connect(src, r0, fast);
  fabric.connect(r0, r1, fast);
  fabric.connect(r1, dst, slow);
  ControllerConfig config;
  config.interval = sim::kMillisecond;
  config.queue_watermark_bytes = 4'000;
  config.ramp_factor = ramp_factor;
  fabric.enable_congestion_control(config);

  core::SourceRoute route;
  route.segments = {p2p_segment(2), p2p_segment(2), local_segment()};
  for (int i = 0; i < 900; ++i) {
    sim.at(1 + i * 33 * sim::kMicrosecond, [&] {
      src.send(route, pattern_bytes(1000));
    });
  }
  sim.run_until(200 * sim::kMillisecond);
  CongestionController* c0 = fabric.controller_of(r0);
  EXPECT_NE(c0, nullptr);
  if (c0 == nullptr) return {};
  EXPECT_TRUE(c0->flow_snapshots().empty());
  EXPECT_EQ(c0->held_packets(), 0u);
  return c0->stats();
}

TEST(RouterRateLimit, RampsOutAtThePortRateWhenReportsStop) {
  // 1.4x per quiet 2 ms lifts r1's 90 Mb/s grant past r0's 1 Gb/s port
  // in 16 ms, well inside the 50 ms TTL.
  const auto stats = router_flow_after_quiet(1.4);
  EXPECT_GT(stats.packets_shaped, 0u);
  EXPECT_EQ(stats.flows_created, 1u);
  EXPECT_EQ(stats.flows_ramped_out, 1u);
  EXPECT_EQ(stats.flows_expired, 0u);
}

TEST(RouterRateLimit, ExpiresAfterTheTtlWhenTheRampIsSlow) {
  // 1.01x per quiet 2 ms stays far below the port rate for the whole TTL.
  const auto stats = router_flow_after_quiet(1.01);
  EXPECT_GT(stats.packets_shaped, 0u);
  EXPECT_EQ(stats.flows_created, 1u);
  EXPECT_EQ(stats.flows_expired, 1u);
  EXPECT_EQ(stats.flows_ramped_out, 0u);
}

TEST(ThrottleUnit, RampRemovesLimitWhenReportsStop) {
  sim::Simulator sim;
  net::PacketFactory packets;
  viper::ViperHost host(sim, "h", packets);
  ThrottleConfig config;
  config.ramp_interval = sim::kMillisecond;
  config.ramp_factor = 4.0;
  config.rate_ceiling_bps = 1e9;
  SourceThrottle throttle(sim, host, config);
  const FlowKey key{5, 2};
  throttle.apply_report(RateReport{5, 2, 1e6});
  // 1e6 * 4^k >= 1e9 at k = 5; each ramp tick is 1 ms.
  sim.run_until(10 * sim::kMillisecond);
  EXPECT_TRUE(std::isinf(throttle.rate(key)));
}

}  // namespace
}  // namespace srp::cc

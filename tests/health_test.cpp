// Health-plane tests: per-rule windows, detectors, alert lifecycle,
// exports, and the headline ground-truth scoring runs — fixed-seed chaos
// with one fault lane live at a time, where the fault engine's own books
// say exactly what should have been detected and where.
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "directory/fabric.hpp"
#include "fault/engine.hpp"
#include "fault/plan.hpp"
#include "flow/plane.hpp"
#include "health/alerts.hpp"
#include "health/detector.hpp"
#include "health/export.hpp"
#include "health/monitor.hpp"
#include "obs/recorder.hpp"
#include "stats/registry.hpp"
#include "test_util.hpp"
#include "transport/vmtp.hpp"

namespace srp {
namespace {

using test::pattern_bytes;

// --- per-rule windows ------------------------------------------------------

/// A bare monitor ticked by hand: each rule's reading is the window
/// between this tick and the previous one.
struct WindowRig {
  sim::Simulator sim;
  stats::Registry registry;
  health::HealthMonitor monitor{sim, registry};
  sim::Time at = 0;

  void tick() {
    at += health::kDefaultWindow;
    sim.run_until(at);
    monitor.tick();
  }

  /// The lifecycle events of the rule on @p metric so far.
  std::vector<health::AlertEvent> events(const std::string& metric) const {
    for (const auto& cell : monitor.engine().cells()) {
      if (cell.labels.metric == metric) return cell.events;
    }
    ADD_FAILURE() << "no rule on " << metric;
    return {};
  }
};

TEST(HealthWindows, CounterRuleReadsTheWindowDelta) {
  WindowRig rig;
  std::uint64_t rejected = 0;
  rig.registry.counter("viper.r2.token_rejected", rejected);
  rejected += 100;
  rig.tick();  // breach 1: the first window holds all 100
  rejected += 7;
  rig.tick();  // breach 2: fires on this window's 7, not the total 107
  rig.tick();
  rig.tick();  // two empty windows resolve it
  const auto events = rig.events("viper.r2.token_rejected");
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].state, health::AlertState::kPending);
  EXPECT_EQ(events[0].value, 100.0);
  EXPECT_EQ(events[1].state, health::AlertState::kFiring);
  EXPECT_EQ(events[1].value, 7.0);
  EXPECT_EQ(events[2].state, health::AlertState::kResolved);
  EXPECT_EQ(events[2].value, 0.0);
}

TEST(HealthWindows, P99RuleSeesOnlyItsOwnWindow) {
  WindowRig rig;
  auto& wait = rig.registry.histogram("port.r1_p1.queue_wait_ps");
  // Three warmup windows and a steady baseline of 1 us waits.
  for (int i = 0; i < 8; ++i) {
    for (int k = 0; k < 20; ++k) wait.record(sim::kMicrosecond);
    rig.tick();
  }
  // One window of 1 ms waits is a surge...
  for (int k = 0; k < 20; ++k) wait.record(sim::kMillisecond);
  rig.tick();
  // ...and the next window of 1 us waits is not: the surge stays in its
  // own window instead of dominating the run-lifetime p99.
  for (int k = 0; k < 20; ++k) wait.record(sim::kMicrosecond);
  rig.tick();
  const auto events = rig.events("port.r1_p1.queue_wait_ps");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].state, health::AlertState::kPending);
  EXPECT_GT(events[0].value, 0.5 * sim::kMillisecond);
  EXPECT_EQ(events[1].state, health::AlertState::kInactive);
  EXPECT_LT(events[1].value, 2.0 * sim::kMicrosecond);
}

TEST(HealthWindows, MetricRegisteredMidRunDiffsAgainstZero) {
  WindowRig rig;
  rig.tick();
  rig.tick();
  // First seen at the third tick: its first window is its whole value.
  const std::uint64_t wire_loss = 4;
  rig.registry.counter("port.r3_p2.wire_loss", wire_loss);
  rig.tick();
  const auto events = rig.events("port.r3_p2.wire_loss");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].state, health::AlertState::kPending);
  EXPECT_EQ(events[0].at, 3 * health::kDefaultWindow);
  EXPECT_EQ(events[0].value, 4.0);
}

TEST(HealthWindows, SourceBoundLaterToARuledCounterIsCounted) {
  WindowRig rig;
  std::uint64_t first = 0;
  rig.registry.counter("viper.r2.token_rejected", first);
  rig.tick();  // creates the rule on the one bound source
  // A second source on the same name adds no series, so the tick does
  // not walk the registry; the rule must still read the new source.
  const std::size_t series = rig.registry.size();
  const std::uint64_t second = 5;
  rig.registry.counter("viper.r2.token_rejected", second);
  EXPECT_EQ(rig.registry.size(), series);
  rig.tick();
  const auto events = rig.events("viper.r2.token_rejected");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].state, health::AlertState::kPending);
  EXPECT_EQ(events[0].value, 5.0);
}

TEST(HealthWindows, SkippedEmptyWindowStillAdvancesThePreviousReading) {
  WindowRig rig;
  auto& wait = rig.registry.histogram("port.r1_p1.queue_wait_ps");
  for (int i = 0; i < 8; ++i) {
    for (int k = 0; k < 20; ++k) wait.record(sim::kMicrosecond);
    rig.tick();
  }
  // Twenty slow samples, then an empty window: the rule skips it, but
  // must still take the slow samples as read.
  for (int k = 0; k < 20; ++k) wait.record(sim::kMillisecond);
  rig.tick();
  rig.tick();  // empty: skipped
  for (int k = 0; k < 20; ++k) wait.record(sim::kMicrosecond);
  rig.tick();
  // Had the skip left the previous reading behind, this window would
  // hold the slow samples again and read ~1 ms.
  const auto events = rig.events("port.r1_p1.queue_wait_ps");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].state, health::AlertState::kInactive);
  EXPECT_EQ(events[1].at, 11 * health::kDefaultWindow);
  EXPECT_LT(events[1].value, 2.0 * sim::kMicrosecond);
}

// --- detectors -------------------------------------------------------------

TEST(ThresholdDetectorSuite, HysteresisHoldsBreachUntilClearLimit) {
  health::ThresholdDetector detector({.limit = 5.0, .clear_limit = 1.0});
  EXPECT_FALSE(detector.evaluate(4.9).breach);
  EXPECT_TRUE(detector.evaluate(5.0).breach);
  // Dips below the breach limit but above clear: still breached.
  EXPECT_TRUE(detector.evaluate(3.0).breach);
  EXPECT_FALSE(detector.evaluate(1.0).breach);
  EXPECT_FALSE(detector.evaluate(4.0).breach);
}

TEST(EwmaDetectorSuite, WarmupAbsorbsColdStart) {
  health::EwmaConfig config;
  config.min_deviation = 1.0;
  health::EwmaDetector detector(config);
  // A wild cold-start spike inside warmup must not breach.
  EXPECT_FALSE(detector.evaluate(1000.0).breach);
  EXPECT_FALSE(detector.evaluate(0.0).breach);
  EXPECT_FALSE(detector.evaluate(0.0).breach);
}

TEST(EwmaDetectorSuite, SurgeBreachesAndBaselineFreezes) {
  health::EwmaConfig config;
  config.min_deviation = 5.0;
  config.min_sigma = 1.0;
  health::EwmaDetector detector(config);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(detector.evaluate(10.0).breach) << "window " << i;
  }
  const double baseline = detector.mean();
  EXPECT_NEAR(baseline, 10.0, 1e-9);

  // Sustained 10x surge: breaches immediately and stays breached, and the
  // frozen baseline never learns the surge as normal.
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(detector.evaluate(100.0).breach) << "window " << i;
  }
  EXPECT_NEAR(detector.mean(), baseline, 1e-9);
  // Recovery clears.
  EXPECT_FALSE(detector.evaluate(10.0).breach);
}

TEST(EwmaDetectorSuite, MinDeviationFloorsZeroVarianceBaselines) {
  health::EwmaConfig config;
  config.min_deviation = 8.0;
  config.min_sigma = 0.5;
  health::EwmaDetector detector(config);
  for (int i = 0; i < 10; ++i) detector.evaluate(0.0);
  // A 4-event blip is many sigmas above an all-zero baseline but below
  // the absolute floor: no page.
  EXPECT_FALSE(detector.evaluate(4.0).breach);
  EXPECT_TRUE(detector.evaluate(50.0).breach);
}

TEST(BurnRateDetectorSuite, FiresOnBudgetBurnSkipsQuietWindows) {
  health::BurnRateDetector detector({.objective = 1000});
  stats::Histogram slow;
  for (int i = 0; i < 50; ++i) slow.record(i < 40 ? 100 : 1'000'000);
  // 20% of samples over a 1% budget: burn 20x.
  auto verdict = detector.evaluate(slow.snapshot());
  EXPECT_TRUE(verdict.breach);
  EXPECT_NEAR(verdict.score, 20.0, 0.5);

  // A window below min_samples keeps the current state.
  stats::Histogram quiet;
  quiet.record(1'000'000);
  EXPECT_TRUE(detector.evaluate(quiet.snapshot()).breach);

  stats::Histogram healthy;
  for (int i = 0; i < 50; ++i) healthy.record(100);
  EXPECT_FALSE(detector.evaluate(healthy.snapshot()).breach);
}

TEST(BurnRateDetectorSuite, FractionAboveInterpolatesWithinBucket) {
  stats::HistogramSnapshot window;
  stats::Histogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
  window = h.snapshot();
  EXPECT_DOUBLE_EQ(health::fraction_above(window, 1u << 20), 0.0);
  EXPECT_DOUBLE_EQ(health::fraction_above(window, 0), 1.0);
  // Half the samples exceed 50; the straddling [32,63] bucket is shared
  // pro-rata, so the estimate lands near 0.5 (within one bucket's error).
  const double mid = health::fraction_above(window, 50);
  EXPECT_NEAR(mid, 0.5, 0.07);
  EXPECT_DOUBLE_EQ(health::fraction_above(stats::HistogramSnapshot{}, 10),
                   0.0);
}

// --- alert lifecycle -------------------------------------------------------

health::Verdict breach(double value) { return {true, value, value}; }
health::Verdict clear(double value = 0.0) { return {false, value, value}; }

TEST(AlertLifecycle, PendingDebounceThenFiringThenResolved) {
  health::AlertEngine engine({.for_windows = 2, .clear_windows = 2});
  const auto rule = engine.add_rule({.alert = "LinkWireLoss",
                                     .component = "r2",
                                     .port = "r2:p2",
                                     .metric = "port.r2_p2.wire_loss"});

  EXPECT_FALSE(engine.observe(rule, 10, clear()));
  EXPECT_TRUE(engine.observe(rule, 20, breach(3)));
  EXPECT_EQ(engine.alert(rule).state, health::AlertState::kPending);
  EXPECT_TRUE(engine.observe(rule, 30, breach(5)));
  EXPECT_EQ(engine.alert(rule).state, health::AlertState::kFiring);
  EXPECT_EQ(engine.alert(rule).pending_since, 20);
  EXPECT_EQ(engine.alert(rule).firing_since, 30);

  // One clear window is not enough; a breach resets the clear streak.
  EXPECT_FALSE(engine.observe(rule, 40, clear()));
  EXPECT_FALSE(engine.observe(rule, 50, breach(2)));
  EXPECT_FALSE(engine.observe(rule, 60, clear()));
  EXPECT_TRUE(engine.observe(rule, 70, clear()));
  EXPECT_EQ(engine.alert(rule).state, health::AlertState::kResolved);
  EXPECT_EQ(engine.alert(rule).resolved_at, 70);
  EXPECT_EQ(engine.alert(rule).peak_score, 5.0);
  ASSERT_EQ(engine.fired().size(), 1u);
}

TEST(AlertLifecycle, SubDebounceBlipNeverFires) {
  health::AlertEngine engine({.for_windows = 3, .clear_windows = 1});
  const auto rule = engine.add_rule({.alert = "QueueWaitSurge",
                                     .component = "r1",
                                     .port = "",
                                     .metric = "port.r1_p1.queue_wait_ps"});
  EXPECT_TRUE(engine.observe(rule, 10, breach(1)));
  EXPECT_FALSE(engine.observe(rule, 20, breach(1)));
  EXPECT_TRUE(engine.observe(rule, 30, clear()));
  EXPECT_EQ(engine.alert(rule).state, health::AlertState::kInactive);
  EXPECT_TRUE(engine.fired().empty());
  EXPECT_EQ(engine.firing_count(), 0u);
}

TEST(AlertLifecycle, ResolvedEpisodeCanRefire) {
  health::AlertEngine engine({.for_windows = 1, .clear_windows = 1});
  const auto rule = engine.add_rule({.alert = "TokenRejects",
                                     .component = "r2",
                                     .port = "",
                                     .metric = "viper.r2.token_rejected"});
  EXPECT_TRUE(engine.observe(rule, 10, breach(4)));
  EXPECT_TRUE(engine.observe(rule, 20, clear()));
  EXPECT_EQ(engine.alert(rule).state, health::AlertState::kResolved);
  EXPECT_TRUE(engine.observe(rule, 30, breach(9)));
  EXPECT_EQ(engine.alert(rule).state, health::AlertState::kFiring);
  EXPECT_EQ(engine.alert(rule).firing_since, 30);
  // Both firings are recorded, same cell.
  EXPECT_EQ(engine.fired().size(), 2u);
  EXPECT_EQ(engine.alert(rule).events.size(), 3u);
}

// --- ground-truth chaos scoring --------------------------------------------

/// Which single fault lane a scoring run drives (kNone = the paired
/// fault-free control run).
enum class Lane { kNone, kDrop, kFlap, kPoisonFlag, kPoisonForget };

constexpr sim::Time kWindow = 10 * sim::kMillisecond;
constexpr sim::Time kTrafficEnd = 600 * sim::kMillisecond;
constexpr sim::Time kRunEnd = 700 * sim::kMillisecond;
constexpr sim::Time kFaultAt = 250 * sim::kMillisecond;
constexpr sim::Time kFlapFor = 60 * sim::kMillisecond;

struct HealthRun {
  std::vector<health::AlertLabels> fired;
  std::string alerts_json;
  std::string alerts_prom;
  int ok = 0;
  std::uint64_t windows = 0;
};

/// Line fabric client — r1 — r2 — r3 — server under VMTP echo traffic;
/// every fault lane targets router r2 (its egress port r2:p2 toward r3),
/// so ground truth for localization is always "r2".
HealthRun run_health_chaos(Lane lane, std::uint64_t seed) {
  sim::Simulator sim;
  stats::Registry registry;
  obs::FlightRecorder recorder;
  flow::FlowPlane flow_plane({}, &registry, &recorder);
  const obs::Observer observer{&registry, &recorder, &flow_plane};

  dir::Fabric fabric(sim);
  auto& client_host = fabric.add_host("client.health");
  auto& server_host = fabric.add_host("server.health");
  auto& r1 = fabric.add_router("r1");
  auto& r2 = fabric.add_router("r2");
  auto& r3 = fabric.add_router("r3");
  fabric.connect(client_host, r1);
  fabric.connect(r1, r2);
  fabric.connect(r2, r3);
  fabric.connect(r3, server_host);

  fabric.enable_tokens(0x8EA17, /*enforce=*/true,
                       tokens::UncachedPolicy::kOptimistic);
  fabric.enable_observability(observer);
  auto& monitor = fabric.enable_health(kWindow);

  fault::FaultPlan plan;
  plan.seed = seed;
  if (lane == Lane::kDrop) plan.lane("r2:p2").drop_rate = 0.25;
  if (lane == Lane::kPoisonFlag) {
    plan.token_poisons_per_second = 300.0;
    plan.token_poison_flag = true;
  }
  if (lane == Lane::kPoisonForget) {
    plan.token_poisons_per_second = 4000.0;
    plan.token_poison_flag = false;
  }
  stats::Registry fault_stats;  // ground truth stays out of health's sight
  fault::FaultEngine engine(sim, plan, fault_stats);
  if (lane == Lane::kDrop) engine.attach(r2.port(2));
  if (lane == Lane::kFlap) {
    engine.schedule_flap(r2.port(2), kFaultAt, kFlapFor);
  }
  if (lane == Lane::kPoisonFlag) {
    engine.attach_token_cache("r2", r2.token_cache());
  }
  if (lane == Lane::kPoisonForget) {
    // Attach mid-run: the poison process starts after the miss-rate
    // baseline has settled, so the surge is a deviation, not the norm.
    sim.at(kFaultAt, [&engine, &r2] {
      engine.attach_token_cache("r2", r2.token_cache());
    });
  }

  vmtp::VmtpConfig vconfig;
  vconfig.max_retries = 6;
  auto client =
      std::make_unique<vmtp::VmtpEndpoint>(sim, client_host, 0xC1, vconfig);
  auto server =
      std::make_unique<vmtp::VmtpEndpoint>(sim, server_host, 0x5E, vconfig);
  server->serve(
      [](std::span<const std::uint8_t> req, const viper::Delivery&) {
        return wire::Bytes(req.begin(), req.end());
      });

  dir::RouteCacheConfig cache_config;
  cache_config.ttl = kRunEnd;
  dir::RouteCache& cache = fabric.route_cache(client_host, cache_config);
  client->set_failure_hook([&] { cache.report_failure("server.health"); });

  HealthRun run;
  dir::QueryOptions q;
  q.dest_endpoint = 0x5E;
  sim::Rng traffic_rng(seed * 977 + 3);
  test::drive(sim, 1, kTrafficEnd, [&]() -> sim::Time {
    const auto route = cache.route_to("server.health", q);
    if (route.has_value()) {
      const wire::Bytes request = pattern_bytes(
          64 + traffic_rng.uniform_int(0, 900),
          static_cast<std::uint8_t>(traffic_rng.uniform_int(0, 255)));
      client->invoke(*route, 0x5E, request, [&run](vmtp::Result r) {
        if (r.ok) ++run.ok;
      });
    }
    return static_cast<sim::Time>(200 * sim::kMicrosecond +
                                  traffic_rng.uniform_int(
                                      0, 300 * sim::kMicrosecond));
  });
  sim.run_until(kRunEnd);

  for (const health::Alert* alert : monitor.engine().fired()) {
    run.fired.push_back(alert->labels);
  }
  run.alerts_json = health::to_alerts_json(monitor);
  run.alerts_prom = health::to_prometheus_alerts(monitor.engine());
  run.windows = monitor.windows();
  return run;
}

/// True when some fired alert has @p name and names @p component.
bool fired_at(const HealthRun& run, const std::string& name,
              const std::string& component) {
  for (const auto& labels : run.fired) {
    if (labels.alert == name && labels.component == component) return true;
  }
  return false;
}

/// All fired alerts named @p name point at @p component (localization
/// precision for that detector class).
bool fired_only_at(const HealthRun& run, const std::string& name,
                   const std::string& component) {
  for (const auto& labels : run.fired) {
    if (labels.alert == name && labels.component != component) return false;
  }
  return true;
}

TEST(HealthGroundTruth, FaultFreeRunRaisesNoAlerts) {
  const auto run = run_health_chaos(Lane::kNone, 0xBA5E);
  EXPECT_GT(run.ok, 1000);
  EXPECT_GE(run.windows, 60u);
  // Precision 1.0: zero alerts ever fired, and nothing left pending.
  EXPECT_TRUE(run.fired.empty())
      << "false alert: " << run.fired.front().alert << " on "
      << run.fired.front().metric;
  EXPECT_EQ(run.alerts_prom,
            "# TYPE ALERTS gauge\n# TYPE ALERTS_FOR_STATE gauge\n");
}

TEST(HealthGroundTruth, FaultFreeAlertStateIsByteIdenticalAcrossReruns) {
  const auto first = run_health_chaos(Lane::kNone, 0xBA5E);
  const auto second = run_health_chaos(Lane::kNone, 0xBA5E);
  EXPECT_EQ(first.alerts_json, second.alerts_json);
  EXPECT_EQ(first.ok, second.ok);
}

TEST(HealthGroundTruth, DropBurstDetectedAndLocalized) {
  const auto run = run_health_chaos(Lane::kDrop, 0xD201);
  EXPECT_TRUE(fired_at(run, "LinkWireLoss", "r2")) << run.alerts_json;
  // The wire-loss conservation residue is per-port: only the attacked
  // port's series may accuse, and it must name the right port.
  EXPECT_TRUE(fired_only_at(run, "LinkWireLoss", "r2"));
  for (const auto& labels : run.fired) {
    if (labels.alert == "LinkWireLoss") {
      EXPECT_EQ(labels.port, "r2:p2");
    }
  }
}

TEST(HealthGroundTruth, LinkFlapDetectedAndLocalized) {
  const auto run = run_health_chaos(Lane::kFlap, 0xF1A9);
  EXPECT_TRUE(fired_at(run, "LinkDown", "r2")) << run.alerts_json;
  EXPECT_TRUE(fired_only_at(run, "LinkDown", "r2"));
  EXPECT_TRUE(fired_only_at(run, "LinkDownDrops", "r2"));
}

TEST(HealthGroundTruth, TokenPoisonFlagDetectedAndLocalized) {
  const auto run = run_health_chaos(Lane::kPoisonFlag, 0x9015);
  EXPECT_TRUE(fired_at(run, "TokenRejects", "r2")) << run.alerts_json;
  EXPECT_TRUE(fired_only_at(run, "TokenRejects", "r2"));
}

TEST(HealthGroundTruth, TokenPoisonForgetDetectedAndLocalized) {
  const auto run = run_health_chaos(Lane::kPoisonForget, 0x4063);
  EXPECT_TRUE(fired_at(run, "TokenMissSurge", "r2")) << run.alerts_json;
  EXPECT_TRUE(fired_only_at(run, "TokenMissSurge", "r2"));
}

TEST(HealthGroundTruth, FaultedRunAlertsAreDeterministic) {
  test::expect_deterministic([] {
    const auto run = run_health_chaos(Lane::kDrop, 0xD201);
    return run.alerts_json;
  });
}

// --- conservation residue across the port lifecycle -----------------------

/// A watched port with a sink peer; tick() runs the monitor at now() and
/// returns the cumulative conservation residue it published: handed minus
/// cleared, down and local drops, minus what the port still holds.
struct ResidueRig {
  sim::Simulator sim;
  stats::Registry registry;
  health::HealthMonitor monitor{sim, registry};
  test::SinkNode peer{sim, "peer"};
  net::TxPort port{sim, "r1:p1",
                   net::LinkConfig{1e9, 2 * sim::kMicrosecond, 1500}};
  net::PacketFactory packets;

  ResidueRig() {
    port.connect(&peer, 1);
    monitor.watch_link(port, "r1");
  }

  std::int64_t tick() {
    monitor.tick();
    const auto snap = registry.snapshot();
    const auto count = [&](const char* what) {
      return static_cast<std::int64_t>(
          snap.at(std::string("port.r1_p1.") + what));
    };
    EXPECT_EQ(count("wire_loss"), 0);
    const auto held = static_cast<std::int64_t>(
        port.queue_packets() + (port.busy() ? 1 : 0));
    return count("handed") - count("cleared") - count("down_drops") -
           count("local_drops") - held;
  }
};

TEST(HealthResidue, TickInsideCommitWindowReadsZero) {
  ResidueRig rig;
  rig.sim.run_until(sim::kMicrosecond);
  // Committed at once, but its cut-through bound lies 9 us ahead: the
  // packet is still queued and not yet sent.
  rig.port.enqueue(rig.packets.make(pattern_bytes(1000), rig.sim.now()),
                   net::TxMeta{}, 10 * sim::kMicrosecond);
  rig.sim.run_until(5 * sim::kMicrosecond);
  EXPECT_EQ(rig.port.queue_packets(), 1u);
  EXPECT_EQ(rig.port.stats().sent, 0u);
  EXPECT_EQ(rig.tick(), 0);
  rig.sim.run();
  EXPECT_EQ(rig.tick(), 0);
}

TEST(HealthResidue, TickInsideLazilyEndedTransmissionReadsZero) {
  ResidueRig rig;
  rig.port.enqueue(rig.packets.make(pattern_bytes(1000), 0), net::TxMeta{},
                   0);
  rig.sim.run_until(3 * sim::kMicrosecond);  // on the wire until 8 us
  EXPECT_TRUE(rig.port.busy());
  EXPECT_EQ(rig.tick(), 0);
  // No event marks the end; the tick at 20 us finds it sent by the clock.
  rig.sim.run_until(20 * sim::kMicrosecond);
  EXPECT_EQ(rig.peer.arrivals.size(), 1u);
  EXPECT_EQ(rig.tick(), 0);
  EXPECT_FALSE(rig.port.busy());
  EXPECT_EQ(rig.port.stats().sent, 1u);
}

// --- exports ---------------------------------------------------------------

std::string golden_path(const std::string& name) {
  return std::string(GOLDEN_DIR) + "/" + name;
}

void expect_golden_text(const std::string& name, const std::string& text) {
  if (std::getenv("GOLDEN_REGEN") != nullptr) {
    std::ofstream out(golden_path(name), std::ios::binary);
    out << text;
    ASSERT_TRUE(out.good()) << "regen failed for " << name;
    return;
  }
  std::ifstream in(golden_path(name), std::ios::binary);
  ASSERT_TRUE(in) << name << " missing — run with GOLDEN_REGEN=1";
  const std::string golden((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  EXPECT_EQ(text, golden) << "exporter output drifted from " << name;
}

/// A small deterministic monitor run: token rejects at r2 breach a
/// threshold rule, fire, then resolve.
TEST(HealthExportGolden, PromAndJsonMatchGoldens) {
  sim::Simulator sim;
  stats::Registry registry;
  health::HealthMonitor monitor(sim, registry, kWindow);
  monitor.map_router(2, "r2");

  std::uint64_t rejected = 0;
  registry.counter("viper.r2.token_rejected", rejected);
  auto& wait = registry.histogram("port.r2_p1.queue_wait_ps");
  std::uint64_t window = 0;
  const auto step = [&](std::uint64_t rejects) {
    ++window;
    rejected += rejects;
    wait.record(2000 + 17 * window);
    sim.run_until(static_cast<sim::Time>(window) * kWindow);
    monitor.tick();
  };
  step(0);
  step(0);                              // baseline
  step(12);                             // breach 1 -> pending
  step(9);                              // breach 2 -> firing (prom snapshot)
  const std::string prom = health::to_prometheus_alerts(monitor.engine());
  step(0);
  step(0);                              // two clears -> resolved
  const std::string json = health::to_alerts_json(monitor);

  expect_golden_text("health.prom", prom);
  expect_golden_text("health.json", json);
}

}  // namespace
}  // namespace srp

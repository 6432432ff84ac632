#include "paper_results.hpp"

#include <memory>

#include "bench_util.hpp"

namespace srp::bench {
namespace {

// ---------- E4: rate-based congestion control ----------
//
// Scenario: four source hosts behind one router feed a shared bottleneck.
// Compares no-control vs rate control, then sweeps buffer space and
// propagation delay, reporting bottleneck utilization, queue statistics,
// loss, and per-source fairness.

constexpr double kBottleneckBps = 1e8;  // 100 Mb/s
constexpr std::size_t kPacketBytes = 1000;
constexpr int kSources = 4;
constexpr sim::Time kDuration = 400 * sim::kMillisecond;

E4Case e4_case(bool with_cc, std::size_t buffer_bytes,
               sim::Time feeder_prop) {
  sim::Simulator sim;
  dir::Fabric fabric(sim);

  std::vector<viper::ViperHost*> sources;
  auto& r1 = fabric.add_router("r1");
  auto& r2 = fabric.add_router("r2");
  auto& sink = fabric.add_host("sink.bench");
  dir::LinkParams edge;
  edge.rate_bps = 1e9;
  edge.prop_delay = feeder_prop;  // length of the feedback loop to sources
  dir::LinkParams bottleneck;
  bottleneck.rate_bps = kBottleneckBps;
  bottleneck.prop_delay = 100 * sim::kMicrosecond;
  for (int i = 0; i < kSources; ++i) {
    auto& h = fabric.add_host("src" + std::to_string(i) + ".bench");
    fabric.connect(h, r1, edge);  // r1 ports 1..kSources
    sources.push_back(&h);
  }
  const int bottleneck_port = kSources + 1;
  fabric.connect(r1, r2, bottleneck);
  fabric.connect(r2, sink, bottleneck);
  r1.port(bottleneck_port).set_buffer_limit(buffer_bytes);

  if (with_cc) {
    cc::ControllerConfig config;
    config.interval = sim::kMillisecond;
    config.queue_watermark_bytes = buffer_bytes / 3;
    fabric.enable_congestion_control(config);
  }

  std::vector<std::uint64_t> delivered(kSources, 0);
  sink.set_default_handler([&](const viper::Delivery& d) {
    if (d.flow < kSources) ++delivered[d.flow];
  });

  stats::TimeWeighted queue_stat;
  r1.port(bottleneck_port).on_queue_change =
      [&](sim::Time t, std::size_t n) {
        queue_stat.update(sim::to_seconds(t), static_cast<double>(n));
      };

  core::SourceRoute route;
  core::HeaderSegment hop;
  hop.port = static_cast<std::uint8_t>(bottleneck_port);
  hop.flags.vnt = true;
  core::HeaderSegment hop2;
  hop2.port = 2;
  hop2.flags.vnt = true;
  core::HeaderSegment local;
  local.port = core::kLocalPort;
  local.flags.vnt = true;
  route.segments = {hop, hop2, local};

  // Each source offers ~50 Mb/s (total 2x the bottleneck) with on-off
  // burstiness — "the highly bursty traffic characteristic" of §1.
  const cc::FlowKey key{fabric.id_of(r1),
                        static_cast<std::uint8_t>(bottleneck_port)};
  std::vector<std::unique_ptr<wl::OnOffSource>> pumps;
  for (int i = 0; i < kSources; ++i) {
    viper::ViperHost* host = sources[i];
    const auto flow = static_cast<std::uint64_t>(i);
    auto emit = [&sim, &fabric, host, flow, key, route] {
      cc::SourceThrottle* throttle = fabric.throttle_of(*host);
      viper::SendOptions options;
      options.flow = flow;
      const sim::Time when =
          throttle ? throttle->acquire(key, kPacketBytes) : sim.now();
      if (when <= sim.now()) {
        host->send(route, wire::Bytes(kPacketBytes, 0x44), options);
      } else {
        sim.at(when, [host, route, options] {
          host->send(route, wire::Bytes(kPacketBytes, 0x44), options);
        });
      }
    };
    // 50 Mb/s average: packets every 160 us on average, in bursts.
    pumps.push_back(std::make_unique<wl::OnOffSource>(
        sim, 1000 + static_cast<std::uint64_t>(i),
        2 * sim::kMillisecond,        // mean burst
        2 * sim::kMillisecond,        // mean idle
        80 * sim::kMicrosecond, emit));  // 100 Mb/s within a burst
    pumps.back()->start();
  }

  sim.run_until(kDuration);

  E4Case result;
  // Read the port first: it reports a start no event marked before the
  // queue average is closed.
  const auto& port_stats = r1.port(bottleneck_port).stats();
  queue_stat.finish(sim::to_seconds(sim.now()));
  result.mean_queue_pkts = queue_stat.average();
  result.max_queue_pkts = queue_stat.max_value();
  result.utilization = static_cast<double>(port_stats.busy_time) /
                       static_cast<double>(kDuration);
  result.drops = port_stats.dropped_full;
  double sum = 0, sumsq = 0;
  for (auto d : delivered) {
    sum += static_cast<double>(d);
    sumsq += static_cast<double>(d) * static_cast<double>(d);
  }
  result.fairness =
      sumsq > 0 ? sum * sum / (kSources * sumsq) : 0.0;
  for (auto* r : fabric.routers()) {
    if (auto* c = fabric.controller_of(*r)) {
      result.reports += c->stats().reports_sent;
    }
  }
  return result;
}

// ---------- A2: feed-forward ----------
A2Case a2_case(bool feed_forward) {
  sim::Simulator sim;
  dir::Fabric fabric(sim);
  // Two-tier: 3 sources -> r0 -> r1 -> bottleneck -> sink.  r0 shapes the
  // flow after r1's reports; with feed-forward on, r0's shaped packets
  // carry their backlog and r1 keeps the grant alive.
  auto& r0 = fabric.add_router("r0");
  auto& r1 = fabric.add_router("r1");
  auto& sink = fabric.add_host("sink.a2");
  std::vector<viper::ViperHost*> sources;
  dir::LinkParams edge;
  edge.rate_bps = 1e9;
  edge.prop_delay = 5 * sim::kMicrosecond;
  dir::LinkParams mid;
  mid.rate_bps = 1e9;
  mid.prop_delay = 200 * sim::kMicrosecond;  // long feedback loop
  dir::LinkParams slow;
  slow.rate_bps = 1e8;
  slow.prop_delay = 10 * sim::kMicrosecond;
  for (int i = 0; i < 3; ++i) {
    auto& h = fabric.add_host(numbered("s", i) + ".a2");
    fabric.connect(h, r0, edge);  // r0 ports 1..3
    sources.push_back(&h);
  }
  fabric.connect(r0, r1, mid);    // r0 port 4
  fabric.connect(r1, sink, slow);  // r1 port 2: the bottleneck
  r1.port(2).set_buffer_limit(10 * 1024);  // tight: overshoot = loss

  cc::ControllerConfig config;
  config.interval = sim::kMillisecond;
  config.queue_watermark_bytes = 4'000;
  config.ramp_factor = 2.0;          // aggressive slow-start: big overshoot
  config.flow_ttl = 4 * sim::kMillisecond;  // grants die fast when quiet
  config.feed_forward = feed_forward;
  fabric.enable_congestion_control(config);

  core::SourceRoute route;
  core::HeaderSegment h1;
  h1.port = 4;
  h1.flags.vnt = true;
  core::HeaderSegment h2;
  h2.port = 2;
  h2.flags.vnt = true;
  core::HeaderSegment local;
  local.port = core::kLocalPort;
  local.flags.vnt = true;
  route.segments = {h1, h2, local};

  std::vector<std::unique_ptr<wl::CbrSource>> pumps;
  for (auto* src : sources) {
    pumps.push_back(std::make_unique<wl::CbrSource>(
        sim, 90 * sim::kMicrosecond, [src, route] {
          src->send(route, wire::Bytes(1000, 0x11));
        }));
    pumps.back()->start();
  }
  const sim::Time duration = 300 * sim::kMillisecond;
  sim.run_until(duration);

  A2Case result;
  result.util = static_cast<double>(r1.port(2).stats().busy_time) /
                static_cast<double>(duration);
  result.drops = r1.port(2).stats().dropped_full;
  for (auto* r : fabric.routers()) {
    if (auto* c = fabric.controller_of(*r)) {
      result.renewals += c->stats().reports_sent;
    }
  }
  return result;
}

}  // namespace

E4Results run_e4() {
  E4Results results;
  results.no_control = e4_case(false, 64 * 1024, 5 * sim::kMicrosecond);
  results.rate_control = e4_case(true, 64 * 1024, 5 * sim::kMicrosecond);
  for (std::size_t kb : {16u, 32u, 64u, 128u}) {
    results.by_buffer_kb.emplace_back(
        kb, e4_case(true, kb * 1024, 5 * sim::kMicrosecond));
  }
  for (sim::Time prop : {5 * sim::kMicrosecond, 100 * sim::kMicrosecond,
                         sim::kMillisecond, 5 * sim::kMillisecond}) {
    results.by_feeder_prop.emplace_back(prop,
                                        e4_case(true, 64 * 1024, prop));
  }
  return results;
}

std::string render_e4(const E4Results& results) {
  std::string out =
      "E4 / paper §2.2, §6.3 — rate-based congestion control at a "
      "2x-overloaded bottleneck\n\n";
  {
    stats::Table table("with vs without rate control (64 KB buffer, "
                       "5 us feeder links)");
    table.columns({"scheme", "util", "mean q (pkts)", "max q", "drops",
                   "fairness", "reports"});
    for (bool cc_on : {false, true}) {
      const E4Case& r = cc_on ? results.rate_control : results.no_control;
      table.row({cc_on ? "rate control" : "no control",
                 stats::Table::num(r.utilization, 3),
                 stats::Table::num(r.mean_queue_pkts, 1),
                 stats::Table::num(r.max_queue_pkts, 0),
                 std::to_string(r.drops), stats::Table::num(r.fairness, 3),
                 std::to_string(r.reports)});
    }
    table.note("paper: backpressure bounds queuing delay and loss while "
               "keeping the congested link busy; flows share per-feeder.");
    out += table.render() + "\n";
  }
  {
    stats::Table table("rate control vs output buffer space (5 us feeder links)");
    table.columns({"buffer KB", "util", "mean q", "max q", "drops"});
    for (const auto& [kb, r] : results.by_buffer_kb) {
      table.row({std::to_string(kb), stats::Table::num(r.utilization, 3),
                 stats::Table::num(r.mean_queue_pkts, 1),
                 stats::Table::num(r.max_queue_pkts, 0),
                 std::to_string(r.drops)});
    }
    table.note("paper: \"the degree of oscillation and its resulting "
               "effect on the utilization ... depends on the amount of "
               "output buffer space\".");
    out += table.render() + "\n";
  }
  {
    stats::Table table("rate control vs propagation delay to feeders (64 KB buffer)");
    table.columns({"feeder prop", "util", "mean q", "max q", "drops"});
    for (const auto& [prop, r] : results.by_feeder_prop) {
      table.row({us(prop) + " us", stats::Table::num(r.utilization, 3),
                 stats::Table::num(r.mean_queue_pkts, 1),
                 stats::Table::num(r.max_queue_pkts, 0),
                 std::to_string(r.drops)});
    }
    table.note("paper: \"... and the propagation delay to the feeding "
               "routers\" — longer feedback loops oscillate more.");
    out += table.render();
  }
  return out;
}

A2Results run_a2() { return A2Results{a2_case(false), a2_case(true)}; }

std::string render_a2(const A2Results& results) {
  stats::Table table("A2: feed-forward load information (two-tier "
                     "backpressure, 200 us loop)");
  table.columns({"variant", "bottleneck util", "drops", "reports sent"});
  for (bool ff : {false, true}) {
    const A2Case& r = ff ? results.on : results.off;
    table.row({ff ? "feed-forward on" : "feed-forward off",
               stats::Table::num(r.util, 3), std::to_string(r.drops),
               std::to_string(r.renewals)});
  }
  table.note("paper §2.2: \"packets include information on the number "
             "of packets queued behind them at their previous router\" — "
             "grants stay alive while backlog persists, damping the "
             "ramp/overflow oscillation.");
  return table.render();
}

}  // namespace srp::bench

// E4 (paper §2.2/§6.3, rate-based congestion control).
//
// "If the arrival rate to this port exceeds the output rate, the router
// signals to those upstream routers feeding this queue to reduce their
// rate ... As a feedback system, this rate control approach necessarily
// oscillates.  The degree of oscillation and its resulting effect on the
// utilization of the congested output link depends on the amount of
// output buffer space, the propagation delay to the feeding routers and
// the variation in traffic going to the output queue."
//
// Scenario: four source hosts behind one router feed a shared bottleneck.
// We compare no-control vs rate control, then sweep buffer space and
// propagation delay, reporting bottleneck utilization, queue statistics,
// loss, and per-source fairness.
#include <cmath>
#include <cstdio>
#include <memory>

#include "bench_util.hpp"

namespace srp::bench {
namespace {

constexpr double kBottleneckBps = 1e8;  // 100 Mb/s
constexpr std::size_t kPacketBytes = 1000;
constexpr int kSources = 4;

struct CongestionResult {
  double utilization = 0;
  double mean_queue_pkts = 0;
  double max_queue_pkts = 0;
  std::uint64_t drops = 0;
  double fairness = 0;  ///< Jain's index over per-source deliveries
  std::uint64_t reports = 0;
};

CongestionResult run_case(bool with_cc, std::size_t buffer_bytes,
                          sim::Time feeder_prop, sim::Time duration) {
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

  sim.run_until(duration);

  CongestionResult result;
  // Read the port first: it reports a start no event marked before the
  // queue average is closed.
  const auto& port_stats = r1.port(bottleneck_port).stats();
  queue_stat.finish(sim::to_seconds(sim.now()));
  result.mean_queue_pkts = queue_stat.average();
  result.max_queue_pkts = queue_stat.max_value();
  result.utilization = static_cast<double>(port_stats.busy_time) /
                       static_cast<double>(duration);
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

}  // namespace
}  // namespace srp::bench

int main() {
  using namespace srp;
  using namespace srp::bench;

  std::puts("E4 / paper §2.2, §6.3 — rate-based congestion control at a "
            "2x-overloaded bottleneck");
  std::puts("");

  const sim::Time duration = 400 * sim::kMillisecond;

  {
    stats::Table table("with vs without rate control (64 KB buffer, "
                       "5 us feeder links)");
    table.columns({"scheme", "util", "mean q (pkts)", "max q", "drops",
                   "fairness", "reports"});
    for (bool cc_on : {false, true}) {
      const auto r = run_case(cc_on, 64 * 1024, 5 * sim::kMicrosecond,
                              duration);
      table.row({cc_on ? "rate control" : "no control",
                 stats::Table::num(r.utilization, 3),
                 stats::Table::num(r.mean_queue_pkts, 1),
                 stats::Table::num(r.max_queue_pkts, 0),
                 std::to_string(r.drops), stats::Table::num(r.fairness, 3),
                 std::to_string(r.reports)});
    }
    table.note("paper: backpressure bounds queuing delay and loss while "
               "keeping the congested link busy; flows share per-feeder.");
    table.print();
    std::puts("");
  }

  {
    stats::Table table("rate control vs output buffer space (5 us feeder links)");
    table.columns({"buffer KB", "util", "mean q", "max q", "drops"});
    for (std::size_t kb : {16u, 32u, 64u, 128u}) {
      const auto r = run_case(true, kb * 1024, 5 * sim::kMicrosecond,
                              duration);
      table.row({std::to_string(kb), stats::Table::num(r.utilization, 3),
                 stats::Table::num(r.mean_queue_pkts, 1),
                 stats::Table::num(r.max_queue_pkts, 0),
                 std::to_string(r.drops)});
    }
    table.note("paper: \"the degree of oscillation and its resulting "
               "effect on the utilization ... depends on the amount of "
               "output buffer space\".");
    table.print();
    std::puts("");
  }

  {
    stats::Table table("rate control vs propagation delay to feeders (64 KB buffer)");
    table.columns({"feeder prop", "util", "mean q", "max q", "drops"});
    for (sim::Time prop :
         {5 * sim::kMicrosecond, 100 * sim::kMicrosecond,
          sim::kMillisecond, 5 * sim::kMillisecond}) {
      const auto r = run_case(true, 64 * 1024, prop, duration);
      table.row({us(prop) + " us", stats::Table::num(r.utilization, 3),
                 stats::Table::num(r.mean_queue_pkts, 1),
                 stats::Table::num(r.max_queue_pkts, 0),
                 std::to_string(r.drops)});
    }
    table.note("paper: \"... and the propagation delay to the feeding "
               "routers\" — longer feedback loops oscillate more.");
    table.print();
  }
  return 0;
}

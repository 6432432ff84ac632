// E2 (paper §6.1, M/D/1 sizing of the blocking delay).
//
// "With reasonable load (up to about 70 percent utilization), M/D/1
// modeling of the queue suggests an average queue length of approximately
// one packet or less, including the packet currently being transmitted.
// The average queuing delay is then approximately the transmission time
// for half of an average packet."
//
// This bench drives one output port with Poisson arrivals of fixed-size
// packets (M/D/1) and with the paper's packet-size mix (M/G/1), sweeps
// utilization, and compares the simulated time-average number in system
// and mean wait against the closed forms.
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "obs/recorder.hpp"
#include "stats/queueing.hpp"
#include "stats/registry.hpp"

namespace srp::bench {
namespace {

struct QueueObservation {
  double mean_in_system = 0;   // time-average, including the one in service
  double mean_wait_units = 0;  // mean wait in mean-service-time units
  double utilization = 0;
};

/// Drives a single 1 Gb/s port with Poisson arrivals for @p duration.
QueueObservation run_port(double rho, const wl::PacketSizeModel* sizes,
                          std::size_t fixed_size, sim::Time duration,
                          std::uint64_t seed) {
  sim::Simulator sim;
  net::Network net(sim);
  net::PacketFactory packets;

  struct Sink : net::PortedNode {
    using net::PortedNode::PortedNode;
    void on_arrival(const net::Arrival&) override {}
  };
  auto& a = net.add<Sink>("a");
  auto& b = net.add<Sink>("b");
  constexpr double kRate = 1e9;
  const auto [pa, pb] = net.duplex(a, b, net::LinkConfig{kRate, 0, 65536});
  (void)pb;
  net::TxPort& port = a.port(pa);

  sim::Rng rng(seed);
  const double mean_bytes =
      sizes != nullptr ? sizes->analytic_mean()
                       : static_cast<double>(fixed_size);
  const double mean_service_s = mean_bytes * 8.0 / kRate;
  const sim::Time mean_interarrival =
      sim::from_seconds(mean_service_s / rho);

  // Mean wait: the port's own queue-wait histogram (start minus enqueue).
  stats::Registry registry;
  port.set_observer(obs::Observer{&registry, nullptr});
  const stats::Histogram& wait_ps = registry.histogram(
      "port." + stats::metric_component(port.name()) + ".queue_wait_ps");
  // Time-average queue length; the one in service adds the utilization.
  stats::TimeWeighted queued;
  queued.update(0.0, 0.0);
  port.on_queue_change = [&](sim::Time t, std::size_t n) {
    queued.update(sim::to_seconds(t), static_cast<double>(n));
  };

  wl::PoissonSource source(sim, seed * 7 + 1, mean_interarrival, [&] {
    const std::size_t size =
        sizes != nullptr ? sizes->sample(rng) : fixed_size;
    port.enqueue(packets.make(wire::Bytes(size, 0), sim.now()),
                 net::TxMeta{}, 0);
  });
  source.start();
  sim.run_until(duration);
  source.stop();
  sim.run();  // drain

  QueueObservation result;
  result.utilization = static_cast<double>(port.stats().busy_time) /
                       static_cast<double>(duration);
  queued.finish(sim::to_seconds(sim.now()));
  result.mean_in_system = queued.average() + result.utilization;
  if (wait_ps.count() > 0) {
    const double mean_wait_s = static_cast<double>(wait_ps.sum()) /
                               static_cast<double>(wait_ps.count()) /
                               static_cast<double>(sim::kSecond);
    result.mean_wait_units = mean_wait_s / mean_service_s;
  }
  return result;
}

}  // namespace
}  // namespace srp::bench

int main() {
  using namespace srp;
  using namespace srp::bench;

  std::puts("E2 / paper §6.1 — output-queue behaviour vs utilization");
  std::puts("");

  const sim::Time duration = 2 * sim::kSecond;

  {
    stats::Table table(
        "M/D/1: fixed 1000 B packets, Poisson arrivals, 1 Gb/s port");
    table.columns({"rho", "sim L (in system)", "M/D/1 L", "sim wait (svc)",
                   "M/D/1 wait", "measured util"});
    for (double rho : {0.1, 0.3, 0.5, 0.7, 0.8, 0.9}) {
      const auto obs = run_port(rho, nullptr, 1000, duration, 42);
      table.row({stats::Table::num(rho, 2),
                 stats::Table::num(obs.mean_in_system, 3),
                 stats::Table::num(stats::md1_mean_in_system(rho), 3),
                 stats::Table::num(obs.mean_wait_units, 3),
                 stats::Table::num(stats::md1_mean_wait_service_units(rho),
                                   3),
                 stats::Table::num(obs.utilization, 3)});
    }
    table.note("paper: at <= 0.7 utilization, mean queue ~ one packet or "
               "less (M/D/1 L(0.7) = 1.52);");
    table.note("paper: mean queuing delay ~ transmission time of half an "
               "average packet (M/D/1 wait(0.5) = 0.5 service times).");
    table.print();
    std::puts("");
  }

  {
    wl::PacketSizeModel sizes;
    sizes.min_bytes = 64;
    sizes.max_bytes = 1500;
    stats::Table table(
        "M/G/1: the paper's packet mix (1/2 min, 1/4 max, 1/4 uniform)");
    table.columns({"rho", "sim L", "sim wait (svc)", "M/G/1 wait",
                   "M/D/1 wait"});
    // Coefficient of variation of the size mix.
    const double mean = sizes.analytic_mean();
    // E[X^2] of the mix for the analytic comparison.
    const double min = 64, max = 1500;
    const double ex2 = 0.5 * min * min + 0.25 * max * max +
                       0.25 * (max * max * max - min * min * min) /
                           (3.0 * (max - min));
    const double cv = std::sqrt(ex2 - mean * mean) / mean;
    for (double rho : {0.3, 0.5, 0.7, 0.9}) {
      const auto obs = run_port(rho, &sizes, 0, duration, 77);
      table.row({stats::Table::num(rho, 2),
                 stats::Table::num(obs.mean_in_system, 3),
                 stats::Table::num(obs.mean_wait_units, 3),
                 stats::Table::num(
                     stats::mg1_mean_wait_service_units(rho, cv), 3),
                 stats::Table::num(stats::md1_mean_wait_service_units(rho),
                                   3)});
    }
    table.note("size variability (cv=" + stats::Table::num(cv, 2) +
               ") inflates waits above M/D/1, per Pollaczek-Khinchine.");
    table.print();
  }
  return 0;
}

// Ablations over the design choices DESIGN.md calls out.
//
//  A1: the switch decision/setup time — the paper claims it "can be made
//      significantly less than a microsecond"; how much does Sirpent's
//      advantage depend on that?
//  A2: feed-forward load information (paper §2.2's exploratory idea) on a
//      two-tier backpressure scenario (run_a2() in paper_results.cpp).
//  A3: VMTP's rate-based pacing inside a packet group vs blasting, into a
//      small downstream buffer (paper §4.3 "rate-based flow control is
//      used between packets within a packet group to avoid overruns").
//  A4: token verification latency under the blocking policy (why the
//      paper prefers optimistic caching).
#include <cstdio>
#include <memory>
#include <optional>

#include "bench_util.hpp"
#include "paper_results.hpp"

namespace srp::bench {
namespace {

// ---------- A1: decision delay ----------
sim::Time a1_delivery(int hops, sim::Time decision_delay) {
  viper::RouterConfig rc;
  rc.decision_delay = decision_delay;
  dir::LinkParams params;  // defaults: 1 Gb/s, 10 us
  auto chain = SirpentChain::make(hops, params, rc);
  sim::Time delivered = -1;
  chain.dst->set_default_handler(
      [&](const viper::Delivery& d) { delivered = d.delivered_at; });
  chain.src->send(chain.route, wire::Bytes(1024, 0));
  chain.sim->run();
  return delivered;
}

// ---------- A3: packet-group pacing ----------
struct A3Result {
  bool completed = false;
  sim::Time rtt = -1;
  int retransmissions = 0;
  std::uint64_t drops = 0;
};

A3Result a3_run(double pacing_bps) {
  sim::Simulator sim;
  dir::Fabric fabric(sim);
  auto& client_host = fabric.add_host("c.a3");
  auto& r1 = fabric.add_router("r1");
  auto& r2 = fabric.add_router("r2");
  auto& server_host = fabric.add_host("s.a3");
  dir::LinkParams fast;
  fast.rate_bps = 1e9;
  dir::LinkParams slow;
  slow.rate_bps = 1e8;  // rate mismatch: r1 must buffer the group
  fabric.connect(client_host, r1, fast);
  fabric.connect(r1, r2, slow);
  fabric.connect(r2, server_host, slow);
  r1.port(2).set_buffer_limit(3'000);  // tiny: a blasted group overruns

  vmtp::VmtpConfig config;
  config.send_rate_bps = pacing_bps;
  config.min_rto = 5 * sim::kMillisecond;
  auto client = std::make_unique<vmtp::VmtpEndpoint>(sim, client_host,
                                                     0xC, config);
  auto server = std::make_unique<vmtp::VmtpEndpoint>(sim, server_host,
                                                     0x5, config);
  server->serve([](std::span<const std::uint8_t>, const viper::Delivery&) {
    return wire::Bytes{1};
  });
  dir::QueryOptions q;
  q.dest_endpoint = 0x5;
  const auto routes =
      fabric.directory().query(fabric.id_of(client_host), "s.a3", q);

  A3Result result;
  client->invoke(routes[0], 0x5, wire::Bytes(12 * 1024, 0x33),
                 [&](vmtp::Result r) {
                   result.completed = r.ok;
                   result.rtt = r.rtt;
                   result.retransmissions = r.retransmissions;
                 });
  sim.run_until(2 * sim::kSecond);
  result.drops = r1.port(2).stats().dropped_full;
  return result;
}

// ---------- A4: blocking-policy verification latency ----------
sim::Time a4_first_packet(sim::Time verify_delay) {
  sim::Simulator sim;
  dir::Fabric fabric(sim);
  auto& src = fabric.add_host("src.a4");
  auto& r1 = fabric.add_router("r1");
  auto& r2 = fabric.add_router("r2");
  auto& dst = fabric.add_host("dst.a4");
  fabric.connect(src, r1);
  fabric.connect(r1, r2);
  fabric.connect(r2, dst);
  fabric.enable_tokens(7, true, tokens::UncachedPolicy::kBlocking,
                       verify_delay);
  const auto routes =
      fabric.directory().query(fabric.id_of(src), "dst.a4", {});
  sim::Time latency = -1;
  dst.set_default_handler([&](const viper::Delivery& d) {
    latency = d.delivered_at - d.sent_at;
  });
  viper::SendOptions options;
  options.out_port = routes[0].host_out_port;
  src.send(routes[0].route, wire::Bytes(500, 0), options);
  sim.run();
  return latency;
}

}  // namespace
}  // namespace srp::bench

int main() {
  using namespace srp;
  using namespace srp::bench;

  std::puts("Ablations over Sirpent design choices");
  std::puts("");

  {
    stats::Table table("A1: switch decision delay vs delivery latency "
                       "(1024 B, 1 Gb/s)");
    table.columns({"decision delay", "4-hop latency (us)",
                   "8-hop latency (us)"});
    for (sim::Time d : {100 * sim::kNanosecond, 500 * sim::kNanosecond,
                        sim::kMicrosecond, 5 * sim::kMicrosecond,
                        20 * sim::kMicrosecond}) {
      table.row({us(d) + " us", us(a1_delivery(4, d)),
                 us(a1_delivery(8, d))});
    }
    table.note("paper: the decision \"can be made significantly less than "
               "a microsecond\"; at 20 us the cut-through advantage over "
               "store-and-forward (~10 us/hop here) is gone.");
    table.print();
    std::puts("");
  }

  std::fputs(render_a2(run_a2()).c_str(), stdout);
  std::puts("");

  {
    stats::Table table("A3: 12 KB packet group into a 3 KB bottleneck "
                       "buffer");
    table.columns({"pacing", "completed", "rtt (ms)", "client retries",
                   "bottleneck drops"});
    for (double bps : {0.0, 2e8, 1e8}) {
      const auto r = a3_run(bps);
      table.row({bps == 0 ? "none (blast)"
                          : stats::Table::num(bps / 1e6, 0) + " Mb/s",
                 r.completed ? "yes" : "no",
                 r.rtt < 0 ? "-" : stats::Table::num(sim::to_millis(r.rtt),
                                                     2),
                 std::to_string(r.retransmissions),
                 std::to_string(r.drops)});
    }
    table.note("paper §4.3: pacing the group at the bottleneck rate avoids "
               "the overrun; blasting loses packets and pays "
               "retransmission timeouts.");
    table.print();
    std::puts("");
  }

  {
    stats::Table table("A4: blocking-policy first-packet latency vs "
                       "verification time");
    table.columns({"verify delay (us)", "first packet (us)"});
    for (sim::Time v : {10 * sim::kMicrosecond, 50 * sim::kMicrosecond,
                        200 * sim::kMicrosecond, sim::kMillisecond}) {
      table.row({us(v), us(a4_first_packet(v))});
    }
    table.note("each of the 2 routers blocks the first packet for the "
               "full verification; optimistic caching makes this cost "
               "vanish (see bench_tokens).");
    table.print();
  }
  return 0;
}

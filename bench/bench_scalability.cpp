// E11 (paper §2.3, "Scalability").
//
// "The size of state required by each Sirpent router is proportional to
// the properties of its direct connections and not the entire
// internetwork, unlike standard IP routing algorithms such as link state
// routing which store the entire internetwork topology. ... the cost of a
// Sirpent router need not increase as the internetwork scales."  And on
// addressing: "with variable-length source routes, there is no limit to
// the number of nodes that can be addressed ... there is no need to
// coordinate the assignment of addresses."
//
// We grow a random internetwork and measure, at a fixed transit router:
//  * Sirpent: bytes of forwarding state (none), token-cache entries
//    (proportional to active flows through it), congestion soft state;
//  * IP: routing-table entries after distance-vector convergence
//    (proportional to the number of hosts in the internetwork);
//  * CVC: circuit-table bytes (proportional to conversations held).
#include <cstdio>

#include "bench_util.hpp"
#include "ip/builder.hpp"
#include "viper/router.hpp"

namespace srp::bench {
namespace {

/// Builds a string-of-pearls internetwork: a transit line of routers, each
/// with `hosts_per_router` stub hosts; returns the IP table size at the
/// middle transit router after DV converges.
std::size_t ip_table_entries(int routers, int hosts_per_router) {
  sim::Simulator sim;
  ip::IpFabric fabric(sim);
  std::vector<ip::IpRouter*> line;
  const net::LinkConfig cfg{1e9, 5 * sim::kMicrosecond, 1500};
  ip::Addr next_addr = 1;
  for (int i = 0; i < routers; ++i) {
    auto& r = fabric.add_router(numbered("r", i),
                                0x0A000000 + static_cast<ip::Addr>(i));
    if (i > 0) fabric.connect(*line.back(), r, cfg);
    line.push_back(&r);
    for (int h = 0; h < hosts_per_router; ++h) {
      auto& host = fabric.add_host(
          numbered("h", i) + "_" + std::to_string(h), next_addr++);
      fabric.connect(host, r, cfg);
    }
  }
  ip::DvConfig dv;
  dv.period = 20 * sim::kMillisecond;
  dv.timeout = 60 * sim::kMillisecond;
  fabric.enable_dv(dv);
  // Let DV flood: updates propagate ~one hop per period along the line.
  sim.run_until(static_cast<sim::Time>(3 * routers + 10) * dv.period);
  return line[static_cast<std::size_t>(routers / 2)]->table().size();
}

/// Sirpent transit router state for the same internetwork: after `flows`
/// distinct token-bearing conversations cross it.
struct SirpentState {
  std::size_t token_cache_entries = 0;
  std::size_t forwarding_entries = 0;  ///< always 0: no tables
};

SirpentState sirpent_state(int routers, int hosts_per_router, int flows) {
  sim::Simulator sim;
  dir::Fabric fabric(sim);
  std::vector<viper::ViperRouter*> line;
  std::vector<viper::ViperHost*> hosts;
  for (int i = 0; i < routers; ++i) {
    auto& r = fabric.add_router(numbered("r", i));
    if (i > 0) fabric.connect(*line.back(), r);
    line.push_back(&r);
    for (int h = 0; h < hosts_per_router; ++h) {
      auto& host = fabric.add_host(numbered("h", i) + "_" +
                                   std::to_string(h) + ".sc");
      fabric.connect(host, r);
      hosts.push_back(&host);
    }
  }
  fabric.enable_tokens(9, true, tokens::UncachedPolicy::kOptimistic,
                       10 * sim::kMicrosecond);

  // `flows` conversations from first-router hosts to last-router hosts —
  // all crossing the middle transit router.
  sim::Rng rng(5);
  int sent = 0;
  for (int f = 0; f < flows; ++f) {
    viper::ViperHost* src =
        hosts[rng.uniform_int(0, static_cast<std::uint64_t>(
                                     hosts_per_router - 1))];
    const auto dst_index =
        hosts.size() - 1 -
        rng.uniform_int(0, static_cast<std::uint64_t>(hosts_per_router - 1));
    viper::ViperHost* dst = hosts[dst_index];
    const auto routes = fabric.directory().query(
        fabric.id_of(*src), std::string(dst->name()), {});
    if (routes.empty()) continue;
    viper::SendOptions options;
    options.out_port = routes[0].host_out_port;
    src->send(routes[0].route, wire::Bytes(200, 0x22), options);
    ++sent;
  }
  sim.run();
  (void)sent;
  SirpentState state;
  state.token_cache_entries =
      line[static_cast<std::size_t>(routers / 2)]->token_cache().size();
  return state;
}

}  // namespace
}  // namespace srp::bench

int main() {
  using namespace srp;
  using namespace srp::bench;

  std::puts("E11 / paper §2.3 — per-router state vs internetwork size "
            "(middle transit router of a line topology)");
  std::puts("");

  {
    stats::Table table(
        "state at one transit router as the internetwork grows");
    table.columns({"routers x hosts", "total hosts",
                   "ip table entries (DV)", "sirpent fwd entries",
                   "sirpent token entries (20 active flows)"});
    for (int routers : {4, 8, 16, 32}) {
      const int hosts_per_router = 4;
      const std::size_t ip_entries =
          ip_table_entries(routers, hosts_per_router);
      const SirpentState sirpent =
          sirpent_state(routers, hosts_per_router, 20);
      table.row({std::to_string(routers) + " x " +
                     std::to_string(hosts_per_router),
                 std::to_string(routers * hosts_per_router),
                 std::to_string(ip_entries),
                 std::to_string(sirpent.forwarding_entries),
                 std::to_string(sirpent.token_cache_entries)});
    }
    table.note("paper: IP-style routing state grows with the internetwork "
               "(every host needs a table entry); Sirpent keeps NO "
               "forwarding tables —");
    table.note("note the 32-router row: hosts beyond RIP's 15-hop "
               "'infinity' become unreachable entirely — a second scaling "
               "failure of the distributed-routing baseline.");
    table.note("its only per-router state (token cache, congestion soft "
               "state, buffers) tracks *local* activity, \"related to the "
               "delay-bandwidth of its links\".");
    table.print();
    std::puts("");
  }

  {
    // Addressing headroom: the paper's 2^88-endpoints observation.
    stats::Table table("address space: no coordination needed");
    table.columns({"quantity", "value"});
    table.row({"ports per switch", "255"});
    table.row({"max header segments", "48"});
    table.row({"addressable endpoints (255^47 paths)", "~2^376"});
    table.row({"bytes for a 48-hop p2p route", "192"});
    table.note("paper: \"the addresses are purely a result of the "
               "internetwork topology and port assignments within each "
               "switch, which can be arbitrary.\"");
    table.print();
    std::puts("");
  }

  return 0;
}

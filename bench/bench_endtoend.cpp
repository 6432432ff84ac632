// E8 (headline comparison, paper §1/§6).
//
// "Using these techniques, we conjecture that Sirpent can provide better
// performance than competing and established internetwork architectures."
//
// Transactional (request/response) and bulk workloads across hop counts:
//   * Sirpent: VMTP over VIPER source routes (cut-through),
//   * IP: the same request/response over the datagram baseline,
//   * CVC: cold (setup + request + response + release, the paper's
//     short-lived transactional connection) and warm (circuit held open).
//
// Expected shape: Sirpent wins everywhere; CVC-cold is worst for
// transactions (setup round trip dominates) but approaches Sirpent for
// bulk once the setup cost amortizes; IP sits between, degrading with
// hops because every packet pays store-and-forward + processing.
#include <cstdio>
#include <memory>
#include <optional>

#include "bench_util.hpp"
#include "directory/remote.hpp"

namespace srp::bench {
namespace {

constexpr double kRate = 1e9;
constexpr sim::Time kProp = 10 * sim::kMicrosecond;

/// Sirpent: full VMTP transaction (request of req_bytes, response of
/// resp_bytes), returns completion time.
sim::Time run_sirpent(int hops, std::size_t req_bytes,
                      std::size_t resp_bytes) {
  dir::LinkParams params;
  params.rate_bps = kRate;
  params.prop_delay = kProp;
  auto chain = SirpentChain::make(hops, params);
  auto& sim = *chain.sim;
  vmtp::VmtpConfig config;
  auto client =
      std::make_unique<vmtp::VmtpEndpoint>(sim, *chain.src, 0xC1, config);
  auto server =
      std::make_unique<vmtp::VmtpEndpoint>(sim, *chain.dst, 0x5E, config);
  server->serve([resp_bytes](std::span<const std::uint8_t>,
                             const viper::Delivery&) {
    return wire::Bytes(resp_bytes, 0x77);
  });
  dir::IssuedRoute route;
  route.route = chain.route;
  route.route.segments.back().port_info = viper::encode_endpoint_id(0x5E);
  route.route.segments.back().flags.vnt = false;
  sim::Time done = -1;
  client->invoke(route, 0x5E, wire::Bytes(req_bytes, 0x11),
                 [&](vmtp::Result r) {
                   if (r.ok) done = sim.now();
                 });
  sim.run();
  return done;
}

/// IP: request datagram + response datagram (no retransmission layer so
/// the comparison isolates the forwarding plane).
sim::Time run_ip(int hops, std::size_t req_bytes, std::size_t resp_bytes) {
  const net::LinkConfig link{kRate, kProp, 1500};
  auto chain = IpChain::make(hops, link);
  auto& sim = *chain.sim;
  chain.dst->set_handler([&](const ip::IpHeader& h, wire::Bytes) {
    // Bulk requests arrive as several datagrams; respond to the last one.
    chain.dst->send(h.src, ip::kProtoVmtp,
                    wire::Bytes(std::min<std::size_t>(resp_bytes, 1400),
                                0x77));
  });
  sim::Time done = -1;
  chain.src->set_handler(
      [&](const ip::IpHeader&, wire::Bytes) { done = sim.now(); });
  // Send the request as 1 KB datagrams like the VMTP segmentation does.
  std::size_t remaining = req_bytes;
  while (true) {
    const std::size_t piece = std::min<std::size_t>(remaining, 1024);
    chain.src->send(IpChain::kDst, ip::kProtoVmtp,
                    wire::Bytes(piece, 0x11));
    if (remaining <= 1024) break;
    remaining -= piece;
  }
  sim.run();
  return done;
}

struct CvcTxn {
  sim::Time cold = -1;  ///< setup + request + response
  sim::Time warm = -1;  ///< request + response on an open circuit
};

CvcTxn run_cvc(int hops, std::size_t req_bytes, std::size_t resp_bytes) {
  const net::LinkConfig link{kRate, kProp, 1500};
  auto chain = CvcChain::make(hops, link);
  auto& sim = *chain.sim;
  CvcTxn result;

  std::optional<std::uint16_t> circuit;
  std::uint16_t server_circuit = 0;
  chain.dst->set_accept_handler(
      [&](std::uint16_t c) { server_circuit = c; });
  std::size_t request_seen = 0;
  chain.dst->set_data_handler([&](std::uint16_t, wire::Bytes d) {
    request_seen += d.size();
    if (request_seen >= req_bytes) {
      request_seen = 0;
      std::size_t remaining = resp_bytes;
      while (true) {
        const std::size_t piece = std::min<std::size_t>(remaining, 1024);
        chain.dst->send(server_circuit, wire::Bytes(piece, 0x77));
        if (remaining <= 1024) break;
        remaining -= piece;
      }
    }
  });

  std::size_t response_seen = 0;
  sim::Time txn_started = 0;
  int phase = 0;  // 0 = cold txn, 1 = warm txn
  auto send_request = [&] {
    std::size_t remaining = req_bytes;
    while (true) {
      const std::size_t piece = std::min<std::size_t>(remaining, 1024);
      chain.src->send(*circuit, wire::Bytes(piece, 0x11));
      if (remaining <= 1024) break;
      remaining -= piece;
    }
  };
  chain.src->set_data_handler([&](std::uint16_t, wire::Bytes d) {
    response_seen += d.size();
    if (response_seen < resp_bytes) return;
    response_seen = 0;
    if (phase == 0) {
      result.cold = sim.now();  // measured from t=0 (setup included)
      phase = 1;
      txn_started = sim.now();
      send_request();
    } else if (result.warm < 0) {
      result.warm = sim.now() - txn_started;
    }
  });

  chain.src->open(chain.setup_route, [&](auto c) {
    circuit = c;
    if (circuit.has_value()) send_request();
  });
  sim.run();
  return result;
}

/// Cold start with a *networked* directory (paper footnote 10): the
/// client must first acquire the route from its region server — one
/// round trip — before the transaction itself.  Returns (query RTT,
/// total time to first completed transaction).
std::pair<sim::Time, sim::Time> run_sirpent_cold(int hops) {
  dir::LinkParams params;
  params.rate_bps = kRate;
  params.prop_delay = kProp;
  sim::Simulator sim;
  dir::Fabric fabric(sim);
  auto& client_host = fabric.add_host("c.cold");
  net::PortedNode* prev = &client_host;
  viper::ViperRouter* first_router = nullptr;
  for (int i = 0; i < hops; ++i) {
    auto& r = fabric.add_router(numbered("r", i));
    fabric.connect(*prev, r, params);
    if (i == 0) first_router = &r;
    prev = &r;
  }
  auto& server_host = fabric.add_host("s.cold");
  fabric.connect(*prev, server_host, params);
  // Region server one hop from the client (a nearby resolver).
  auto& dir_host = fabric.add_host("d.cold");
  fabric.connect(*first_router, dir_host, params);

  dir::Directory& directory = fabric.directory();
  auto server_node = std::make_unique<dir::DirectoryServerNode>(
      sim, dir_host, directory);
  dir::QueryOptions boot;
  boot.dest_endpoint = dir::kDirectoryEntity;
  const auto boot_routes =
      directory.query(fabric.id_of(client_host), "d.cold", boot);
  dir::RemoteDirectoryClient remote(sim, client_host,
                                    fabric.id_of(client_host),
                                    boot_routes.front(), 0xCCCC);

  vmtp::VmtpConfig config;
  auto client = std::make_unique<vmtp::VmtpEndpoint>(sim, client_host,
                                                     0xC1, config);
  auto server = std::make_unique<vmtp::VmtpEndpoint>(sim, server_host,
                                                     0x5E, config);
  server->serve([](std::span<const std::uint8_t>, const viper::Delivery&) {
    return wire::Bytes(64, 0x77);
  });

  sim::Time query_rtt = -1;
  sim::Time done = -1;
  dir::QueryOptions q;
  q.dest_endpoint = 0x5E;
  remote.query("s.cold", q, [&](std::vector<dir::IssuedRoute> routes,
                                sim::Time rtt) {
    query_rtt = rtt;
    if (routes.empty()) return;
    client->invoke(routes.front(), 0x5E, wire::Bytes(64, 0x11),
                   [&](vmtp::Result r) {
                     if (r.ok) done = sim.now();
                   });
  });
  sim.run();
  return {query_rtt, done};
}

}  // namespace
}  // namespace srp::bench

int main() {
  using namespace srp;
  using namespace srp::bench;

  std::puts("E8 / headline — end-to-end response time: Sirpent vs IP vs "
            "CVC (1 Gb/s links, 10 us propagation)");
  std::puts("");

  struct Workload {
    const char* name;
    std::size_t request;
    std::size_t response;
  };
  const Workload workloads[] = {
      {"transaction 64 B -> 64 B", 64, 64},
      {"transaction 64 B -> 1 KB", 64, 1024},
      {"bulk 8 KB -> 64 B ack", 8 * 1024, 64},
  };

  for (const auto& w : workloads) {
    stats::Table table(std::string("round-trip completion (us): ") +
                       w.name);
    table.columns({"hops", "sirpent", "ip", "cvc cold", "cvc warm",
                   "cvc-cold/sirpent"});
    for (int hops : {1, 2, 4, 8}) {
      const sim::Time s = run_sirpent(hops, w.request, w.response);
      const sim::Time i = run_ip(hops, w.request, w.response);
      const CvcTxn c = run_cvc(hops, w.request, w.response);
      table.row({std::to_string(hops), us(s), us(i), us(c.cold),
                 us(c.warm),
                 stats::Table::num(static_cast<double>(c.cold) /
                                       static_cast<double>(s), 1)});
    }
    table.note("paper: transactional traffic makes \"logical connections "
               "even shorter\" — CVC pays its setup round trip per "
               "transaction;");
    table.note("IP pays store-and-forward + per-packet processing per "
               "hop; Sirpent pays only cut-through decisions.");
    table.print();
    std::puts("");
  }

  {
    // Footnote 10: "without caching, the time to acquire the route incurs
    // a similar round trip delay to that incurred by circuit setup".
    stats::Table table("true cold start: networked route acquisition vs "
                       "CVC circuit setup (64 B transaction)");
    table.columns({"hops", "route query rtt", "sirpent cold total",
                   "cvc cold total", "sirpent warm"});
    for (int hops : {1, 2, 4, 8}) {
      const auto [query_rtt, cold_total] = run_sirpent_cold(hops);
      const CvcTxn c = run_cvc(hops, 64, 64);
      const sim::Time warm = run_sirpent(hops, 64, 64);
      table.row({std::to_string(hops), us(query_rtt), us(cold_total),
                 us(c.cold), us(warm)});
    }
    table.note("the query costs one RTT to the nearby region server — "
               "cheap because the resolver is close and answered in one "
               "exchange, and it amortizes over every later transaction "
               "via the client cache;");
    table.note("CVC pays per-switch call processing along the whole path "
               "for every cold circuit.");
    table.print();
  }
  return 0;
}

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
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>

#include "bench_util.hpp"
#include "core/multicast.hpp"
#include "core/tos.hpp"
#include "ip/builder.hpp"
#include "reference_forward.hpp"
#include "viper/codec.hpp"
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
    auto& r = fabric.add_router("r" + std::to_string(i),
                                0x0A000000 + static_cast<ip::Addr>(i));
    if (i > 0) fabric.connect(*line.back(), r, cfg);
    line.push_back(&r);
    for (int h = 0; h < hosts_per_router; ++h) {
      auto& host = fabric.add_host(
          "h" + std::to_string(i) + "_" + std::to_string(h), next_addr++);
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
    auto& r = fabric.add_router("r" + std::to_string(i));
    if (i > 0) fabric.connect(*line.back(), r);
    line.push_back(&r);
    for (int h = 0; h < hosts_per_router; ++h) {
      auto& host = fabric.add_host("h" + std::to_string(i) + "_" +
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

// ---------------------------------------------------------------------------
// Forwarding engine throughput (DESIGN.md §11).
//
// In-simulation batching cannot reduce the number of *arrival* events —
// packets arrive when the wire delivers them — so the honest measure of
// the zero-copy engine is wall-clock cost per packet of the forwarding
// engine itself.  Mode kReference dispatches one simulator event per
// packet into the router's per-packet pipeline as it was before the
// zero-copy path: the copy-decode reference rewrite (decode with field
// copies, Writer-based rewrite, derive(); tests/reference_forward.hpp)
// wrapped in the same arrival count, dispatch checks, token decision,
// cut-through timing, next-hop peek and enqueue (reference_hop below).
// Mode kBatched dispatches one event per 64-packet burst into
// forward_burst (view decode, arena slabs, in-place rewrite).  Mode
// kPerPacket is the shipped engine as the simulator drives it: one event
// per packet into on_arrival, the same zero-copy rewrite.  All run with
// the output port administratively down — the drop happens after the
// entire forward pipeline, and no link machinery runs — and with tokens
// and observability off, so the difference is purely the engine.

enum class Engine { kReference, kPerPacket, kBatched };

/// What reference_hop counts, as the router's Stats did.
struct ReferenceCounters {
  std::uint64_t received = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t dropped = 0;
  std::uint64_t next_port_sum = 0;  ///< keeps the next-hop peek live
};

/// Mode kReference's per-packet work: ViperRouter's pipeline before its
/// zero-copy data path, for the case this bench drives (point-to-point
/// egress; token enforcement, telemetry and observability off).  Only the
/// decode and the rewrite come from the oracle; the rest is what the old
/// on_arrival → handle_packet → forward chain paid around them.
void reference_hop(viper::ViperRouter& router, const net::Arrival& arrival,
                   ReferenceCounters& counters) {
  ++counters.received;
  arrival.packet->last_in_port = arrival.in_port;
  const wire::Bytes& bytes = arrival.packet->bytes;
  test::ReferenceHop hop;
  hop.in_port = arrival.in_port;
  hop.link_in = router.port_kind(arrival.in_port) == viper::PortKind::kLan;
  test::ReferenceFront front;
  try {
    front = test::reference_front(bytes, hop.link_in);
  } catch (const wire::CodecError&) {
    ++counters.dropped;
    return;
  }
  const core::HeaderSegment& seg = front.segment;
  if (!seg.is_legal() || seg.port == core::kLocalPort ||
      core::is_tree_info(seg.port_info) || seg.port > router.port_count()) {
    ++counters.dropped;
    return;
  }
  net::TxPort& out = router.port(seg.port);
  // Token enforcement off: a supplied token is echoed into the trailer.
  hop.token_reversible = !seg.token.empty();
  hop.link_out = router.port_kind(seg.port) == viper::PortKind::kLan;
  hop.mtu = out.config().mtu_bytes;
  // Cut-through timing (§2.1), as ViperRouter::forward_timing computes it.
  const viper::RouterConfig& config = router.config();
  const sim::Time decision =
      config.cut_through && arrival.rate_bps == out.config().rate_bps
          ? arrival.head + sim::byte_time(front.consumed, arrival.rate_bps)
          : arrival.tail + config.store_forward_proc;
  counters.next_port_sum += viper::peek_next_port(bytes, front.consumed);
  net::PacketPtr derived =
      test::reference_forward(*arrival.packet, bytes, front, hop);
  const net::TxMeta meta{core::priority_rank(seg.tos.priority),
                         core::priority_preempts(seg.tos.priority),
                         seg.tos.drop_if_blocked};
  ++counters.forwarded;
  out.enqueue(std::move(derived), meta, decision + config.decision_delay);
}

/// One standalone router with a down egress, fed @p n ~256-byte packets
/// through @p engine (bursts of @p burst for kBatched); returns
/// wall-clock ns per packet.
double engine_ns_per_packet(std::size_t n, Engine engine,
                            std::size_t burst = 64) {
  sim::Simulator sim;
  viper::ViperRouter router(sim, "r.engine", {});
  const net::LinkConfig link;
  router.add_port(link);         // port 1: ingress
  router.add_port(link);         // port 2: egress, down
  router.port(2).set_up(false);
  if (engine == Engine::kBatched) {
    viper::ViperRouter::BatchConfig batch;
    batch.max_burst = burst;
    router.set_batching(batch);
  }

  core::SourceRoute route;
  core::HeaderSegment hop;
  hop.port = 2;
  hop.flags.vnt = true;
  route.segments.push_back(hop);
  core::HeaderSegment local;
  local.port = core::kLocalPort;
  local.flags.vnt = true;
  route.segments.push_back(local);

  net::PacketFactory packets;
  net::PacketPtr packet =
      packets.make(viper::encode_packet(route, wire::Bytes(256, 0x5C)), 0);

  // Pre-build every arrival, then load the event queue with the pending
  // arrival schedule and time sim.run().  The timed region is activation
  // + forwarding: the per-packet engines need one scheduler entry and one
  // dispatch per packet, the run-to-completion plane one per burst — a
  // 64x smaller event queue for the same workload.  That amortization is
  // part of the batched design ("routers dequeue a vector of packets per
  // sim event"), so it belongs inside the measurement; the engines' pure
  // per-packet cost difference (view decode + arena slab vs field-copy
  // decode + Writer + derive) rides on top of it.
  std::vector<net::Arrival> arrivals(n);
  for (std::size_t i = 0; i < n; ++i) {
    arrivals[i].packet = packet;
    arrivals[i].in_port = 1;
    arrivals[i].head = static_cast<sim::Time>(i + 1);
    arrivals[i].tail = static_cast<sim::Time>(i + 1 + 2048);
    arrivals[i].rate_bps = link.rate_bps;
  }
  ReferenceCounters reference;
  switch (engine) {
    case Engine::kReference:
      for (std::size_t i = 0; i < n; ++i) {
        sim.at(static_cast<sim::Time>(i + 1),
               [&router, &arrivals, &reference, i] {
                 reference_hop(router, arrivals[i], reference);
               });
      }
      break;
    case Engine::kPerPacket:
      for (std::size_t i = 0; i < n; ++i) {
        sim.at(static_cast<sim::Time>(i + 1),
               [&router, &arrivals, i] { router.on_arrival(arrivals[i]); });
      }
      break;
    case Engine::kBatched:
      for (std::size_t i = 0; i < n; i += burst) {
        const std::size_t len = std::min(burst, n - i);
        sim.at(static_cast<sim::Time>(i + 1), [&router, &arrivals, i, len] {
          router.forward_burst({arrivals.data() + i, len});
        });
      }
      break;
  }

  const auto t0 = std::chrono::steady_clock::now();
  sim.run();
  const auto t1 = std::chrono::steady_clock::now();
  // Bench self-check: every packet went through the whole pipeline.
  if (router.port(2).stats().dropped_down != n) std::abort();
  if (engine == Engine::kReference && reference.forwarded != n) std::abort();
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                 .count()) /
         static_cast<double>(n);
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

  {
    // E-BD: the zero-copy engine vs the copy-decode reference.
    constexpr std::size_t kWarmup = 20'000;
    constexpr std::size_t kPackets = 200'000;
    constexpr std::size_t kBurst = 64;
    for (const Engine engine :
         {Engine::kReference, Engine::kPerPacket, Engine::kBatched}) {
      (void)engine_ns_per_packet(kWarmup, engine, kBurst);  // warm up
    }
    // Min over repetitions: scheduler preemption and frequency noise only
    // ever inflate a wall-clock measurement, so the minimum is the best
    // estimate of the true engine cost for every mode.
    const auto best_of = [](Engine engine) {
      double best = engine_ns_per_packet(kPackets, engine, kBurst);
      for (int rep = 1; rep < 3; ++rep) {
        best = std::min(best, engine_ns_per_packet(kPackets, engine, kBurst));
      }
      return best;
    };
    const double reference = best_of(Engine::kReference);
    const double per_packet = best_of(Engine::kPerPacket);
    const double batched = best_of(Engine::kBatched);
    const double speedup = reference / batched;

    stats::Table table("E-BD: forwarding engine throughput, copy-decode "
                       "reference vs zero-copy (256 B packets, one-hop "
                       "route)");
    table.columns({"engine", "ns/packet", "packets/sec/router"});
    char buf[64];
    const auto row = [&](const std::string& engine, double ns) {
      std::snprintf(buf, sizeof buf, "%.1f", ns);
      table.row({engine, buf,
                 std::to_string(static_cast<std::uint64_t>(1e9 / ns))});
    };
    row("copy-decode reference (event per packet)", reference);
    row("zero-copy, shipped (event per packet)", per_packet);
    row("zero-copy, coalesced x" + std::to_string(kBurst) +
            " (event per burst)",
        batched);
    std::snprintf(buf, sizeof buf, "%.2fx", speedup);
    table.row({"speedup (reference / coalesced)", buf, ""});
    table.note("zero-copy: view-based segment decode, slab-recycled "
               "derived packets, in-place rewrite; the reference is the "
               "old per-packet pipeline around tests/reference_forward.hpp, "
               "whose rewrite forward_oracle_test pins equal.");
    table.print();
    // Machine-readable gate line (scripts/check_batch_speedup.py).
    std::printf("BATCH_GATE per_packet_ns=%.1f batched_ns=%.1f "
                "speedup=%.2f\n",
                reference, batched, speedup);
  }
  return 0;
}

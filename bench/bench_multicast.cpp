// E9 (paper §2, multicast mechanisms).
//
// "Multicast can be supported in Sirpent by three mechanisms": reserved
// multi-port values, tree-structured routes (Blazenet style), and
// multicast agents that "explode" the packet.
//
// Star-of-stars topology: source -> core router -> 4 edge routers -> 4
// members each (16 members).  We compare the three mechanisms plus naive
// unicast on delivery latency (first/last member) and total link
// transmissions (how much bandwidth the mechanism burns).
#include <cstdio>
#include <map>
#include <memory>
#include <optional>

#include "bench_util.hpp"
#include "core/multicast.hpp"

namespace srp::bench {
namespace {

constexpr int kEdges = 4;
constexpr int kMembersPerEdge = 4;
constexpr std::size_t kPayload = 500;

struct Net {
  sim::Simulator sim;
  std::unique_ptr<dir::Fabric> fabric;
  viper::ViperHost* src = nullptr;
  viper::ViperRouter* core = nullptr;
  std::vector<viper::ViperRouter*> edges;
  std::vector<viper::ViperHost*> members;
  viper::ViperHost* agent_host = nullptr;  ///< attached at the core

  Net() {
    fabric = std::make_unique<dir::Fabric>(sim);
    src = &fabric->add_host("src.bench");
    core = &fabric->add_router("core");
    fabric->connect(*src, *core);  // core port 1
    for (int e = 0; e < kEdges; ++e) {
      auto& edge = fabric->add_router("edge" + std::to_string(e));
      fabric->connect(*core, edge);  // core ports 2..5, edge port 1 up
      edges.push_back(&edge);
      for (int m = 0; m < kMembersPerEdge; ++m) {
        auto& h = fabric->add_host(numbered("m", e) + "_" +
                                   std::to_string(m) + ".bench");
        fabric->connect(edge, h);  // edge ports 2..5
        members.push_back(&h);
      }
    }
    agent_host = &fabric->add_host("agent.bench");
    fabric->connect(*core, *agent_host);  // core port 6
  }

  /// Unicast route from src to member (e, m).
  core::SourceRoute unicast_route(int e, int m) const {
    core::SourceRoute route;
    core::HeaderSegment core_hop;
    core_hop.port = static_cast<std::uint8_t>(2 + e);
    core_hop.flags.vnt = true;
    core::HeaderSegment edge_hop;
    edge_hop.port = static_cast<std::uint8_t>(2 + m);
    edge_hop.flags.vnt = true;
    core::HeaderSegment local;
    local.port = core::kLocalPort;
    local.flags.vnt = true;
    route.segments = {core_hop, edge_hop, local};
    return route;
  }

  std::uint64_t total_transmissions() const {
    std::uint64_t total = src->port(1).stats().sent;
    auto count = [&](const net::PortedNode& n) {
      std::uint64_t sum = 0;
      for (int p = 1; p <= n.port_count(); ++p) {
        sum += n.port(p).stats().sent;
      }
      return sum;
    };
    total += count(*core);
    for (auto* e : edges) total += count(*e);
    total += count(*agent_host);
    return total;
  }
};

struct McResult {
  int delivered = 0;
  sim::Time first = -1;
  sim::Time last = -1;
  std::uint64_t transmissions = 0;
};

McResult measure(Net& net, const std::function<void()>& send) {
  McResult result;
  for (auto* member : net.members) {
    member->set_default_handler([&](const viper::Delivery& d) {
      ++result.delivered;
      if (result.first < 0) result.first = d.delivered_at;
      result.last = d.delivered_at;
    });
  }
  send();
  net.sim.run();
  result.transmissions = net.total_transmissions();
  return result;
}

McResult run_unicast() {
  Net net;
  return measure(net, [&] {
    for (int e = 0; e < kEdges; ++e) {
      for (int m = 0; m < kMembersPerEdge; ++m) {
        net.src->send(net.unicast_route(e, m),
                      wire::Bytes(kPayload, 0xAB));
      }
    }
  });
}

McResult run_fanout_ports() {
  Net net;
  // Mechanism 1: reserved multi-port values at both levels.
  net.core->define_logical_port(
      200, viper::LogicalPort{viper::LogicalPort::Kind::kFanout,
                              {2, 3, 4, 5}});
  for (auto* edge : net.edges) {
    edge->define_logical_port(
        201, viper::LogicalPort{viper::LogicalPort::Kind::kFanout,
                                {2, 3, 4, 5}});
  }
  return measure(net, [&] {
    core::SourceRoute route;
    core::HeaderSegment core_hop;
    core_hop.port = 200;
    core_hop.flags.vnt = true;
    core::HeaderSegment edge_hop;
    edge_hop.port = 201;
    edge_hop.flags.vnt = true;
    core::HeaderSegment local;
    local.port = core::kLocalPort;
    local.flags.vnt = true;
    route.segments = {core_hop, edge_hop, local};
    net.src->send(route, wire::Bytes(kPayload, 0xAB));
  });
}

McResult run_tree() {
  Net net;
  return measure(net, [&] {
    // Mechanism 2: one tree segment at the core; each branch is the full
    // continuation toward one edge router's members (a nested tree at the
    // edge would also work; here each edge branch fans to its 4 members
    // via 4 sub-branches).
    std::vector<wire::Bytes> edge_branches;
    for (int e = 0; e < kEdges; ++e) {
      // Branch for edge e: a segment whose portInfo is itself a tree for
      // the members.
      std::vector<wire::Bytes> member_branches;
      for (int m = 0; m < kMembersPerEdge; ++m) {
        core::SourceRoute leaf;
        core::HeaderSegment hop;
        hop.port = static_cast<std::uint8_t>(2 + m);
        hop.flags.vnt = true;
        core::HeaderSegment local;
        local.port = core::kLocalPort;
        local.flags.vnt = true;
        leaf.segments = {hop, local};
        member_branches.push_back(viper::encode_route(leaf));
      }
      core::SourceRoute branch;
      core::HeaderSegment to_edge;
      to_edge.port = static_cast<std::uint8_t>(2 + e);
      to_edge.flags.vnt = true;
      core::HeaderSegment tree_at_edge;
      tree_at_edge.port = 1;  // ignored: tree info takes over
      tree_at_edge.port_info = core::encode_tree_info(member_branches);
      branch.segments = {to_edge, tree_at_edge};
      edge_branches.push_back(viper::encode_route(branch));
    }
    core::HeaderSegment root;
    root.port = 1;  // ignored
    root.port_info = core::encode_tree_info(edge_branches);
    core::SourceRoute route;
    route.segments = {root};
    net.src->send(route, wire::Bytes(kPayload, 0xAB));
  });
}

McResult run_agent() {
  Net net;
  // Mechanism 3: a multicast agent near the core explodes the packet.
  constexpr std::uint64_t kAgentEndpoint = 0xA6E47;
  net.agent_host->bind(kAgentEndpoint, [&](const viper::Delivery& d) {
    const std::optional<core::AgentPayload> payload =
        core::decode_agent_payload(d.data);
    if (!payload) return;
    for (const auto& blob : payload->member_routes) {
      wire::Reader r(blob);
      core::SourceRoute route;
      route.segments = viper::decode_segments(r);
      net.agent_host->send(route, payload->data);
    }
  });
  return measure(net, [&] {
    core::AgentPayload payload;
    payload.data = wire::Bytes(kPayload, 0xAB);
    for (int e = 0; e < kEdges; ++e) {
      for (int m = 0; m < kMembersPerEdge; ++m) {
        // Routes from the *agent*: back to core (port 1), then as usual.
        core::SourceRoute route;
        core::HeaderSegment core_hop;
        core_hop.port = static_cast<std::uint8_t>(2 + e);
        core_hop.flags.vnt = true;
        core::HeaderSegment edge_hop;
        edge_hop.port = static_cast<std::uint8_t>(2 + m);
        edge_hop.flags.vnt = true;
        core::HeaderSegment local;
        local.port = core::kLocalPort;
        local.flags.vnt = true;
        route.segments = {core_hop, edge_hop, local};
        payload.member_routes.push_back(viper::encode_route(route));
      }
    }
    // Route to the agent itself.
    core::SourceRoute to_agent;
    core::HeaderSegment hop;
    hop.port = 6;
    hop.flags.vnt = true;
    core::HeaderSegment local;
    local.port = core::kLocalPort;
    local.port_info = viper::encode_endpoint_id(kAgentEndpoint);
    to_agent.segments = {hop, local};
    net.src->send(to_agent, core::encode_agent_payload(payload));
  });
}

}  // namespace
}  // namespace srp::bench

int main() {
  using namespace srp;
  using namespace srp::bench;

  std::puts("E9 / paper §2 — the three multicast mechanisms "
            "(16 members behind 4 edge routers, 500 B payload)");
  std::puts("");

  stats::Table table("multicast delivery, one packet to 16 members");
  table.columns({"mechanism", "delivered", "first (us)", "last (us)",
                 "link transmissions"});
  auto add = [&](const char* name, const McResult& r) {
    table.row({name, std::to_string(r.delivered), us(r.first), us(r.last),
               std::to_string(r.transmissions)});
  };
  add("unicast x16 (baseline)", run_unicast());
  add("multi-port values (mech 1)", run_fanout_ports());
  add("tree-structured route (mech 2)", run_tree());
  add("multicast agent (mech 3)", run_agent());
  table.note("paper: multi-port and tree mechanisms duplicate inside the "
             "network (21 transmissions: 1 + 4 + 16);");
  table.note("the agent ships the full member list to one host first, "
             "adding a detour and per-member route bytes;");
  table.note("unicast sends 16 copies over the source link (48 "
             "transmissions) and serializes them there.");
  table.print();
  return 0;
}

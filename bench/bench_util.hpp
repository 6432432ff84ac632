// Shared topology builders and measurement helpers for the experiment
// benches.  Each bench regenerates one table/figure from the paper's
// evaluation (see DESIGN.md §3 for the experiment index).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cvc/host.hpp"
#include "cvc/switch.hpp"
#include "directory/fabric.hpp"
#include "ip/builder.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"
#include "transport/vmtp.hpp"
#include "viper/host.hpp"
#include "viper/router.hpp"
#include "workload/sizes.hpp"
#include "workload/sources.hpp"

namespace srp::bench {

/// "<prefix><i>" ("r3"), built by appending: GCC 12 at -O3 reports a
/// false -Wrestrict on `"r" + std::to_string(i)`, which stops a strict
/// Release build.
inline std::string numbered(std::string_view prefix, int i) {
  std::string name(prefix);
  name += std::to_string(i);
  return name;
}

/// A linear Sirpent internetwork: src -- r1 -- ... -- rN -- dst.
struct SirpentChain {
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<dir::Fabric> fabric;
  viper::ViperHost* src = nullptr;
  viper::ViperHost* dst = nullptr;
  std::vector<viper::ViperRouter*> routers;
  core::SourceRoute route;  ///< src -> dst (port 2 at every router)

  static SirpentChain make(int hops, const dir::LinkParams& params,
                           viper::RouterConfig router_config = {}) {
    SirpentChain chain;
    chain.sim = std::make_unique<sim::Simulator>();
    chain.fabric = std::make_unique<dir::Fabric>(*chain.sim);
    chain.src = &chain.fabric->add_host("src.bench");
    net::PortedNode* prev = chain.src;
    for (int i = 0; i < hops; ++i) {
      auto& r = chain.fabric->add_router(numbered("r", i), router_config);
      chain.fabric->connect(*prev, r, params);
      chain.routers.push_back(&r);
      prev = &r;
    }
    chain.dst = &chain.fabric->add_host("dst.bench");
    chain.fabric->connect(*prev, *chain.dst, params);
    for (int i = 0; i < hops; ++i) {
      core::HeaderSegment seg;
      seg.port = 2;  // every router: port 1 upstream, port 2 downstream
      seg.flags.vnt = true;
      chain.route.segments.push_back(seg);
    }
    core::HeaderSegment local;
    local.port = core::kLocalPort;
    local.flags.vnt = true;
    chain.route.segments.push_back(local);
    return chain;
  }
};

/// A linear IP internetwork with converged routing tables.
struct IpChain {
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<ip::IpFabric> fabric;
  ip::IpHost* src = nullptr;
  ip::IpHost* dst = nullptr;
  std::vector<ip::IpRouter*> routers;

  static constexpr ip::Addr kSrc = 0x0A000001;
  static constexpr ip::Addr kDst = 0x0A000002;

  static IpChain make(int hops, const net::LinkConfig& link,
                      ip::IpRouterConfig router_config = {}) {
    IpChain chain;
    chain.sim = std::make_unique<sim::Simulator>();
    chain.fabric = std::make_unique<ip::IpFabric>(*chain.sim);
    chain.src = &chain.fabric->add_host("src", kSrc);
    net::PortedNode* prev = chain.src;
    for (int i = 0; i < hops; ++i) {
      auto& r = chain.fabric->add_router(
          numbered("r", i),
          0x0A0000F0 + static_cast<ip::Addr>(i), router_config);
      chain.fabric->connect(*prev, r, link);
      chain.routers.push_back(&r);
      prev = &r;
    }
    chain.dst = &chain.fabric->add_host("dst", kDst);
    chain.fabric->connect(*prev, *chain.dst, link);
    // Static routes along the line (we measure forwarding, not routing).
    for (std::size_t i = 0; i < chain.routers.size(); ++i) {
      chain.routers[i]->table()[kDst] =
          ip::RouteEntry{2, static_cast<std::uint8_t>(1), true, 0};
      chain.routers[i]->table()[kSrc] =
          ip::RouteEntry{1, static_cast<std::uint8_t>(1), true, 0};
    }
    return chain;
  }
};

/// A linear CVC network.
struct CvcChain {
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<net::Network> net;
  cvc::CvcHost* src = nullptr;
  cvc::CvcHost* dst = nullptr;
  std::vector<cvc::CvcSwitch*> switches;
  std::vector<std::uint8_t> setup_route;  ///< port 2 at every switch

  static CvcChain make(int hops, const net::LinkConfig& link) {
    CvcChain chain;
    chain.sim = std::make_unique<sim::Simulator>();
    chain.net = std::make_unique<net::Network>(*chain.sim);
    chain.src = &chain.net->add<cvc::CvcHost>("src", chain.net->packets());
    net::PortedNode* prev = chain.src;
    for (int i = 0; i < hops; ++i) {
      auto& s = chain.net->add<cvc::CvcSwitch>(numbered("s", i));
      chain.net->duplex(*prev, s, link);
      chain.switches.push_back(&s);
      chain.setup_route.push_back(2);
      prev = &s;
    }
    chain.dst = &chain.net->add<cvc::CvcHost>("dst", chain.net->packets());
    chain.net->duplex(*prev, *chain.dst, link);
    return chain;
  }
};

/// Formats picoseconds as microseconds with 2 decimals.
inline std::string us(sim::Time t) {
  return stats::Table::num(sim::to_micros(t), 2);
}

}  // namespace srp::bench

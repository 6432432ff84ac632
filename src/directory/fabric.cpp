#include "directory/fabric.hpp"

#include <stdexcept>

#include "flow/plane.hpp"

namespace srp::dir {

Fabric::Fabric(sim::Simulator& sim) : sim_(sim), net_(sim) {
  directory_ = std::make_unique<Directory>(topo_, nullptr);
}

viper::ViperHost& Fabric::add_host(const std::string& fqdn,
                                   std::uint32_t region) {
  auto& host = net_.add<viper::ViperHost>(fqdn, net_.packets());
  const std::uint32_t id = topo_.add_node(NodeType::kHost, fqdn);
  ids_[&host] = id;
  hosts_.push_back(&host);
  directory_->register_name(fqdn, id, region);
  return host;
}

viper::ViperRouter& Fabric::add_router(const std::string& name,
                                       viper::RouterConfig config) {
  const std::uint32_t id = topo_.add_node(NodeType::kRouter, name);
  config.router_id = id;
  auto& router = net_.add<viper::ViperRouter>(name, config);
  ids_[&router] = id;
  routers_.push_back(&router);
  if (authority_.has_value() && config.require_tokens) {
    router.set_token_authority(&*authority_, &ledger_);
  }
  return router;
}

void Fabric::connect(net::PortedNode& a, net::PortedNode& b,
                     LinkParams params) {
  const net::LinkConfig link_config{params.rate_bps, params.prop_delay,
                                    params.mtu};
  const auto [pa, pb] = net_.duplex(a, b, link_config);
  link_records_.push_back(LinkRecord{&a, &b, pa, pb});

  TopoLink t;
  t.bandwidth_bps = params.rate_bps;
  t.prop_delay = params.prop_delay;
  t.mtu = params.mtu;
  t.cost = params.cost;
  t.security = params.security;
  topo_.add_duplex(id_of(a), id_of(b), static_cast<std::uint8_t>(pa),
                   static_cast<std::uint8_t>(pb), t);
}

net::LanSegment& Fabric::add_lan(const std::string& name,
                                 LinkParams params) {
  auto& lan = net_.add<net::LanSegment>(name);
  lans_[&lan] = LanRecord{&lan, params, {}};
  return lan;
}

void Fabric::set_lan_kind(net::PortedNode& node, int port_index) {
  if (auto* router = dynamic_cast<viper::ViperRouter*>(&node)) {
    router->set_port_kind(port_index, viper::PortKind::kLan);
  } else if (auto* host = dynamic_cast<viper::ViperHost*>(&node)) {
    host->set_port_kind(port_index, viper::PortKind::kLan);
  }
}

net::MacAddr Fabric::attach_lan(net::LanSegment& lan,
                                net::PortedNode& station) {
  auto it = lans_.find(&lan);
  if (it == lans_.end()) {
    throw std::invalid_argument("attach_lan: segment not from this fabric");
  }
  LanRecord& record = it->second;
  const net::LinkConfig link_config{record.params.rate_bps,
                                    record.params.prop_delay,
                                    record.params.mtu};
  const auto [station_port, segment_port] =
      net_.duplex(station, lan, link_config);
  const net::MacAddr mac = net::MacAddr::from_index(next_mac_index_++);
  lan.register_mac(mac, segment_port);
  set_lan_kind(station, station_port);
  record.stations.push_back(
      LanAttachment{&station, id_of(station), station_port, mac});
  return mac;
}

void Fabric::mesh_lan(net::LanSegment& lan) {
  const LanRecord& record = lans_.at(&lan);
  for (const auto& from : record.stations) {
    for (const auto& to : record.stations) {
      if (from.node == to.node) continue;
      TopoLink t;
      t.from = from.topo_id;
      t.to = to.topo_id;
      t.from_port = static_cast<std::uint8_t>(from.station_port);
      t.bandwidth_bps = record.params.rate_bps;
      // Station -> segment -> station: two propagation legs.
      t.prop_delay = 2 * record.params.prop_delay;
      t.mtu = record.params.mtu;
      t.cost = record.params.cost;
      t.security = record.params.security;
      t.lan = true;
      t.from_mac = from.mac;
      t.to_mac = to.mac;
      topo_.add_link(t);
    }
  }
}

void Fabric::enable_tokens(std::uint64_t secret, bool enforce,
                           tokens::UncachedPolicy policy,
                           sim::Time verify_delay) {
  authority_.emplace(secret);
  directory_ = std::make_unique<Directory>(topo_, &*authority_);
  // Re-register names lost by rebuilding the Directory: rebuild from ids_.
  for (const auto& [node, id] : ids_) {
    if (topo_.node(id).type == NodeType::kHost) {
      directory_->register_name(topo_.node(id).name, id, 0);
    }
  }
  for (viper::ViperRouter* router : routers_) {
    router->set_token_authority(&*authority_, &ledger_);
    router->set_token_requirement(enforce, policy, verify_delay);
  }
}

void Fabric::enable_congestion_control(cc::ControllerConfig config) {
  for (viper::ViperRouter* router : routers_) {
    auto controller =
        std::make_unique<cc::CongestionController>(sim_, *router, config);
    for (int p = 1; p <= router->port_count(); ++p) {
      controller->monitor_port(p);
      const net::Node* peer = router->port(p).peer();
      const auto it = ids_.find(peer);
      if (it != ids_.end()) controller->set_neighbor(p, it->second);
    }
    controllers_.push_back(std::move(controller));
  }
  for (viper::ViperHost* host : hosts_) {
    throttles_[host] = std::make_unique<cc::SourceThrottle>(sim_, *host);
  }
}

void Fabric::enable_load_reporting(sim::Time interval) {
  // One shared tick walks every router port with a known peer and reports
  // the interval's utilization as the link load advisory.
  struct Sample {
    viper::ViperRouter* router;
    int port;
    std::uint32_t from;
    std::uint32_t to;
    sim::Time last_busy = 0;
  };
  auto samples = std::make_shared<std::vector<Sample>>();
  for (viper::ViperRouter* router : routers_) {
    for (int p = 1; p <= router->port_count(); ++p) {
      const auto it = ids_.find(router->port(p).peer());
      if (it == ids_.end()) continue;
      samples->push_back(Sample{router, p, id_of(*router), it->second, 0});
    }
  }
  auto tick = std::make_shared<std::function<void()>>();
  // Weak self-capture: the only strong reference lives in the pending
  // event, so the ticker is reclaimed with the event queue instead of
  // leaking through a shared_ptr cycle.
  *tick = [this, samples, interval, weak = std::weak_ptr(tick)] {
    for (Sample& s : *samples) {
      const sim::Time busy = s.router->port(s.port).stats().busy_time;
      const double load = static_cast<double>(busy - s.last_busy) /
                          static_cast<double>(interval);
      s.last_busy = busy;
      directory_->report_link_load(s.from, s.to, std::min(load, 1.0));
    }
    sim_.after(interval, [self = weak.lock()] { (*self)(); });
  };
  sim_.after(interval, [tick] { (*tick)(); });
}

void Fabric::enable_observability(const obs::Observer& observer) {
  observer_ = observer;
  for (viper::ViperRouter* router : routers_) router->set_observer(observer);
  for (viper::ViperHost* host : hosts_) host->set_observer(observer);
  for (auto& controller : controllers_) controller->set_observer(observer);
}

void Fabric::enable_batching(viper::ViperRouter::BatchConfig config) {
  for (viper::ViperRouter* router : routers_) router->set_batching(config);
}

obs::PathCollector& Fabric::enable_path_telemetry(PathTelemetryConfig config) {
  collector_ = std::make_unique<obs::PathCollector>(
      observer_.registry, observer_.recorder, config.collector);
  for (viper::ViperRouter* router : routers_) {
    router->set_path_telemetry(true);
  }
  for (viper::ViperHost* host : hosts_) {
    host->set_path_telemetry(collector_.get(), config.seed,
                             config.sample_period);
  }
  return *collector_;
}

health::HealthMonitor& Fabric::enable_health(health::HealthConfig config) {
  if (observer_.registry == nullptr) {
    throw std::logic_error(
        "Fabric::enable_health: enable_observability with a registry first");
  }
  monitor_ = std::make_unique<health::HealthMonitor>(
      sim_, *observer_.registry, config);
  monitor_->set_recorder(observer_.recorder);
  monitor_->set_flow_plane(dynamic_cast<flow::FlowPlane*>(observer_.flow));
  monitor_->set_path_collector(collector_.get());
  for (viper::ViperRouter* router : routers_) {
    monitor_->map_router(id_of(*router), std::string(router->name()));
    for (int p = 1; p <= router->port_count(); ++p) {
      monitor_->watch_link(router->port(p), std::string(router->name()));
    }
  }
  monitor_->start();
  return *monitor_;
}

std::uint32_t Fabric::id_of(const net::Node& node) const {
  const auto it = ids_.find(&node);
  if (it == ids_.end()) {
    throw std::invalid_argument("Fabric::id_of: unknown node");
  }
  return it->second;
}

cc::SourceThrottle* Fabric::throttle_of(const viper::ViperHost& host) {
  const auto it = throttles_.find(&host);
  return it == throttles_.end() ? nullptr : it->second.get();
}

cc::CongestionController* Fabric::controller_of(
    const viper::ViperRouter& router) {
  // Controllers are created in routers_ order by enable_congestion_control.
  for (std::size_t i = 0; i < routers_.size() && i < controllers_.size();
       ++i) {
    if (routers_[i] == &router) return controllers_[i].get();
  }
  return nullptr;
}

RouteCache& Fabric::route_cache(viper::ViperHost& host,
                                RouteCacheConfig config) {
  auto& slot = caches_[&host];
  if (!slot) {
    slot = std::make_unique<RouteCache>(sim_, *directory_, id_of(host),
                                        config);
  }
  return *slot;
}

Fabric::LinkRecord* Fabric::find_link(const net::Node& a,
                                      const net::Node& b) {
  for (auto& record : link_records_) {
    if ((record.a == &a && record.b == &b) ||
        (record.a == &b && record.b == &a)) {
      return &record;
    }
  }
  return nullptr;
}

void Fabric::set_link_state(net::PortedNode& a, net::PortedNode& b, bool up,
                            bool tell_directory) {
  LinkRecord* record = find_link(a, b);
  if (record == nullptr) {
    throw std::invalid_argument("Fabric: no such link");
  }
  record->a->port(record->port_a).set_up(up);
  record->b->port(record->port_b).set_up(up);
  if (tell_directory) {
    directory_->report_link_state(id_of(a), id_of(b), up);
    directory_->report_link_state(id_of(b), id_of(a), up);
  }
}

void Fabric::fail_link(net::PortedNode& a, net::PortedNode& b) {
  set_link_state(a, b, false, true);
}

void Fabric::restore_link(net::PortedNode& a, net::PortedNode& b) {
  set_link_state(a, b, true, true);
}

void Fabric::fail_link_silently(net::PortedNode& a, net::PortedNode& b) {
  set_link_state(a, b, false, false);
}

}  // namespace srp::dir

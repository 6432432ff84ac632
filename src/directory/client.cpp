#include "directory/client.hpp"

namespace srp::dir {

RouteCache::RouteCache(sim::Simulator& sim, Directory& directory,
                       std::uint32_t self_node, RouteCacheConfig config)
    : sim_(sim), directory_(directory), self_node_(self_node),
      config_(config) {}

RouteCache::Entry* RouteCache::fetch(const std::string& name,
                                     QueryOptions options) {
  options.constraints.count =
      std::max(options.constraints.count, config_.routes_per_query);
  auto routes = directory_.query(self_node_, name, options);
  ++stats_.queries;
  if (routes.empty()) {
    entries_.erase(name);
    return nullptr;
  }
  Entry& e = entries_[name];
  e.routes = std::move(routes);
  e.active = 0;
  e.fetched_at = sim_.now();
  e.degraded_count = 0;
  e.options = options;
  return &e;
}

std::optional<IssuedRoute> RouteCache::route_to(const std::string& name,
                                                QueryOptions options) {
  auto it = entries_.find(name);
  if (it == entries_.end() ||
      sim_.now() - it->second.fetched_at > config_.ttl) {
    Entry* e = fetch(name, options);
    if (e == nullptr) return std::nullopt;
    return e->routes[e->active];
  }
  ++stats_.hits;
  Entry& e = it->second;
  return e.routes[e.active];
}

void RouteCache::report_failure(const std::string& name) {
  const auto it = entries_.find(name);
  if (it == entries_.end()) return;
  Entry& e = it->second;
  if (e.active + 1 < e.routes.size()) {
    ++e.active;
    e.degraded_count = 0;
    ++stats_.switches;
    return;
  }
  // All alternates exhausted: ask the directory again (it may have fresher
  // liveness advisories by now).
  ++stats_.refreshes;
  fetch(name, e.options);
}

void RouteCache::report_rtt(const std::string& name, sim::Time rtt) {
  const auto it = entries_.find(name);
  if (it == entries_.end()) return;
  Entry& e = it->second;
  const sim::Time base = 2 * e.routes[e.active].propagation_delay;
  if (base > 0 &&
      static_cast<double>(rtt) >
          config_.rtt_degraded_factor * static_cast<double>(base)) {
    if (++e.degraded_count >= config_.degraded_threshold) {
      e.degraded_count = 0;
      if (e.routes.size() > 1) {
        e.active = (e.active + 1) % e.routes.size();
        ++stats_.switches;
      }
    }
  } else {
    e.degraded_count = 0;
  }
}

sim::Time RouteCache::base_rtt(const std::string& name) const {
  const auto it = entries_.find(name);
  if (it == entries_.end()) return 0;
  return 2 * it->second.routes[it->second.active].propagation_delay;
}

}  // namespace srp::dir

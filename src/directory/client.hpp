// Client-side route cache and reselection (paper §3, §6.3).
//
// "Clients can request multiple routes (rather than a single route) to the
// desired host or service, and switch between these routes based on the
// performance of the different routes.  Because the client knows the base
// round trip time for the route, measures the actual round trip time ...
// it is able to quickly detect and react to congestion and link failures."
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "directory/directory.hpp"
#include "sim/simulator.hpp"

namespace srp::dir {

struct RouteCacheConfig {
  sim::Time ttl = sim::kSecond;        ///< cache lifetime of a query result
  double rtt_degraded_factor = 3.0;    ///< measured/base RTT ratio => switch
  int degraded_threshold = 3;          ///< consecutive degraded RTTs
  std::size_t routes_per_query = 3;    ///< alternatives requested
};

/// One client's cached routes: route_to() hands out value snapshots and
/// queries the Directory on a miss or an expired entry.
class RouteCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t queries = 0;
    std::uint64_t switches = 0;    ///< moved to an alternate route
    std::uint64_t refreshes = 0;   ///< had to re-query the directory
  };

  RouteCache(sim::Simulator& sim, Directory& directory,
             std::uint32_t self_node, RouteCacheConfig config = {});

  /// Preferred route to @p name, fetching / refreshing as needed.
  /// Returns a snapshot; nullopt when the name is unknown or unreachable.
  std::optional<IssuedRoute> route_to(const std::string& name,
                                      QueryOptions options = {});

  /// Transport reports a hard failure (timeout) on the current route:
  /// switch to the next alternate, or re-query when exhausted.
  void report_failure(const std::string& name);

  /// Transport reports a measured round trip; sustained inflation over the
  /// route's base RTT triggers a switch (congestion avoidance).
  void report_rtt(const std::string& name, sim::Time rtt);

  /// Base round-trip time of the current route: twice the one-way
  /// propagation the directory advertised (the client "knows the base
  /// round trip time for the route").
  [[nodiscard]] sim::Time base_rtt(const std::string& name) const;

  [[nodiscard]] Stats stats() const { return stats_; }

 private:
  struct Entry {
    std::vector<IssuedRoute> routes;
    std::size_t active = 0;
    sim::Time fetched_at = 0;
    int degraded_count = 0;
    QueryOptions options;
  };

  Entry* fetch(const std::string& name, QueryOptions options);

  sim::Simulator& sim_;
  Directory& directory_;
  std::uint32_t self_node_;
  RouteCacheConfig config_;
  std::map<std::string, Entry> entries_;
  Stats stats_;
};

}  // namespace srp::dir

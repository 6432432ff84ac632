// Experiment fabric: builds a simulated Sirpent internetwork and its
// directory database in lockstep.
//
// Every wiring operation creates both the simulated entities (hosts,
// routers, LAN segments, ports) and the matching TopologyDb records, so
// the VIPER port numbers the directory puts into source routes always
// match the ports that exist on the simulated routers.  Tests, examples
// and benches all build their internetworks through this class.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "congestion/controller.hpp"
#include "congestion/throttle.hpp"
#include "health/monitor.hpp"
#include "directory/client.hpp"
#include "directory/directory.hpp"
#include "directory/topology.hpp"
#include "net/lan.hpp"
#include "net/network.hpp"
#include "tokens/cache.hpp"
#include "tokens/token.hpp"
#include "viper/host.hpp"
#include "viper/router.hpp"

namespace srp::dir {

/// Parameters shared by the simulated link and its topology record.
struct LinkParams {
  double rate_bps = 1e9;
  sim::Time prop_delay = 10 * sim::kMicrosecond;
  std::size_t mtu = viper::kViperMtu;
  double cost = 1.0;
  std::uint8_t security = 0;
};

/// In-band path telemetry knobs (Fabric::enable_path_telemetry).
struct PathTelemetryConfig {
  std::uint64_t seed = 0x1A7;       ///< marker phase seed
  std::uint32_t sample_period = 1;  ///< mark 1-in-N sends (1 = all)
  obs::PathCollectorConfig collector;
};

class Fabric {
 public:
  explicit Fabric(sim::Simulator& sim);

  // --- construction ---

  /// Adds a host and registers @p fqdn in the directory.
  viper::ViperHost& add_host(const std::string& fqdn,
                             std::uint32_t region = 0);

  /// Adds a router; its VIPER router id is its topology node id.
  viper::ViperRouter& add_router(const std::string& name,
                                 viper::RouterConfig config = {});

  /// Duplex point-to-point link, in both the simulation and the topology.
  void connect(net::PortedNode& a, net::PortedNode& b,
               LinkParams params = {});

  /// Creates a multi-access segment.  Stations attach with attach_lan();
  /// finish with mesh_lan() to create the pairwise topology links.
  net::LanSegment& add_lan(const std::string& name, LinkParams params = {});
  net::MacAddr attach_lan(net::LanSegment& lan, net::PortedNode& station);
  void mesh_lan(net::LanSegment& lan);

  // --- behaviour toggles ---

  /// Mints per-hop tokens on every issued route and (optionally) turns on
  /// enforcement at every router.
  void enable_tokens(std::uint64_t secret, bool enforce,
                     tokens::UncachedPolicy policy =
                         tokens::UncachedPolicy::kOptimistic,
                     sim::Time verify_delay = 50 * sim::kMicrosecond);

  /// Attaches a CongestionController to every router (monitoring every
  /// port) and a SourceThrottle to every host.
  void enable_congestion_control(cc::ControllerConfig config = {});

  /// Periodic utilization reports from every router link into the
  /// directory's topology database (paper §3: "routing information is
  /// updated by reports from routers, hosts and networking monitors"),
  /// feeding the load-aware route metric.
  void enable_load_reporting(sim::Time interval = 10 * sim::kMillisecond);

  /// Wires every router, host and congestion controller built so far to
  /// @p observer (metrics, tracing, or both).  Call after the topology is
  /// complete — components added later are not wired retroactively.
  void enable_observability(const obs::Observer& observer);

  /// Switches every router built so far to same-instant coalescing
  /// (ViperRouter::set_batching).  Like enable_observability, not
  /// retroactive for later components.
  void enable_batching(viper::ViperRouter::BatchConfig config = {});

  /// Turns on in-band path telemetry: every router built so far stamps
  /// obs::HopTelemetry records onto telemetry-marked packets, every host
  /// marks 1-in-`sample_period` sends and feeds marked deliveries into a
  /// fabric-owned obs::PathCollector wired to the current observer()
  /// sinks (call enable_observability first for metrics/spans).  Like
  /// enable_observability, not retroactive for later components.
  obs::PathCollector& enable_path_telemetry(PathTelemetryConfig config = {});

  /// The collector built by enable_path_telemetry(); null before it.
  [[nodiscard]] obs::PathCollector* path_collector() {
    return collector_.get();
  }

  /// Turns on the health plane: a fabric-owned health::HealthMonitor
  /// watching every router port built so far, reading the observer()
  /// registry (call enable_observability first), corroborating root
  /// causes through the path collector and flow plane when present, and
  /// ticking once per config window.  Like enable_observability, not
  /// retroactive for later components.
  health::HealthMonitor& enable_health(health::HealthConfig config = {});

  /// The monitor built by enable_health(); null before it.
  [[nodiscard]] health::HealthMonitor* health_monitor() {
    return monitor_.get();
  }

  // --- failure injection (simulation + directory advisories together) ---
  void fail_link(net::PortedNode& a, net::PortedNode& b);
  void restore_link(net::PortedNode& a, net::PortedNode& b);
  /// Same, but without telling the directory (silent failure: clients must
  /// detect it end-to-end).
  void fail_link_silently(net::PortedNode& a, net::PortedNode& b);

  // --- access ---
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] net::Network& network() { return net_; }
  [[nodiscard]] TopologyDb& topology() { return topo_; }
  [[nodiscard]] Directory& directory() { return *directory_; }
  [[nodiscard]] tokens::Ledger& ledger() { return ledger_; }
  /// The domain's token authority; nullptr before enable_tokens().
  [[nodiscard]] const tokens::TokenAuthority* authority() const {
    return authority_.has_value() ? &*authority_ : nullptr;
  }
  [[nodiscard]] std::uint32_t id_of(const net::Node& node) const;
  [[nodiscard]] cc::SourceThrottle* throttle_of(const viper::ViperHost& h);
  [[nodiscard]] cc::CongestionController* controller_of(
      const viper::ViperRouter& r);
  [[nodiscard]] const std::vector<viper::ViperRouter*>& routers() const {
    return routers_;
  }
  [[nodiscard]] const std::vector<viper::ViperHost*>& hosts() const {
    return hosts_;
  }
  /// The observer last passed to enable_observability() (all-null sinks
  /// before the first call) — what obs::Introspector snapshots against.
  [[nodiscard]] const obs::Observer& observer() const { return observer_; }

  /// A RouteCache for @p host (owned by the fabric).
  RouteCache& route_cache(viper::ViperHost& host,
                          RouteCacheConfig config = {});

 private:
  struct LinkRecord {
    net::PortedNode* a = nullptr;
    net::PortedNode* b = nullptr;
    int port_a = 0;
    int port_b = 0;
  };
  struct LanAttachment {
    net::PortedNode* node = nullptr;
    std::uint32_t topo_id = 0;
    int station_port = 0;
    net::MacAddr mac;
  };
  struct LanRecord {
    net::LanSegment* segment = nullptr;
    LinkParams params;
    std::vector<LanAttachment> stations;
  };

  void set_lan_kind(net::PortedNode& node, int port_index);
  LinkRecord* find_link(const net::Node& a, const net::Node& b);
  void set_link_state(net::PortedNode& a, net::PortedNode& b, bool up,
                      bool tell_directory);

  sim::Simulator& sim_;
  net::Network net_;
  TopologyDb topo_;
  std::optional<tokens::TokenAuthority> authority_;
  tokens::Ledger ledger_;
  std::unique_ptr<Directory> directory_;

  std::map<const net::Node*, std::uint32_t> ids_;
  std::vector<LinkRecord> link_records_;
  std::map<const net::LanSegment*, LanRecord> lans_;
  std::vector<viper::ViperRouter*> routers_;
  std::vector<viper::ViperHost*> hosts_;
  std::vector<std::unique_ptr<cc::CongestionController>> controllers_;
  std::map<const viper::ViperHost*, std::unique_ptr<cc::SourceThrottle>>
      throttles_;
  std::map<const viper::ViperHost*, std::unique_ptr<RouteCache>> caches_;
  std::uint16_t next_mac_index_ = 1;
  obs::Observer observer_;  ///< last enable_observability() argument
  std::unique_ptr<obs::PathCollector> collector_;  ///< enable_path_telemetry
  std::unique_ptr<health::HealthMonitor> monitor_;  ///< enable_health
};

}  // namespace srp::dir

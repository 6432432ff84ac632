// Store-and-forward IP router — the datagram baseline (paper §1).
//
// Every packet pays: full reception (store-and-forward), a routing table
// lookup on the destination address, the TTL decrement, the incremental
// header-checksum update, and, when the next link's MTU is too small,
// fragmentation.  Host routes are /32 entries maintained by the
// distance-vector protocol (ip/dv.hpp) plus connected routes.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "ip/header.hpp"
#include "net/network.hpp"
#include "sim/time.hpp"

namespace srp::ip {

/// The RIP metric that means unreachable.
inline constexpr std::uint8_t kInfinityMetric = 16;

struct IpRouterConfig {
  Addr address = 0;  ///< the router's own address (routing updates)
};

/// One /32 routing table entry.
struct RouteEntry {
  int out_port = 0;
  std::uint8_t metric = kInfinityMetric;
  bool connected = false;   ///< directly attached; never expires
  sim::Time refreshed = 0;  ///< last confirmation from the protocol
};

class IpRouter : public net::PortedNode {
 public:
  struct Stats {
    std::uint64_t received = 0;
    std::uint64_t forwarded = 0;
    std::uint64_t dropped_ttl = 0;
    std::uint64_t dropped_no_route = 0;
    std::uint64_t dropped_checksum = 0;
    std::uint64_t fragments_created = 0;
    std::uint64_t rip_delivered = 0;
  };

  using RipHandler =
      std::function<void(const IpPacketView& packet, int in_port)>;

  IpRouter(sim::Simulator& sim, std::string name,
           net::PacketFactory& packets, IpRouterConfig config);

  /// Adds a directly connected host route.
  void add_connected(Addr host, int out_port);

  [[nodiscard]] std::optional<int> lookup(Addr dst) const;
  [[nodiscard]] std::map<Addr, RouteEntry>& table() { return table_; }
  [[nodiscard]] const IpRouterConfig& config() const { return config_; }

  /// Routing protocol hook: RIP-protocol packets land here, not forward.
  void set_rip_handler(RipHandler handler) {
    rip_handler_ = std::move(handler);
  }

  /// Originates a packet on @p port (used by the routing protocol).
  void send_raw(int port_index, wire::Bytes packet_bytes);

  [[nodiscard]] const Stats& stats() const { return stats_; }

  void on_arrival(const net::Arrival& arrival) override;

 private:
  void process(const net::Arrival& arrival);
  void transmit(int out_port, wire::Bytes bytes, const net::Packet& origin,
                std::uint8_t tos);

  net::PacketFactory& packets_;
  IpRouterConfig config_;
  std::map<Addr, RouteEntry> table_;
  RipHandler rip_handler_;
  Stats stats_;
};

}  // namespace srp::ip

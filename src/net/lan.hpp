// Multi-access network segment (an "Ethernet" in the paper's examples).
//
// Modeled as a learning-free segment node: every attached station registers
// its MAC, and a frame entering the segment is relayed to the station whose
// MAC matches the Ethernet destination (or flooded for broadcast).  The
// segment relays with cut-through timing — a shared medium delivers bits to
// all stations as they are transmitted — plus a configurable forwarding
// latency defaulting to zero.
#pragma once

#include <map>
#include <string>

#include "net/ethernet.hpp"
#include "net/network.hpp"

namespace srp::net {

class LanSegment : public PortedNode {
 public:
  LanSegment(sim::Simulator& sim, std::string name)
      : PortedNode(sim, std::move(name)) {}

  /// Binds @p mac to the segment port leading to that station.
  void register_mac(const MacAddr& mac, int port_index) {
    stations_[mac] = port_index;
  }

  [[nodiscard]] std::uint64_t unknown_mac_drops() const {
    return unknown_mac_drops_;
  }

  void on_arrival(const Arrival& arrival) override;

 private:
  void relay(const Arrival& arrival, int out_port);

  std::map<MacAddr, int> stations_;
  std::uint64_t unknown_mac_drops_ = 0;
};

}  // namespace srp::net

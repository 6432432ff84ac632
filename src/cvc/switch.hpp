// Virtual-circuit switch for the CVC baseline.
//
// SETUP frames allocate per-circuit state (both directions of the label
// mapping) and pay call-processing time at every switch; DATA frames are
// label-swapped store-and-forward.  The switch counts its peak circuit
// state — the cost the paper holds against the CVC approach.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "cvc/wire.hpp"
#include "net/network.hpp"

namespace srp::cvc {

/// Memory cost per circuit-table entry, for the state accounting.
inline constexpr std::size_t kBytesPerEntry = 32;

class CvcSwitch : public net::PortedNode {
 public:
  struct Stats {
    std::uint64_t setups = 0;
    std::uint64_t releases = 0;
    std::uint64_t data_forwarded = 0;
    std::uint64_t dropped_unknown_vci = 0;
    std::uint64_t dropped_malformed = 0;
    std::size_t circuits_active = 0;   ///< current (in both directions / 2)
    std::size_t circuits_peak = 0;
  };

  CvcSwitch(sim::Simulator& sim, std::string name);

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t state_bytes() const {
    return table_.size() * kBytesPerEntry;
  }
  [[nodiscard]] std::size_t peak_state_bytes() const {
    return 2 * stats_.circuits_peak * kBytesPerEntry;
  }

  void on_arrival(const net::Arrival& arrival) override;

 private:
  using Leg = std::pair<int, std::uint16_t>;  // (port, vci)

  void process(const net::Arrival& arrival);
  void forward(int out_port, const Frame& frame, const net::Packet& origin);
  std::uint16_t allocate_vci(int port_index);

  std::map<Leg, Leg> table_;  ///< both directions present
  std::map<int, std::uint16_t> next_vci_;
  Stats stats_;
};

}  // namespace srp::cvc

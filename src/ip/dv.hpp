// Distance-vector routing for the IP baseline (RIP-style).
//
// Provides the "conventional distributed routing" whose reconvergence time
// Sirpent's client-driven route switching is compared against (paper §6.3):
// periodic full updates, split horizon with poisoned reverse, triggered
// updates, route timeout at three periods, metric 16 = infinity
// (kInfinityMetric).  Local interfaces are polled each period; a down
// interface poisons the routes using it (serial-line style local failure
// detection).
#pragma once

#include <cstdint>

#include "ip/router.hpp"
#include "sim/simulator.hpp"

namespace srp::ip {

struct DvConfig {
  sim::Time period = 100 * sim::kMillisecond;
  /// A learned route not refreshed within this window is poisoned.
  sim::Time timeout = 300 * sim::kMillisecond;
};

/// RIP-ish update payload: [count u16] then (addr u32, metric u8) entries.
wire::Bytes encode_dv_update(
    const std::vector<std::pair<Addr, std::uint8_t>>& entries);
std::vector<std::pair<Addr, std::uint8_t>> decode_dv_update(
    std::span<const std::uint8_t> payload);

class DvRouting {
 public:
  struct Stats {
    std::uint64_t updates_sent = 0;
    std::uint64_t updates_received = 0;
    std::uint64_t triggered_updates = 0;
    std::uint64_t routes_timed_out = 0;
    std::uint64_t routes_poisoned_locally = 0;
  };

  /// @p phase delays the first tick, de-synchronizing routers the way
  /// independent timers would be in a real deployment.
  DvRouting(sim::Simulator& sim, IpRouter& router, DvConfig config,
            sim::Time phase = 0);

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  void tick();
  void on_rip(const IpPacketView& packet, int in_port);
  void send_full_update();
  void maybe_trigger();

  sim::Simulator& sim_;
  IpRouter& router_;
  DvConfig config_;
  bool changed_ = false;
  bool trigger_pending_ = false;
  Stats stats_;
};

}  // namespace srp::ip

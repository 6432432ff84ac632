// Flow-accounting sink interface: the seam between the data path and the
// flow measurement plane (src/flow).
//
// Sirpent's routers can aggregate traffic by source route and by account —
// tokens name the account to charge and the congestion controller reads
// the source routes sitting in its queues (paper §2.2).  The FlowSink is
// how an instrumented component reports those aggregates without depending
// on the flow subsystem: ViperRouter publishes one FlowSample per forward
// and one on_charge() per ledger charge; the congestion controller reads
// feeder aggregates back instead of rescanning its output queues.
//
// Cost contract (same as the rest of the obs layer): components resolve a
// scoped sink once at set_observer() time and keep a raw pointer; with no
// flow sink wired the per-packet price is one untaken null-pointer branch.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace srp::obs {

/// One forwarded packet, as the flow-accounting plane sees it.  The header
/// span points into the caller's buffer and is valid only for the duration
/// of the on_forward() call (sinks copy the excerpt they keep).
struct FlowSample {
  std::uint64_t route_digest = 0;  ///< whole-route identity (0 = unknown)
  std::uint64_t packet_id = 0;
  std::uint64_t trace_id = 0;      ///< nonzero when the packet is traced
  std::uint32_t account = 0;       ///< from the validated token (0 = none)
  std::uint8_t tos_class = 0;      ///< type-of-service priority field
  bool cut_through = false;        ///< vs store-and-forward for this hop
  std::uint16_t in_port = 0;
  std::uint16_t out_port = 0;
  std::uint32_t bytes = 0;         ///< wire bytes admitted (= bytes charged)
  sim::Time now = 0;
  /// Link header + first VIPER segment as received — the excerpt source
  /// for sampled-packet capture.
  std::span<const std::uint8_t> header;
};

/// Abstract flow-accounting sink.  Implemented by flow::FlowObserver (one
/// component's tables) and flow::FlowPlane (a fabric-wide factory of them);
/// defined here so the data path (viper, congestion) needs only srp_obs.
class FlowSink {
 public:
  virtual ~FlowSink() = default;

  /// The sink a component named @p component should publish into.  Called
  /// once at set_observer() time; the returned reference stays valid for
  /// the sink's lifetime.  Components sharing a name (a router and its
  /// congestion controller) resolve to the same scoped sink, which is what
  /// lets the controller read back the router's feeder aggregates.
  virtual FlowSink& scoped(std::string_view /*component*/) { return *this; }

  /// One packet forwarded by the component.  Hot path: called per packet
  /// whenever a flow sink is wired.
  virtual void on_forward(const FlowSample& sample) = 0;

  /// One tokens::Ledger charge made by the component, reported with the
  /// same account and byte count — the exact mirror that makes per-account
  /// roll-ups reconcile with the ledger.
  virtual void on_charge(std::uint32_t account, std::uint64_t bytes) = 0;

  /// Appends to @p out the input ports that forwarded traffic toward
  /// @p out_port at or after @p since — the congestion controller's feeder
  /// set, answered from flow state instead of a queue scan.
  virtual void feeders_toward(int out_port, sim::Time since,
                              std::vector<int>& out) const = 0;
};

}  // namespace srp::obs

// End-host Sirpent module: sends source-routed VIPER packets and, on
// delivery, rebuilds the return route from the trailer (paper §2).
//
// A host is a whole-packet node: its ports deliver each packet at last-bit
// time, and the host parses and delivers it inside that arrival event.
// Per packet it allocates nothing once warm: a send encodes into a
// recycled slab of the network's PacketFactory arena, a delivery refills
// one Delivery the host keeps, and a reply refills one return route the
// host keeps (DESIGN.md §11).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/segment.hpp"
#include "flow/sampler.hpp"
#include "net/ethernet.hpp"
#include "net/network.hpp"
#include "obs/telemetry.hpp"
#include "viper/codec.hpp"
#include "viper/router.hpp"

namespace srp::viper {

/// Where a reply to a received packet goes: its return route, the link
/// header for the first return hop, the port it arrived on and its flow.
/// It is the part of a Delivery that ViperHost::reply reads, so a layer
/// that answers later (VMTP's selective NACKs) keeps only this.
struct ReplyPath {
  core::SourceRoute return_route;  ///< trailer reversed + local segment
  std::optional<net::EthernetHeader> reply_link;  ///< swapped arrival header
  int in_port = 0;
  std::uint64_t flow = 0;
};

/// A packet delivered to an end host, with everything the higher layers
/// need: the data, the network-independently reversed return route, the
/// link header for the first return hop, and truncation status.
///
/// Handlers receive the host's own Delivery, refilled for every packet so
/// that `data`, `return_route.segments` and `path` keep their capacity: the
/// reference is valid only for the handler call.  A handler that keeps a
/// delivery copies it.
struct Delivery : ReplyPath {
  wire::Bytes data;
  bool truncated = false;   ///< TRM mark seen or transmission aborted
  std::uint64_t endpoint = 0;  ///< local endpoint id addressed (0 = none)
  std::uint64_t packet_id = 0;
  std::uint32_t hops = 0;        ///< routers the packet traversed
  sim::Time sent_at = 0;
  sim::Time delivered_at = 0;
  /// In-band telemetry records carried by a telemetry-marked packet, in
  /// ascending hop order (empty when the packet was not marked or path
  /// telemetry is off).
  std::vector<obs::HopTelemetry> path;
};

/// Options for ViperHost::send.
struct SendOptions {
  core::TypeOfService tos;
  std::uint64_t flow = 0;
  int out_port = 1;
  /// Link header for the first hop when the out port is on a LAN; the
  /// paper's "initial header segment is implicit from the network type".
  std::optional<net::EthernetHeader> link;
  /// Force an in-band telemetry mark on this packet regardless of the
  /// host's sampler (see ViperHost::set_path_telemetry).
  bool telemetry = false;
};

class ViperHost : public ViperNode {
 public:
  using Handler = std::function<void(const Delivery&)>;
  /// Receives a control packet's payload, a view into the arrived packet
  /// valid only for the call.
  using ControlHandler =
      std::function<void(std::span<const std::uint8_t> payload, int in_port)>;

  struct Stats {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t truncated_received = 0;
    std::uint64_t misrouted = 0;       ///< arrived with a non-local segment
    std::uint64_t unknown_endpoint = 0;
    std::uint64_t dropped_malformed = 0;
    std::uint64_t control_received = 0;
    std::uint64_t telemetry_marked = 0;  ///< sends carrying the INT mark
  };

  ViperHost(sim::Simulator& sim, std::string name,
            net::PacketFactory& packets);

  /// Binds a local endpoint id; packets whose final segment carries this id
  /// are delivered to @p handler ("intra-host addressing is provided by the
  /// same mechanism as used for inter-host addressing").
  void bind(std::uint64_t endpoint_id, Handler handler);
  void unbind(std::uint64_t endpoint_id);

  /// Receives packets with no / unknown endpoint id — the transport
  /// dispatcher, which must detect misdelivery itself (paper §4.1).
  void set_default_handler(Handler handler);

  void set_control_handler(ControlHandler handler) {
    control_handler_ = std::move(handler);
  }

  /// Sends @p data along @p route.  The route's last segment should be a
  /// local-delivery (port 0) segment for the destination host.
  /// Returns the packet id.
  std::uint64_t send(const core::SourceRoute& route,
                     std::span<const std::uint8_t> data,
                     const SendOptions& options = {});

  /// Sends @p data back along a received packet's return route (a
  /// Delivery is a ReplyPath).  With @p endpoint, the route's final local
  /// segment carries that endpoint id, addressing the peer's transport
  /// entity (§2.2); without, the reply reaches the peer's default handler.
  /// The route is refilled into one the host keeps, so a warm reply
  /// allocates nothing.
  std::uint64_t reply(const ReplyPath& via, std::span<const std::uint8_t> data,
                      core::TypeOfService tos = {},
                      std::optional<std::uint64_t> endpoint = std::nullopt);

  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Wires the host to an observability sink.  With a recorder present,
  /// every packet this host originates is traced: send() mints a trace
  /// context (trace id = packet id) that rides the packet's measurement
  /// side-band through every router hop, and delivery records an
  /// end-to-end kDeliver span.  Metrics: a `host.<name>.e2e_latency_ps`
  /// histogram of send-to-delivery times.  Also wires this host's ports.
  void set_observer(const obs::Observer& observer);

  /// Wires in-band path telemetry: sends are marked 1-in-@p sample_period
  /// (a flow::Sampler seeded from @p seed and "int.<host name>", so marking
  /// and flow sampling draw well-separated streams of one fabric seed; a
  /// SendOptions::telemetry send is always marked, and still advances the
  /// sampler so it never phase-shifts later marks), and marked deliveries —
  /// including arrivals too damaged to parse — feed @p collector.  Either
  /// half may be off: a null collector still marks (a remote sink
  /// collects), period 0 still collects (only forced marks occur).
  void set_path_telemetry(obs::PathCollector* collector, std::uint64_t seed,
                          std::uint32_t sample_period);

  /// Parses and delivers the packet.  Ports call it at the tail; a direct
  /// call before the tail waits for it.
  void on_arrival(const net::Arrival& arrival) override;

 private:
  void process(const net::Arrival& arrival);

  net::PacketFactory& packets_;
  std::map<std::uint64_t, Handler> endpoints_;
  Handler default_handler_;
  ControlHandler control_handler_;
  Stats stats_;
  Delivery delivery_;  ///< refilled for every delivered packet
  core::SourceRoute reply_route_;  ///< refilled for every reply
  wire::Bytes digest_scratch_;     ///< route_digest's serialization buffer

  // Observability handles, resolved once by set_observer(); null = off.
  stats::Histogram* obs_e2e_latency_ = nullptr;
  obs::FlightRecorder* obs_recorder_ = nullptr;
  /// Flow accounting wired: send() stamps Packet::route_digest so routers
  /// along the path can attribute the packet to its source route.
  bool stamp_route_digest_ = false;

  // Path-telemetry wiring (set_path_telemetry); both null/empty = off.
  obs::PathCollector* collector_ = nullptr;
  std::optional<flow::Sampler> telemetry_sampler_;
};

}  // namespace srp::viper

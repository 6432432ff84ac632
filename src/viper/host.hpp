// End-host Sirpent module: sends source-routed VIPER packets and, on
// delivery, rebuilds the return route from the trailer (paper §2).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "core/segment.hpp"
#include "core/trailer.hpp"
#include "flow/telemetry_mark.hpp"
#include "net/ethernet.hpp"
#include "net/network.hpp"
#include "obs/telemetry.hpp"
#include "viper/codec.hpp"
#include "viper/router.hpp"

namespace srp::viper {

/// A packet delivered to an end host, with everything the higher layers
/// need: the data, the network-independently reversed return route, the
/// link header for the first return hop, and truncation status.
struct Delivery {
  wire::Bytes data;
  core::SourceRoute return_route;  ///< trailer reversed + local segment
  std::optional<net::EthernetHeader> reply_link;  ///< swapped arrival header
  bool truncated = false;   ///< TRM mark seen or transmission aborted
  std::uint64_t endpoint = 0;  ///< local endpoint id addressed (0 = none)
  std::uint64_t packet_id = 0;
  std::uint64_t flow = 0;
  std::uint32_t hops = 0;        ///< routers the packet traversed
  sim::Time sent_at = 0;
  sim::Time delivered_at = 0;
  int in_port = 0;
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
  /// host's sampling discipline (flow::TelemetryMarker).
  bool telemetry = false;
};

class ViperHost : public net::PortedNode {
 public:
  using Handler = std::function<void(const Delivery&)>;
  using ControlHandler =
      std::function<void(wire::Bytes payload, int in_port)>;

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

  void set_port_kind(int port_index, PortKind kind);
  [[nodiscard]] PortKind port_kind(int port_index) const;

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

  /// Sends @p data back along a received packet's return route.
  std::uint64_t reply(const Delivery& delivery,
                      std::span<const std::uint8_t> data,
                      core::TypeOfService tos = {});

  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Wires the host to an observability sink.  With a recorder present,
  /// every packet this host originates is traced: send() mints a trace
  /// context (trace id = packet id) that rides the packet's measurement
  /// side-band through every router hop, and delivery records an
  /// end-to-end kDeliver span.  Metrics: a `host.<name>.e2e_latency_ps`
  /// histogram of send-to-delivery times.  Also wires this host's ports.
  void set_observer(const obs::Observer& observer);

  /// Wires in-band path telemetry: sends are marked 1-in-@p sample_period
  /// (flow::TelemetryMarker seeded from @p seed and this host's name; a
  /// SendOptions::telemetry send is always marked), and marked deliveries —
  /// including arrivals too damaged to parse — feed @p collector.  Either
  /// half may be off: a null collector still marks (a remote sink
  /// collects), period 0 still collects (only forced marks occur).
  void set_path_telemetry(obs::PathCollector* collector, std::uint64_t seed,
                          std::uint32_t sample_period);

  void on_arrival(const net::Arrival& arrival) override;

 private:
  void process(const net::Arrival& arrival);

  /// Parses [DataLen][Data][Trailer] into @p delivery: the data, and the
  /// return route built from the trailer reversed *in place* on
  /// trailer_scratch_ — one vector sized from the reversal's segment
  /// count, truncation marks and telemetry records filtered out as it
  /// fills, entries already in return order.  Returns false, leaving
  /// @p delivery untouched, when the data was cut short in flight or the
  /// trailer does not parse as whole segments; the caller then falls back
  /// to decode_delivered_body.
  bool take_reversed_body(std::span<const std::uint8_t> body,
                          Delivery& delivery, bool& truncation_mark,
                          std::size_t& telemetry_errors);

  net::PacketFactory& packets_;
  std::vector<PortKind> port_kinds_;
  std::map<std::uint64_t, Handler> endpoints_;
  Handler default_handler_;
  ControlHandler control_handler_;
  Stats stats_;

  // Observability handles, resolved once by set_observer(); null = off.
  stats::Histogram* obs_e2e_latency_ = nullptr;
  obs::FlightRecorder* obs_recorder_ = nullptr;
  /// Flow accounting wired: send() stamps Packet::route_digest so routers
  /// along the path can attribute the packet to its source route.
  bool stamp_route_digest_ = false;

  // Path-telemetry wiring (set_path_telemetry); both null/empty = off.
  obs::PathCollector* collector_ = nullptr;
  std::optional<flow::TelemetryMarker> marker_;

  /// Reused trailer image for the in-place reversal; capacity survives
  /// across deliveries so the steady state re-allocates nothing.
  wire::Bytes trailer_scratch_;
};

}  // namespace srp::viper

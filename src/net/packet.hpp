// The simulated packet.
//
// A Packet carries a real wire image (`bytes`) — VIPER headers, IP headers,
// CVC labels are all actual encoded octets that routers parse and rewrite —
// plus side-band bookkeeping used only for measurement (ids, timestamps,
// flow labels).  Routers that rewrite a packet produce a new Packet and
// copy the bookkeeping forward: via Packet::derive(), or — the Sirpent
// router moving a header segment to the trailer — into a recycled
// net::PacketArena slab with the same bookkeeping.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "sim/time.hpp"
#include "wire/buffer.hpp"

namespace srp::net {

struct Packet;
using PacketPtr = std::shared_ptr<Packet>;

struct Packet : std::enable_shared_from_this<Packet> {
  wire::Bytes bytes;  ///< full wire image, link header onward

  // --- measurement side-band (never "transmitted") ---
  std::uint64_t id = 0;        ///< unique per simulation
  sim::Time created = 0;       ///< time the original packet entered the net
  std::uint64_t flow = 0;      ///< workload-assigned flow label
  std::uint32_t hops = 0;      ///< routers traversed so far
  bool truncated = false;      ///< transmission was aborted / MTU-cut
  int last_in_port = 0;        ///< port the current holder received it on
                               ///  (congestion control's feeder identity)
  std::uint32_t feedforward = 0;  ///< paper §2.2 "feed forward" load info:
                                  ///  packets queued behind this one at its
                                  ///  previous (rate-controlled) router;
                                  ///  models a small network-layer field
  std::uint8_t recirculations = 0;  ///< delay-line loops taken so far
                                    ///  (Blazenet-style deferral, §2.1)
  std::uint64_t trace_id = 0;  ///< nonzero = per-hop tracing requested;
                               ///  spans land in the obs::FlightRecorder
  std::uint64_t route_digest = 0;  ///< hash of the source route stamped by
                                   ///  the origin host when flow accounting
                                   ///  is on; constant along the whole path
                                   ///  (0 = unattributed, e.g. tunnel
                                   ///  ingress)
  bool telemetry = false;  ///< in-band path telemetry requested: routers on
                           ///  the path append an obs::HopTelemetry record
                           ///  to the trailer (models an INT mark bit in a
                           ///  network-layer header field)

  /// Upstream image this packet was derived from.  With cut-through a
  /// router forwards the head of a packet whose tail is still in flight
  /// upstream; if that upstream transmission is later aborted, the damage
  /// is discovered by walking this chain (effectively_truncated()), just as
  /// a real cut-through abort propagates to every downstream copy.
  std::shared_ptr<const Packet> parent;

  [[nodiscard]] std::size_t size() const { return bytes.size(); }

  /// True if this packet, or any upstream image it was cut-through-derived
  /// from, was truncated.
  [[nodiscard]] bool effectively_truncated() const {
    for (const Packet* p = this; p != nullptr; p = p->parent.get()) {
      if (p->truncated) return true;
    }
    return false;
  }

  /// New packet derived from this one (rewritten at a router): fresh wire
  /// image, inherited bookkeeping, hop count bumped, truncation chained.
  [[nodiscard]] PacketPtr derive(wire::Bytes new_bytes) const {
    auto p = std::make_shared<Packet>();
    p->bytes = std::move(new_bytes);
    p->id = id;
    p->created = created;
    p->flow = flow;
    p->hops = hops + 1;
    p->trace_id = trace_id;
    p->route_digest = route_digest;
    p->telemetry = telemetry;
    p->parent = shared_from_this();
    return p;
  }
};

/// Factory assigning unique ids; one per simulation run.
class PacketFactory {
 public:
  PacketPtr make(wire::Bytes bytes, sim::Time now, std::uint64_t flow = 0) {
    auto p = std::make_shared<Packet>();
    p->bytes = std::move(bytes);
    p->id = ++last_id_;
    p->created = now;
    p->flow = flow;
    return p;
  }

  [[nodiscard]] std::uint64_t issued() const { return last_id_; }

 private:
  std::uint64_t last_id_ = 0;
};

}  // namespace srp::net

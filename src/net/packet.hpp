// The simulated packet.
//
// A Packet carries a real wire image (`bytes`) — VIPER headers, IP headers,
// CVC labels are all actual encoded octets that routers parse and rewrite —
// plus side-band bookkeeping used only for measurement (ids, timestamps,
// flow labels).  Routers that rewrite a packet produce a new Packet and
// copy the bookkeeping forward: via Packet::derive(), or — the Sirpent
// router moving a header segment to the trailer — into a recycled
// net::PacketArena slab with the same bookkeeping.  VIPER hosts encode
// their sends into slabs of the PacketFactory's arena.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "net/arena.hpp"
#include "sim/time.hpp"
#include "wire/buffer.hpp"

namespace srp::net {

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
  /// Time from which the `truncated` flag of every image in the `parent`
  /// chain is final: the latest last-bit arrival along the chain.  An
  /// abort cuts a transmission before its last bit, so no image of the
  /// chain can become truncated after it.
  sim::Time settled = 0;

  [[nodiscard]] std::size_t size() const { return bytes.size(); }

  /// True if this packet, or any upstream image it was cut-through-derived
  /// from, was truncated.
  [[nodiscard]] bool effectively_truncated() const {
    for (const Packet* p = this; p != nullptr; p = p->parent.get()) {
      if (p->truncated) return true;
    }
    return false;
  }

  /// Drops the parent chain once it can no longer change (at or after
  /// `settled`), folding its truncation into `truncated`.  A port calls it
  /// when it queues this image and again when the image's transmission
  /// ends, so neither a waiting nor a finished image keeps its upstream
  /// images alive — a free arena slab would otherwise pin its parent's
  /// slab until it is recycled itself.
  void fold_parent(sim::Time now) {
    if (parent == nullptr || now < settled) return;
    truncated = effectively_truncated();
    parent.reset();
  }

  /// New packet derived from this one (rewritten at a router): fresh wire
  /// image, inherited bookkeeping, hop count bumped, truncation chained.
  /// For store-and-forward rewrites, made once this image's last bit is
  /// in: only the settle time of this image's own chain carries over.
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
    p->settled = settled;
    return p;
  }
};

/// Factory assigning unique ids; one per simulation run.  It also owns the
/// arena its network's hosts encode into: one pool for every host, since a
/// pool per host would keep a warm slab set per host.
class PacketFactory {
 public:
  /// A packet owning @p bytes, stamped with the next id.
  PacketPtr make(wire::Bytes bytes, sim::Time now, std::uint64_t flow = 0) {
    auto p = std::make_shared<Packet>();
    p->bytes = std::move(bytes);
    stamp(*p, now, flow);
    return p;
  }

  /// A blank recycled slab (empty bytes with warm capacity, zeroed
  /// side-band) for an origin to encode into; stamp() then numbers it.
  PacketPtr blank() { return arena_.acquire(); }

  /// Gives @p packet the next id, its creation time and its flow label.
  void stamp(Packet& packet, sim::Time now, std::uint64_t flow) {
    packet.id = ++last_id_;
    packet.created = now;
    packet.flow = flow;
  }

  [[nodiscard]] std::uint64_t issued() const { return last_id_; }
  [[nodiscard]] const PacketArena& arena() const { return arena_; }

 private:
  std::uint64_t last_id_ = 0;
  PacketArena arena_;
};

}  // namespace srp::net

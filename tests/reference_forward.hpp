// Copy-decode reference for one VIPER router hop, kept as a test oracle.
//
// This is the rewrite the router performed before its zero-copy data
// path: the reference decoder (reference_codec.hpp) copies the first
// segment's fields out of the image, the return entry is built as an
// owning core::HeaderSegment, encode_segment writes it through a
// wire::Writer behind a copy of the remainder, and the new image becomes a
// packet via Packet::derive().  It shares no code with ViperRouter's
// rewrite (views, raw appends into an arena slab), which is what makes it
// a meaningful oracle: the differential test (forward_oracle_test.cpp)
// holds the router's output bytes and side-band against it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>

#include "core/segment.hpp"
#include "net/ethernet.hpp"
#include "net/packet.hpp"
#include "obs/telemetry.hpp"
#include "reference_codec.hpp"
#include "viper/codec.hpp"
#include "wire/buffer.hpp"

namespace srp::test {

/// What the reference needs to know about one hop beyond the image.
struct ReferenceHop {
  int in_port = 0;       ///< arrival port: the return entry's port
  bool link_in = false;  ///< a link header precedes the first segment
  /// Tunnel ingress or a tree branch copy: the return entry names this
  /// port and info instead of the arrival port and link header.
  std::optional<std::pair<std::uint8_t, wire::Bytes>> tunnel_return;
  bool link_out = false;  ///< LAN egress: prepend the segment's portInfo
  bool token_reversible = false;  ///< echo the token in the return entry
  /// Telemetry record stamped after the return entry, if any.
  std::optional<obs::HopTelemetry> telemetry;
  /// Egress MTU; the default never cuts (tunnel egress has none).
  std::size_t mtu = std::numeric_limits<std::size_t>::max();
};

/// Front of an image, decoded with field copies.
struct ReferenceFront {
  std::optional<net::EthernetHeader> link;
  core::HeaderSegment segment;
  std::size_t consumed = 0;  ///< link header + first segment
};

/// Throws wire::CodecError on malformed input.
inline ReferenceFront reference_front(const wire::Bytes& bytes,
                                      bool link_in) {
  ReferenceFront front;
  wire::Reader r(bytes);
  if (link_in) front.link = net::EthernetHeader::decode(r);
  front.segment = test::decode_segment(r);
  front.consumed = r.position();
  return front;
}

/// The trailer entry for the reverse hop through this router.
inline core::HeaderSegment reference_return_entry(const ReferenceFront& front,
                                                  const ReferenceHop& hop) {
  core::HeaderSegment entry;
  entry.port = static_cast<std::uint8_t>(hop.in_port);
  entry.tos = front.segment.tos;
  entry.flags.dib = front.segment.tos.drop_if_blocked;
  if (hop.token_reversible) entry.token = front.segment.token;
  if (hop.tunnel_return.has_value()) {
    entry.port = hop.tunnel_return->first;
    entry.port_info = hop.tunnel_return->second;
    entry.flags.vnt = entry.port_info.empty();
    return entry;
  }
  if (front.link.has_value()) {
    wire::Writer w(net::EthernetHeader::kWireSize);
    front.link->reversed().encode(w);
    entry.port_info = std::move(w).take();
    entry.flags.vnt = false;
  } else {
    entry.flags.vnt = true;
  }
  return entry;
}

/// The rewritten image of @p bytes, whose front is @p front: [link
/// header out] remainder, return entry, [telemetry record], then the MTU
/// cut with its truncation mark.  Sets @p truncated when the cut happened.
inline wire::Bytes reference_rewrite(const wire::Bytes& bytes,
                                     const ReferenceFront& front,
                                     const ReferenceHop& hop,
                                     bool* truncated = nullptr) {
  wire::Writer w(bytes.size() + 32);
  if (hop.link_out) w.bytes(front.segment.port_info);
  w.bytes(std::span(bytes).subspan(front.consumed));
  viper::encode_segment(w, reference_return_entry(front, hop));
  if (hop.telemetry.has_value()) {
    core::HeaderSegment record;
    record.port = core::kTelemetryPort;
    record.flags.trm = true;
    record.port_info.resize(obs::kHopTelemetryWire);
    hop.telemetry->encode(record.port_info);
    viper::encode_segment(w, record);
  }
  wire::Bytes out = std::move(w).take();
  const bool cut = out.size() > hop.mtu;
  if (cut) {
    wire::Writer mark;
    viper::encode_segment(mark, core::HeaderSegment::truncation_marker());
    out.resize(hop.mtu - mark.size());
    out.insert(out.end(), mark.view().begin(), mark.view().end());
  }
  if (truncated != nullptr) *truncated = cut;
  return out;
}

/// The packet a router hop derives from @p src, whose image as routed is
/// @p bytes (a tree branch copy or a deferred retry may route a copy) and
/// whose front is @p front.
inline net::PacketPtr reference_forward(const net::Packet& src,
                                        const wire::Bytes& bytes,
                                        const ReferenceFront& front,
                                        const ReferenceHop& hop) {
  bool truncated = false;
  net::PacketPtr derived =
      src.derive(reference_rewrite(bytes, front, hop, &truncated));
  derived->truncated = truncated;
  derived->last_in_port = hop.in_port;
  derived->feedforward = src.feedforward;
  return derived;
}

/// As above, decoding the front of @p bytes first.
inline net::PacketPtr reference_forward(const net::Packet& src,
                                        const wire::Bytes& bytes,
                                        const ReferenceHop& hop) {
  return reference_forward(src, bytes, reference_front(bytes, hop.link_in),
                           hop);
}

}  // namespace srp::test

#include "ip/router.hpp"

#include <algorithm>

namespace srp::ip {

/// Per-packet processing: lookup + TTL + checksum update.  The paper's
/// complaint: "each packet suffers a reception, storage and processing
/// delay at each router."
constexpr sim::Time kProcDelay = 20 * sim::kMicrosecond;

IpRouter::IpRouter(sim::Simulator& sim, std::string name,
                   net::PacketFactory& packets, IpRouterConfig config)
    : net::PortedNode(sim, std::move(name)), packets_(packets),
      config_(config) {}

void IpRouter::add_connected(Addr host, int out_port) {
  table_[host] = RouteEntry{out_port, 1, true, 0};
}

std::optional<int> IpRouter::lookup(Addr dst) const {
  const auto it = table_.find(dst);
  if (it == table_.end() || it->second.metric >= kInfinityMetric) {
    return std::nullopt;
  }
  return it->second.out_port;
}

void IpRouter::send_raw(int port_index, wire::Bytes packet_bytes) {
  net::PacketPtr packet = packets_.make(std::move(packet_bytes), sim_.now());
  port(port_index).enqueue(std::move(packet), net::TxMeta{}, 0);
}

void IpRouter::on_arrival(const net::Arrival& arrival) {
  ++stats_.received;
  // Store-and-forward: nothing can happen before the last bit is in, and
  // then the packet pays the processing delay.
  sim_.at(arrival.tail + kProcDelay,
          [this, arrival] { process(arrival); });
}

void IpRouter::process(const net::Arrival& arrival) {
  const net::Packet& packet = *arrival.packet;
  if (packet.effectively_truncated()) return;  // damaged upstream
  const auto view = decode_ip_packet(packet.bytes);
  if (!view.has_value()) {
    ++stats_.dropped_checksum;
    return;
  }

  if (view->header.protocol == kProtoRip) {
    ++stats_.rip_delivered;
    if (rip_handler_) rip_handler_(*view, arrival.in_port);
    return;
  }

  const auto out = lookup(view->header.dst);
  if (!out.has_value()) {
    ++stats_.dropped_no_route;
    return;
  }

  wire::Bytes bytes = packet.bytes;
  if (!decrement_ttl_in_place(bytes)) {
    ++stats_.dropped_ttl;
    return;
  }

  const std::size_t mtu = port(*out).config().mtu_bytes;
  if (bytes.size() <= mtu) {
    transmit(*out, std::move(bytes), packet, view->header.tos);
    return;
  }

  // Fragment: payload split on 8-byte boundaries, each piece re-headed.
  const auto refreshed = decode_ip_packet(bytes);
  if (!refreshed.has_value()) {
    ++stats_.dropped_checksum;
    return;
  }
  const IpHeader& h = refreshed->header;
  const std::span<const std::uint8_t> payload = refreshed->payload;
  const std::size_t max_payload = (mtu - IpHeader::kWireSize) / 8 * 8;
  if (max_payload == 0) {
    ++stats_.dropped_no_route;
    return;
  }
  for (std::size_t off = 0; off < payload.size(); off += max_payload) {
    const std::size_t len = std::min(max_payload, payload.size() - off);
    IpHeader fh = h;
    fh.checksum = 0;
    const std::size_t abs_off = h.frag_offset_bytes() + off;
    fh.flags_frag = static_cast<std::uint16_t>(abs_off / 8);
    const bool last_piece = off + len >= payload.size();
    if (h.more_fragments() || !last_piece) {
      fh.flags_frag |= kFlagMoreFragments;
    }
    ++stats_.fragments_created;
    transmit(*out, encode_ip_packet(fh, payload.subspan(off, len)), packet,
             h.tos);
  }
}

void IpRouter::transmit(int out_port, wire::Bytes bytes,
                        const net::Packet& origin, std::uint8_t tos) {
  net::PacketPtr forwarded = origin.derive(std::move(bytes));
  forwarded->last_in_port = origin.last_in_port;
  ++stats_.forwarded;
  net::TxMeta meta;
  meta.rank = tos >> 5;  // IP precedence bits
  port(out_port).enqueue(std::move(forwarded), meta, 0);
}

}  // namespace srp::ip

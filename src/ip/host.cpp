#include "ip/host.hpp"

#include "check/contract.hpp"

namespace srp::ip {

IpHost::IpHost(sim::Simulator& sim, std::string name,
               net::PacketFactory& packets, IpHostConfig config)
    : net::PortedNode(sim, std::move(name), /*whole_packet=*/true),
      packets_(packets),
      config_(config) {}

void IpHost::send(Addr dst, std::uint8_t protocol,
                  std::span<const std::uint8_t> payload, std::uint8_t tos) {
  IpHeader h;
  h.tos = tos;
  h.id = next_id_++;
  h.ttl = config_.default_ttl;
  h.protocol = protocol;
  h.src = config_.address;
  h.dst = dst;
  net::PacketPtr packet =
      packets_.make(encode_ip_packet(h, payload), sim_.now());
  ++stats_.sent;
  net::TxMeta meta;
  meta.rank = tos >> 5;
  port(1).enqueue(std::move(packet), meta, 0);
}

void IpHost::on_arrival(const net::Arrival& arrival) {
  // Whole-packet node: its ports deliver at the tail.
  SIRPENT_EXPECTS(sim_.now() >= arrival.tail);
  if (arrival.packet->effectively_truncated()) {
    ++stats_.checksum_drops;
    return;
  }
  const auto view = decode_ip_packet(arrival.packet->bytes);
  if (!view.has_value()) {
    ++stats_.checksum_drops;
    return;
  }
  if (view->header.dst != config_.address &&
      view->header.dst != kBroadcast) {
    ++stats_.not_for_us;
    return;
  }
  if (view->header.protocol == kProtoRip) {
    return;  // routing chatter on the link; hosts ignore it
  }
  if (!view->header.is_fragment()) {
    deliver(view->header,
            wire::Bytes(view->payload.begin(), view->payload.end()),
            /*was_fragmented=*/false);
    return;
  }
  accept_fragment(*view);
}

void IpHost::accept_fragment(const IpPacketView& view) {
  const auto key = std::make_pair(view.header.src, view.header.id);
  auto it = reassemblies_.find(key);
  if (it == reassemblies_.end()) {
    if (reassemblies_.size() >= config_.max_reassemblies) {
      // Overrun: the systematic failure mode the paper warns about — no
      // buffer for a new datagram means all its fragments are wasted.
      ++stats_.reassembly_overflows;
      return;
    }
    it = reassemblies_.emplace(key, Reassembly{}).first;
    it->second.first_header = view.header;
    it->second.timer = sim_.after(config_.reassembly_timeout, [this, key] {
      const auto victim = reassemblies_.find(key);
      if (victim != reassemblies_.end()) {
        ++stats_.reassembly_timeouts;
        reassemblies_.erase(victim);
      }
    });
  }
  Reassembly& r = it->second;
  r.pieces[view.header.frag_offset_bytes()] =
      wire::Bytes(view.payload.begin(), view.payload.end());
  if (!view.header.more_fragments()) {
    r.total = view.header.frag_offset_bytes() + view.payload.size();
  }
  if (r.total == 0) return;

  // Complete when the pieces tile [0, total) without gaps.
  std::size_t covered = 0;
  for (const auto& [offset, bytes] : r.pieces) {
    if (offset > covered) return;  // gap
    covered = std::max(covered, offset + bytes.size());
  }
  if (covered < r.total) return;

  wire::Bytes whole(r.total);
  for (const auto& [offset, bytes] : r.pieces) {
    const std::size_t len = std::min(bytes.size(), r.total - offset);
    std::copy_n(bytes.begin(), len,
                whole.begin() + static_cast<std::ptrdiff_t>(offset));
  }
  IpHeader header = r.first_header;
  sim_.cancel(r.timer);
  reassemblies_.erase(it);
  deliver(header, std::move(whole), /*was_fragmented=*/true);
}

void IpHost::deliver(const IpHeader& header, wire::Bytes payload,
                     bool was_fragmented) {
  ++stats_.delivered;
  if (was_fragmented) ++stats_.reassembled;
  if (handler_) handler_(header, std::move(payload));
}

}  // namespace srp::ip

#include "transport/header.hpp"

#include "wire/checksum.hpp"

namespace srp::vmtp {

void encode_transport_packet(const Header& header,
                             std::span<const std::uint8_t> payload,
                             wire::Bytes& out) {
  wire::Writer w(std::move(out), Header::kWireSize + payload.size());
  w.u64(header.src_entity);
  w.u64(header.dst_entity);
  w.u32(header.transaction);
  w.u8(static_cast<std::uint8_t>(header.type));
  w.u8(header.group_size);
  w.u8(header.index);
  w.u8(header.flags);
  w.u32(header.timestamp);
  w.u32(header.mask);
  const std::size_t checksum_offset = w.size();
  w.u16(0);
  w.bytes(payload);
  out = std::move(w).take();
  const std::uint16_t checksum = wire::internet_checksum(out);
  out[checksum_offset] = static_cast<std::uint8_t>(checksum >> 8);
  out[checksum_offset + 1] = static_cast<std::uint8_t>(checksum);
}

wire::Bytes encode_transport_packet(const Header& header,
                                    std::span<const std::uint8_t> payload) {
  wire::Bytes out;
  encode_transport_packet(header, payload, out);
  return out;
}

std::optional<TransportPacket> decode_transport_packet(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < Header::kWireSize) return std::nullopt;
  if (!wire::internet_checksum_ok(bytes)) return std::nullopt;
  wire::Reader r(bytes);
  TransportPacket packet;
  Header& h = packet.header;
  h.src_entity = r.u64();
  h.dst_entity = r.u64();
  h.transaction = r.u32();
  const std::uint8_t type = r.u8();
  if (type < 1 || type > 3) return std::nullopt;
  h.type = static_cast<PacketType>(type);
  h.group_size = r.u8();
  h.index = r.u8();
  h.flags = r.u8();
  h.timestamp = r.u32();
  h.mask = r.u32();
  r.skip(2);  // checksum (already verified)
  if (h.group_size == 0 || h.group_size > 32 || h.index >= h.group_size) {
    return std::nullopt;
  }
  packet.payload = bytes.subspan(Header::kWireSize);
  return packet;
}

}  // namespace srp::vmtp

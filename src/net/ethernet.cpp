#include "net/ethernet.hpp"

#include <algorithm>
#include <cstdio>

namespace srp::net {

std::string MacAddr::to_string() const {
  char buf[18];
  std::snprintf(buf, sizeof buf, "%02x:%02x:%02x:%02x:%02x:%02x", octets[0],
                octets[1], octets[2], octets[3], octets[4], octets[5]);
  return buf;
}

MacAddr MacAddr::from_index(std::uint16_t index) {
  MacAddr m;
  m.octets = {0x02, 0x00, 0x00, 0x00, static_cast<std::uint8_t>(index >> 8),
              static_cast<std::uint8_t>(index & 0xFF)};
  return m;
}

MacAddr MacAddr::broadcast() {
  MacAddr m;
  m.octets.fill(0xFF);
  return m;
}

void EthernetHeader::encode(wire::Writer& w) const {
  w.bytes(dst.octets);
  w.bytes(src.octets);
  w.u16(ether_type);
}

EthernetHeader EthernetHeader::decode(wire::Reader& r) {
  EthernetHeader h;
  auto d = r.view(6);
  std::copy(d.begin(), d.end(), h.dst.octets.begin());
  auto s = r.view(6);
  std::copy(s.begin(), s.end(), h.src.octets.begin());
  h.ether_type = r.u16();
  return h;
}

void EthernetHeader::reverse_wire(std::span<const std::uint8_t, kWireSize> wire,
                                  std::span<std::uint8_t, kWireSize> out) {
  // DstMAC and SrcMAC trade places; the EtherType stays.
  std::copy(wire.begin() + 6, wire.begin() + 12, out.begin());
  std::copy(wire.begin(), wire.begin() + 6, out.begin() + 6);
  std::copy(wire.begin() + 12, wire.end(), out.begin() + 12);
}

}  // namespace srp::net

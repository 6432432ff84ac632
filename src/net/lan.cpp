#include "net/lan.hpp"

namespace srp::net {

void LanSegment::on_arrival(const Arrival& arrival) {
  // A frame too short for an Ethernet header is noise; drop it.
  if (arrival.packet->size() < EthernetHeader::kWireSize) {
    ++unknown_mac_drops_;
    return;
  }
  wire::Reader r(arrival.packet->bytes);
  const EthernetHeader eth = EthernetHeader::decode(r);

  if (eth.dst.is_broadcast()) {
    for (const auto& [mac, out] : stations_) {
      if (out != arrival.in_port) relay(arrival, out);
    }
    return;
  }

  const auto it = stations_.find(eth.dst);
  if (it == stations_.end()) {
    ++unknown_mac_drops_;
    return;
  }
  if (it->second == arrival.in_port) return;  // already where it belongs
  relay(arrival, it->second);
}

void LanSegment::relay(const Arrival& arrival, int out_port) {
  TxPort& out = port(out_port);
  // Shared-medium timing: the station hears the frame as it is sent, so the
  // relay may start as soon as the link header has arrived (cut-through),
  // never before.
  const sim::Time earliest =
      arrival.head +
      sim::byte_time(EthernetHeader::kWireSize, arrival.rate_bps);
  out.enqueue(arrival.packet, TxMeta{}, earliest);
}

}  // namespace srp::net

// Ethernet-style link-layer framing.
//
// The paper's running example carries Sirpent packets across Ethernets: the
// portInfo field of a header segment holds the Ethernet header for the next
// hop, and the router swaps source/destination when it moves the segment to
// the trailer.  This module provides the 14-byte header codec and the MAC
// address type those examples need.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "wire/buffer.hpp"

namespace srp::net {

/// 48-bit MAC address.
struct MacAddr {
  std::array<std::uint8_t, 6> octets{};

  bool operator==(const MacAddr&) const = default;
  auto operator<=>(const MacAddr&) const = default;

  [[nodiscard]] bool is_broadcast() const {
    for (auto o : octets) {
      if (o != 0xFF) return false;
    }
    return true;
  }

  [[nodiscard]] std::string to_string() const;

  /// Deterministic test/example address: 02:00:00:00:hi:lo (locally
  /// administered, unicast).
  static MacAddr from_index(std::uint16_t index);
  static MacAddr broadcast();
};

/// Reserved EtherType for Sirpent/VIPER, per the paper: "an Ethernet ...
/// protocol type field contains a value associated with Sirpent".
inline constexpr std::uint16_t kEtherTypeSirpent = 0x88B5;
/// IPv4, for the IP baseline.
inline constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;
/// CVC signaling/data, for the concatenated-virtual-circuit baseline.
inline constexpr std::uint16_t kEtherTypeCvc = 0x88B6;

/// DstMAC(6) | SrcMAC(6) | EtherType(2).
struct EthernetHeader {
  MacAddr dst;
  MacAddr src;
  std::uint16_t ether_type = 0;

  static constexpr std::size_t kWireSize = 14;

  void encode(wire::Writer& w) const;
  static EthernetHeader decode(wire::Reader& r);

  /// The paper's per-hop rewrite: "the destination and source addresses are
  /// swapped" so the stored header becomes a correct return hop.
  [[nodiscard]] EthernetHeader reversed() const {
    return EthernetHeader{src, dst, ether_type};
  }

  /// reversed(), applied to an encoded header: @p out receives the
  /// encoding of the reversal of the header encoded in @p wire.
  static void reverse_wire(std::span<const std::uint8_t, kWireSize> wire,
                           std::span<std::uint8_t, kWireSize> out);

  bool operator==(const EthernetHeader&) const = default;
};

}  // namespace srp::net

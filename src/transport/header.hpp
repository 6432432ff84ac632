// VMTP-style transport packet header.
//
// Carries everything the end-to-end argument moves out of the internetwork
// layer (paper §4): 64-bit entity identifiers that are unique independent
// of network addresses (misdelivery detection), the creation timestamp
// (packet lifetime), group/index/mask fields (packet groups + selective
// retransmission), and an end-to-end checksum (Sirpent routers keep none).
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "wire/buffer.hpp"

namespace srp::vmtp {

enum class PacketType : std::uint8_t {
  kRequest = 1,
  kResponse = 2,
  kNack = 3,  ///< selective-retransmission status: mask = packets received
};

inline constexpr std::uint8_t kFlagRetransmission = 0x01;

struct Header {
  std::uint64_t src_entity = 0;
  std::uint64_t dst_entity = 0;
  std::uint32_t transaction = 0;
  PacketType type = PacketType::kRequest;
  std::uint8_t group_size = 1;  ///< packets in this packet group
  std::uint8_t index = 0;       ///< this packet's position in the group
  std::uint8_t flags = 0;
  std::uint32_t timestamp = 0;  ///< creation time, ms ring
  std::uint32_t mask = 0;       ///< NACK: bitmap of received indices

  static constexpr std::size_t kWireSize = 8 + 8 + 4 + 1 + 1 + 1 + 1 + 4 +
                                           4 + 2;

  bool operator==(const Header&) const = default;
};

/// Encodes header + payload with the trailing end-to-end checksum filled in.
wire::Bytes encode_transport_packet(const Header& header,
                                    std::span<const std::uint8_t> payload);
/// The same encoding written over @p out, whose capacity is kept.
void encode_transport_packet(const Header& header,
                             std::span<const std::uint8_t> payload,
                             wire::Bytes& out);

/// Decoded packet; `payload` views into the caller's buffer.
struct TransportPacket {
  Header header;
  std::span<const std::uint8_t> payload;
};

/// Decodes and verifies the checksum; nullopt on damage (the transport's
/// answer to Sirpent's checksum-free network layer).
std::optional<TransportPacket> decode_transport_packet(
    std::span<const std::uint8_t> bytes);

}  // namespace srp::vmtp

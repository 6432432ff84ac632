// Multicast support (paper §2): three mechanisms.
//
//  1. Reserved multi-port values — a router port id configured to mean a
//     *group* of physical ports; the packet is copied out each one.  (This
//     is router configuration, see viper::ViperRouter::define_logical_port.)
//  2. Tree-structured routes (as proposed with Blazenet) — "multiple header
//     segments specified for a routing point, with each header segment
//     causing a copy of the packet to be routed according to the port it
//     specifies".  Encoded here as a branch block carried in the portInfo
//     of a segment addressed to the branching router.
//  3. Multicast agents — the packet is routed to an agent which "explodes"
//     it to the members; the agent payload layout is defined here.
//
// Both encodings are containers of already-encoded sub-route blobs so that
// this module stays independent of the concrete (VIPER) segment codec.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "wire/buffer.hpp"

namespace srp::core {

/// Magic first byte distinguishing a tree-branch portInfo from a link
/// header (a link header's first byte is a MAC octet; 0x54 'T' is reserved
/// in our deployments' locally-administered plan).
inline constexpr std::uint8_t kTreeInfoTag = 0x54;

/// Encodes branch sub-routes for mechanism 2.  Each blob is the full
/// encoded segment sequence for one subtree.
wire::Bytes encode_tree_info(const std::vector<wire::Bytes>& subroutes);

/// True when a portInfo field carries a tree-branch block.  Takes a view
/// so the router can ask without materializing the field.
bool is_tree_info(std::span<const std::uint8_t> port_info);

/// Decodes the branch blobs (throws wire::CodecError on malformed input).
std::vector<wire::Bytes> decode_tree_info(
    std::span<const std::uint8_t> port_info);

/// Agent explosion payload (mechanism 3): member route blobs + user data.
struct AgentPayload {
  std::vector<wire::Bytes> member_routes;
  wire::Bytes data;
};

wire::Bytes encode_agent_payload(const AgentPayload& payload);
AgentPayload decode_agent_payload(const wire::Bytes& bytes);

}  // namespace srp::core

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
#include <optional>
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

/// A validated tree-branch block, iterated as branch spans into the
/// portInfo it was parsed from (valid only while that buffer is).
class TreeView {
 public:
  /// The block in @p port_info — tag, count, then count u16-length-prefixed
  /// branch blobs and nothing after — or nullopt when it is malformed.
  /// The whole block is checked here, so iterating cannot fail.
  static std::optional<TreeView> parse(
      std::span<const std::uint8_t> port_info) noexcept;

  /// Walks the validated blobs: each step reads one u16 length.
  class iterator {
   public:
    explicit iterator(const std::uint8_t* at) : at_(at) {}
    std::span<const std::uint8_t> operator*() const {
      return {at_ + 2, length()};
    }
    iterator& operator++() {
      at_ += 2 + length();
      return *this;
    }
    bool operator==(const iterator&) const = default;

   private:
    [[nodiscard]] std::size_t length() const {
      return static_cast<std::size_t>(at_[0]) << 8 | at_[1];
    }
    const std::uint8_t* at_;
  };

  [[nodiscard]] iterator begin() const { return iterator(branches_.data()); }
  [[nodiscard]] iterator end() const {
    return iterator(branches_.data() + branches_.size());
  }

 private:
  explicit TreeView(std::span<const std::uint8_t> branches)
      : branches_(branches) {}

  std::span<const std::uint8_t> branches_;  ///< the length-prefixed blobs
};

/// Agent explosion payload (mechanism 3): member route blobs + user data.
struct AgentPayload {
  std::vector<wire::Bytes> member_routes;
  wire::Bytes data;
};

wire::Bytes encode_agent_payload(const AgentPayload& payload);
/// The payload in @p bytes — count, then count u16-length-prefixed route
/// blobs, then the data — or nullopt when a blob runs past the end.
std::optional<AgentPayload> decode_agent_payload(
    std::span<const std::uint8_t> bytes) noexcept;

}  // namespace srp::core

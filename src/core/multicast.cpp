#include "core/multicast.hpp"

namespace srp::core {

wire::Bytes encode_tree_info(const std::vector<wire::Bytes>& subroutes) {
  if (subroutes.empty() || subroutes.size() > 255) {
    throw wire::CodecError("tree info: branch count out of range");
  }
  wire::Writer w;
  w.u8(kTreeInfoTag);
  w.u8(static_cast<std::uint8_t>(subroutes.size()));
  for (const auto& blob : subroutes) {
    if (blob.size() > 0xFFFF) {
      throw wire::CodecError("tree info: subroute too large");
    }
    w.u16(static_cast<std::uint16_t>(blob.size()));
    w.bytes(blob);
  }
  return std::move(w).take();
}

bool is_tree_info(std::span<const std::uint8_t> port_info) {
  return port_info.size() >= 2 && port_info[0] == kTreeInfoTag;
}

std::optional<TreeView> TreeView::parse(
    std::span<const std::uint8_t> port_info) noexcept {
  if (!is_tree_info(port_info)) return std::nullopt;
  const std::size_t count = port_info[1];
  const std::span<const std::uint8_t> branches = port_info.subspan(2);
  std::size_t offset = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (branches.size() - offset < 2) return std::nullopt;
    const std::size_t len = static_cast<std::size_t>(branches[offset]) << 8 |
                            branches[offset + 1];
    if (branches.size() - offset - 2 < len) return std::nullopt;
    offset += 2 + len;
  }
  if (offset != branches.size()) return std::nullopt;
  return TreeView(branches);
}

wire::Bytes encode_agent_payload(const AgentPayload& payload) {
  if (payload.member_routes.size() > 255) {
    throw wire::CodecError("agent payload: too many members");
  }
  wire::Writer w;
  w.u8(static_cast<std::uint8_t>(payload.member_routes.size()));
  for (const auto& blob : payload.member_routes) {
    if (blob.size() > 0xFFFF) {
      throw wire::CodecError("agent payload: route too large");
    }
    w.u16(static_cast<std::uint16_t>(blob.size()));
    w.bytes(blob);
  }
  w.bytes(payload.data);
  return std::move(w).take();
}

std::optional<AgentPayload> decode_agent_payload(
    std::span<const std::uint8_t> bytes) noexcept {
  if (bytes.empty()) return std::nullopt;
  const std::size_t count = bytes[0];
  std::size_t offset = 1;
  AgentPayload p;
  p.member_routes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (bytes.size() - offset < 2) return std::nullopt;
    const std::size_t len =
        static_cast<std::size_t>(bytes[offset]) << 8 | bytes[offset + 1];
    offset += 2;
    if (bytes.size() - offset < len) return std::nullopt;
    const auto blob = bytes.subspan(offset, len);
    p.member_routes.emplace_back(blob.begin(), blob.end());
    offset += len;
  }
  p.data.assign(bytes.begin() + static_cast<std::ptrdiff_t>(offset),
                bytes.end());
  return p;
}

}  // namespace srp::core

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

std::vector<wire::Bytes> decode_tree_info(
    std::span<const std::uint8_t> port_info) {
  wire::Reader r(port_info);
  if (r.u8() != kTreeInfoTag) {
    throw wire::CodecError("tree info: bad tag");
  }
  const std::uint8_t count = r.u8();
  std::vector<wire::Bytes> out;
  out.reserve(count);
  for (std::uint8_t i = 0; i < count; ++i) {
    const std::uint16_t len = r.u16();
    out.push_back(r.bytes(len));
  }
  if (!r.done()) {
    throw wire::CodecError("tree info: trailing bytes");
  }
  return out;
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

AgentPayload decode_agent_payload(const wire::Bytes& bytes) {
  wire::Reader r(bytes);
  AgentPayload p;
  const std::uint8_t count = r.u8();
  p.member_routes.reserve(count);
  for (std::uint8_t i = 0; i < count; ++i) {
    const std::uint16_t len = r.u16();
    p.member_routes.push_back(r.bytes(len));
  }
  p.data = r.bytes(r.remaining());
  return p;
}

}  // namespace srp::core

#include "viper/codec.hpp"

#include <array>

#include "check/analysis.hpp"
#include "check/contract.hpp"
#include "core/trailer.hpp"
#include "crypto/siphash.hpp"

namespace srp::viper {
namespace {

constexpr std::size_t kLengthEscape = 255;

std::size_t field_wire_size(std::size_t len) {
  // A field longer than 254 octets is prefixed by its 32-bit length.
  return len > 254 ? 4 + len : len;
}

std::uint8_t encode_flags(const core::SegmentFlags& f) {
  std::uint8_t v = 0;
  if (f.vnt) v |= kFlagVnt;
  if (f.dib) v |= kFlagDib;
  if (f.rpf) v |= kFlagRpf;
  if (f.trm) v |= kFlagTrm;
  return v;
}

core::SegmentFlags decode_flags(std::uint8_t v) {
  core::SegmentFlags f;
  f.vnt = (v & kFlagVnt) != 0;
  f.dib = (v & kFlagDib) != 0;
  f.rpf = (v & kFlagRpf) != 0;
  f.trm = (v & kFlagTrm) != 0;
  return f;
}

void encode_length_byte(wire::Writer& w, std::size_t len) {
  w.u8(len > 254 ? static_cast<std::uint8_t>(kLengthEscape)
                 : static_cast<std::uint8_t>(len));
}

void encode_field(wire::Writer& w, const wire::Bytes& field) {
  if (field.size() > 254) {
    w.u32(static_cast<std::uint32_t>(field.size()));
  }
  w.bytes(field);
}

wire::Bytes decode_field(wire::Reader& r, std::uint8_t length_byte) {
  std::size_t len = length_byte;
  if (length_byte == kLengthEscape) {
    len = r.u32();
    if (len <= 254) {
      throw wire::CodecError("VIPER: escaped length not > 254");
    }
  }
  return r.bytes(len);
}

/// decode_field without the copy: same framing rules (big-endian u32
/// length escape), returns a view over @p base.  Raw-pointer twin of the
/// Reader-based decode_field so the per-hop decode pays one bounds check
/// per field instead of one per byte.
std::span<const std::uint8_t> decode_field_view_raw(
    const std::uint8_t* base, std::size_t avail, std::size_t& pos,
    std::uint8_t length_byte) {
  std::size_t len = length_byte;
  if (length_byte == kLengthEscape) {
    if (avail - pos < 4) {
      throw wire::CodecError("VIPER: truncated field length");
    }
    len = static_cast<std::size_t>(base[pos]) << 24 |
          static_cast<std::size_t>(base[pos + 1]) << 16 |
          static_cast<std::size_t>(base[pos + 2]) << 8 |
          static_cast<std::size_t>(base[pos + 3]);
    pos += 4;
    if (len <= 254) {
      throw wire::CodecError("VIPER: escaped length not > 254");
    }
  }
  if (avail - pos < len) {
    throw wire::CodecError("VIPER: truncated field");
  }
  const std::span<const std::uint8_t> view{base + pos, len};
  pos += len;
  return view;
}

/// Raw-append twin of encode_length_byte / encode_field (big-endian u32
/// escape, same as wire::Writer).  The appends land in a capacity-warm
/// arena buffer, so they amortize to zero allocations; srp-lint sees them
/// via the SRP_ALLOC_OK blessings at the call sites in append_segment_raw.
void append_u32_raw(wire::Bytes& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

}  // namespace

std::size_t segment_wire_size(const core::HeaderSegment& segment) {
  return 4 + field_wire_size(segment.token.size()) +
         field_wire_size(segment.port_info.size());
}

SRP_HOT_PATH void encode_segment(wire::Writer& w,
                                 const core::HeaderSegment& segment) {
  if (segment.token.size() > 0xFFFFFFFFull ||
      segment.port_info.size() > 0xFFFFFFFFull) {
    throw wire::CodecError("VIPER: field too large");
  }
  [[maybe_unused]] const std::size_t before = w.size();
  encode_length_byte(w, segment.port_info.size());
  encode_length_byte(w, segment.token.size());
  w.u8(segment.port);
  w.u8(static_cast<std::uint8_t>(encode_flags(segment.flags) << 4 |
                                 (segment.tos.priority & 0x0F)));
  encode_field(w, segment.token);
  encode_field(w, segment.port_info);
  // Cut-through hardware sizes the segment from the fixed prefix alone; the
  // encoder must agree with that arithmetic exactly.
  SIRPENT_ENSURES(w.size() - before == segment_wire_size(segment));
}

SRP_HOT_PATH core::HeaderSegment decode_segment(wire::Reader& r) {
  [[maybe_unused]] const std::size_t start = r.position();
  const std::uint8_t info_len = r.u8();
  const std::uint8_t token_len = r.u8();
  core::HeaderSegment seg;
  seg.port = r.u8();
  const std::uint8_t fp = r.u8();
  seg.flags = decode_flags(static_cast<std::uint8_t>(fp >> 4));
  seg.tos.priority = fp & 0x0F;
  seg.tos.drop_if_blocked = seg.flags.dib;
  seg.token = decode_field(r, token_len);
  seg.port_info = decode_field(r, info_len);
  // Decode must consume exactly what the encoder would produce — the
  // router's cut-through offset arithmetic depends on it.  (VNT clearing of
  // port_info below happens after the bytes were consumed.)
  SIRPENT_ENSURES(r.position() - start == segment_wire_size(seg));
  if (seg.flags.vnt && !seg.flags.trm) {
    // "the portInfo field is void ... may still be non-zero if the PortInfo
    // field is used for padding" — padding is discarded on decode.
    seg.port_info.clear();
  }
  return seg;
}

SRP_HOT_PATH SegmentView decode_segment_view(
    std::span<const std::uint8_t> bytes, std::size_t offset) {
  if (offset > bytes.size()) {
    throw wire::CodecError("VIPER: segment offset out of range");
  }
  // Raw-pointer parse: the fixed prefix is validated with one bounds
  // check and each field with one more, instead of the Reader's check
  // per byte — this is the entry point of every router hop.
  const std::uint8_t* base = bytes.data() + offset;
  const std::size_t avail = bytes.size() - offset;
  if (avail < 4) {
    throw wire::CodecError("VIPER: truncated segment prefix");
  }
  const std::uint8_t info_len = base[0];
  const std::uint8_t token_len = base[1];
  SegmentView v;
  v.port = base[2];
  const std::uint8_t fp = base[3];
  v.flags = decode_flags(static_cast<std::uint8_t>(fp >> 4));
  v.tos.priority = fp & 0x0F;
  v.tos.drop_if_blocked = v.flags.dib;
  std::size_t pos = 4;
  v.token = decode_field_view_raw(base, avail, pos, token_len);
  v.port_info = decode_field_view_raw(base, avail, pos, info_len);
  v.wire_size = pos;
  // Same consumption arithmetic as decode_segment — computed before the
  // VNT padding discard below, which empties the view but not the wire.
  SIRPENT_ENSURES(v.wire_size == 4 + field_wire_size(v.token.size()) +
                                     field_wire_size(v.port_info.size()));
  if (v.flags.vnt && !v.flags.trm) {
    // Padding is discarded on decode, exactly as decode_segment does.
    v.port_info = {};
  }
  return v;
}

core::HeaderSegment to_segment(const SegmentView& view) {
  core::HeaderSegment seg;
  seg.port = view.port;
  seg.tos = view.tos;
  seg.flags = view.flags;
  seg.token.assign(view.token.begin(), view.token.end());
  seg.port_info.assign(view.port_info.begin(), view.port_info.end());
  return seg;
}

SRP_HOT_PATH void append_segment_raw(wire::Bytes& out, std::uint8_t port,
                                     const core::TypeOfService& tos,
                                     const core::SegmentFlags& flags,
                                     std::span<const std::uint8_t> token,
                                     std::span<const std::uint8_t> port_info) {
  if (token.size() > 0xFFFFFFFFull || port_info.size() > 0xFFFFFFFFull) {
    throw wire::CodecError("VIPER: field too large");
  }
  [[maybe_unused]] const std::size_t before = out.size();
  // Every append below lands in a caller-owned buffer that the router
  // keeps capacity-warm (arena slabs), so the blessed sites
  // amortize to zero allocations (pinned by tests/alloc_budget_test.cpp).
  // The fixed prefix goes in as one insert, not four push_backs: the
  // per-byte growth checks are measurable on the per-hop path.
  const std::uint8_t prefix[4] = {
      port_info.size() > 254 ? static_cast<std::uint8_t>(kLengthEscape)
                             : static_cast<std::uint8_t>(port_info.size()),
      token.size() > 254 ? static_cast<std::uint8_t>(kLengthEscape)
                         : static_cast<std::uint8_t>(token.size()),
      port,
      static_cast<std::uint8_t>(encode_flags(flags) << 4 |
                                (tos.priority & 0x0F))};
  SRP_ALLOC_OK(out.insert(out.end(), prefix, prefix + 4));
  if (token.size() > 254) {
    SRP_ALLOC_OK(append_u32_raw(out, static_cast<std::uint32_t>(token.size())));
  }
  if (!token.empty()) {
    SRP_ALLOC_OK(out.insert(out.end(), token.begin(), token.end()));
  }
  if (port_info.size() > 254) {
    SRP_ALLOC_OK(
        append_u32_raw(out, static_cast<std::uint32_t>(port_info.size())));
  }
  if (!port_info.empty()) {
    SRP_ALLOC_OK(out.insert(out.end(), port_info.begin(), port_info.end()));
  }
  // Byte-identical to encode_segment of the equivalent HeaderSegment; the
  // size agreement is the same contract encode_segment carries.
  SIRPENT_ENSURES(out.size() - before == 4 + field_wire_size(token.size()) +
                                             field_wire_size(port_info.size()));
}

bool reverse_trailer_in_place(std::span<std::uint8_t> trailer,
                              std::size_t* segment_count) {
  // Segment sizes, walked off the fixed prefixes without materializing any
  // field.  A trailer holds at most one entry per traversed hop plus
  // truncation marks; 2 * kMaxSegments is a generous ceiling.
  std::array<std::size_t, 2 * core::kMaxSegments> sizes;
  std::size_t count = 0;
  std::size_t offset = 0;
  while (offset < trailer.size()) {
    if (count == sizes.size()) return false;
    std::size_t segment_size = 0;
    try {
      segment_size = decode_segment_view(trailer, offset).wire_size;
    } catch (const wire::CodecError&) {
      return false;
    }
    sizes[count++] = segment_size;
    offset += segment_size;
  }
  SIRPENT_INVARIANT(offset == trailer.size());
  core::reverse_records_in_place(trailer, std::span(sizes).first(count));
  if (segment_count != nullptr) *segment_count = count;
  return true;
}

wire::Bytes encode_route(const core::SourceRoute& route) {
  wire::Writer w;
  for (const auto& seg : route.segments) encode_segment(w, seg);
  return std::move(w).take();
}

std::vector<core::HeaderSegment> decode_segments(wire::Reader& r) {
  std::vector<core::HeaderSegment> out;
  while (!r.done()) out.push_back(decode_segment(r));
  return out;
}

std::size_t packet_wire_size(const core::SourceRoute& route,
                             std::size_t data_size) {
  std::size_t size = 2 + data_size;
  for (const auto& seg : route.segments) size += segment_wire_size(seg);
  return size;
}

void encode_packet(wire::Writer& w, const core::SourceRoute& route,
                   std::span<const std::uint8_t> data) {
  if (route.segments.empty() || route.segments.size() > core::kMaxSegments) {
    throw wire::CodecError("VIPER: route length out of range");
  }
  if (data.size() > 0xFFFF) {
    throw wire::CodecError("VIPER: data exceeds 16-bit length");
  }
  [[maybe_unused]] const std::size_t start = w.size();
  for (const auto& seg : route.segments) {
    if (!seg.is_legal()) {
      throw wire::CodecError("VIPER: truncation mark in route");
    }
    encode_segment(w, seg);
  }
  w.u16(static_cast<std::uint16_t>(data.size()));
  w.bytes(data);
  SIRPENT_ENSURES(w.size() - start == packet_wire_size(route, data.size()));
}

wire::Bytes encode_packet(const core::SourceRoute& route,
                          std::span<const std::uint8_t> data) {
  wire::Writer w(packet_wire_size(route, data.size()));
  encode_packet(w, route, data);
  return std::move(w).take();
}

DeliveredBody decode_delivered_body(wire::Reader& r) {
  DeliveredBody body;
  const std::uint16_t data_len = r.u16();
  if (r.remaining() >= data_len) {
    body.data = r.bytes(data_len);
    body.trailer = decode_segments(r);
    SIRPENT_ENSURES(body.data.size() == data_len);
    SIRPENT_ENSURES(r.done());
    return body;
  }
  // Truncated in flight: the data was cut short.  A truncating router
  // appends a 4-byte TRM segment after the cut; recover it if present so
  // the receiver sees an explicit truncation mark.
  wire::Bytes rest = r.bytes(r.remaining());
  if (rest.size() >= 4) {
    wire::Reader tail{std::span{rest}.subspan(rest.size() - 4)};
    try {
      core::HeaderSegment mark = decode_segment(tail);
      if (mark.flags.trm) {
        body.trailer.push_back(mark);
        rest.resize(rest.size() - 4);
      }
    } catch (const wire::CodecError&) {
      // Tail does not parse as a mark: leave the bytes as data.
    }
  }
  body.data = std::move(rest);
  return body;
}

std::uint64_t route_digest(const core::SourceRoute& route) {
  // Serialize the token-free shape of the route and SipHash it under a
  // fixed key: the digest must be identical for every packet sent down
  // the same path, while distinct paths should collide only by accident.
  wire::Writer w(route.hops() * 8);
  for (const auto& seg : route.segments) {
    w.u8(seg.port);
    w.u8(static_cast<std::uint8_t>((seg.tos.priority & 0x0F) |
                                   (seg.tos.drop_if_blocked ? 0x10 : 0)));
    w.u8(static_cast<std::uint8_t>((seg.flags.vnt ? 0x8 : 0) |
                                   (seg.flags.dib ? 0x4 : 0) |
                                   (seg.flags.rpf ? 0x2 : 0) |
                                   (seg.flags.trm ? 0x1 : 0)));
    if (seg.port_info.size() > 0xFF) {
      w.u8(0xFF);
      w.u32(static_cast<std::uint32_t>(seg.port_info.size()));
    } else {
      w.u8(static_cast<std::uint8_t>(seg.port_info.size()));
    }
    w.bytes(seg.port_info);
  }
  static constexpr crypto::SipKey kRouteDigestKey{0x53495250454E5421ULL,
                                                  0x464C4F574B455921ULL};
  const auto digest = crypto::siphash24(kRouteDigestKey, w.view());
  // 0 means "unattributed" in flow accounting; dodge the (astronomically
  // unlikely) collision so real routes are always attributable.
  return digest == 0 ? 1 : digest;
}

}  // namespace srp::viper

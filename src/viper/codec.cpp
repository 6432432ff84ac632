#include "viper/codec.hpp"

#include <array>
#include <optional>

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

/// Frames one variable-length field behind @p length_byte (a byte of 255
/// escapes to a big-endian u32 length, which must exceed 254): returns a
/// view over @p base, or nullopt if the escape or the field runs past
/// @p avail or an escaped length is at most 254.  Raw pointers, so the
/// per-hop parse pays one bounds check per field instead of one per byte.
std::optional<std::span<const std::uint8_t>> frame_field(
    const std::uint8_t* base, std::size_t avail, std::size_t& pos,
    std::uint8_t length_byte) noexcept {
  std::size_t len = length_byte;
  if (length_byte == kLengthEscape) {
    if (avail - pos < 4) return std::nullopt;
    len = static_cast<std::size_t>(base[pos]) << 24 |
          static_cast<std::size_t>(base[pos + 1]) << 16 |
          static_cast<std::size_t>(base[pos + 2]) << 8 |
          static_cast<std::size_t>(base[pos + 3]);
    pos += 4;
    if (len <= 254) return std::nullopt;
  }
  if (avail - pos < len) return std::nullopt;
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

SRP_HOT_PATH std::optional<SegmentView> parse_segment(
    std::span<const std::uint8_t> bytes, std::size_t offset) noexcept {
  // Raw-pointer parse: the fixed prefix is validated with one bounds
  // check and each field with one more, instead of the Reader's check
  // per byte — this is the entry point of every router hop.
  if (offset > bytes.size() || bytes.size() - offset < 4) return std::nullopt;
  const std::uint8_t* base = bytes.data() + offset;
  const std::size_t avail = bytes.size() - offset;
  const std::uint8_t info_len = base[0];
  const std::uint8_t token_len = base[1];
  SegmentView v;
  v.port = base[2];
  const std::uint8_t fp = base[3];
  v.flags = decode_flags(static_cast<std::uint8_t>(fp >> 4));
  v.tos.priority = fp & 0x0F;
  v.tos.drop_if_blocked = v.flags.dib;
  std::size_t pos = 4;
  const auto token = frame_field(base, avail, pos, token_len);
  if (!token) return std::nullopt;
  const auto port_info = frame_field(base, avail, pos, info_len);
  if (!port_info) return std::nullopt;
  v.token = *token;
  v.port_info = *port_info;
  v.wire_size = pos;
  // Same consumption arithmetic as the encoder's segment_wire_size —
  // computed before the VNT padding discard below, which empties the view
  // but not the wire.
  SIRPENT_ENSURES(v.wire_size == 4 + field_wire_size(v.token.size()) +
                                     field_wire_size(v.port_info.size()));
  if (v.flags.vnt && !v.flags.trm) {
    // "the portInfo field is void ... may still be non-zero if the PortInfo
    // field is used for padding" — padding is discarded on decode.
    v.port_info = {};
  }
  return v;
}

SegmentView decode_segment_view(std::span<const std::uint8_t> bytes,
                                std::size_t offset) {
  const std::optional<SegmentView> v = parse_segment(bytes, offset);
  if (!v) throw wire::CodecError("VIPER: malformed segment");
  return *v;
}

core::HeaderSegment decode_segment(wire::Reader& r) {
  const SegmentView v = decode_segment_view(r.rest(), 0);
  r.skip(v.wire_size);
  return to_segment(v);
}

core::HeaderSegment to_segment(const SegmentView& view) {
  core::HeaderSegment seg;
  assign_segment(seg, view);
  return seg;
}

void assign_segment(core::HeaderSegment& out, const SegmentView& view) {
  out.port = view.port;
  out.tos = view.tos;
  out.flags = view.flags;
  out.token.assign(view.token.begin(), view.token.end());
  out.port_info.assign(view.port_info.begin(), view.port_info.end());
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
    const std::optional<SegmentView> entry = parse_segment(trailer, offset);
    if (!entry) return false;
    sizes[count++] = entry->wire_size;
    offset += entry->wire_size;
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

SRP_HOT_PATH std::optional<BodyView> parse_body(
    std::span<const std::uint8_t> body) noexcept {
  if (body.size() < 2) return std::nullopt;
  const std::size_t data_len = static_cast<std::size_t>(body[0]) << 8 |
                               static_cast<std::size_t>(body[1]);
  const std::span<const std::uint8_t> rest = body.subspan(2);
  BodyView v;
  if (rest.size() < data_len) {
    // Cut short in flight: a trailing 4-byte segment with the TRM flag is
    // the mark the truncating router appended; anything else is data.
    v.data = rest;
    if (rest.size() >= 4) {
      const auto mark = parse_segment(rest, rest.size() - 4);
      if (mark && mark->flags.trm) {
        v.data = rest.first(rest.size() - 4);
        v.trailer = rest.last(4);
        v.trailer_segments = 1;
      }
    }
    return v;
  }
  v.data = rest.first(data_len);
  v.trailer = rest.subspan(data_len);
  for (std::size_t offset = 0; offset < v.trailer.size();
       ++v.trailer_segments) {
    const std::optional<SegmentView> entry = parse_segment(v.trailer, offset);
    if (!entry) return std::nullopt;
    offset += entry->wire_size;
  }
  return v;
}

DeliveredBody decode_delivered_body(wire::Reader& r) {
  const std::optional<BodyView> view = parse_body(r.rest());
  if (!view) throw wire::CodecError("VIPER: malformed body");
  r.skip(r.remaining());
  wire::Reader trailer(view->trailer);
  return {wire::Bytes(view->data.begin(), view->data.end()),
          decode_segments(trailer)};
}

namespace {

/// Fixed SipHash key of route_digest().
constexpr crypto::SipKey kRouteDigestKey{0x53495250454E5421ULL,
                                         0x464C4F574B455921ULL};

}  // namespace

SRP_HOT_PATH std::uint64_t route_digest(const core::SourceRoute& route,
                                        wire::Bytes& scratch) {
  // Serialize the token-free shape of the route and SipHash it under a
  // fixed key: the digest must be identical for every packet sent down
  // the same path, while distinct paths should collide only by accident.
  // The serialization reuses the caller's buffer, so a warm call allocates
  // nothing.
  SRP_ALLOC_OK(wire::Writer w(std::move(scratch), route.hops() * 8));
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
  scratch = std::move(w).take();
  const auto digest = crypto::siphash24(kRouteDigestKey, scratch);
  // 0 means "unattributed" in flow accounting; dodge the (astronomically
  // unlikely) collision so real routes are always attributable.
  return digest == 0 ? 1 : digest;
}

}  // namespace srp::viper

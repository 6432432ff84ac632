// VIPER wire format (paper §5, Figure 1).
//
//    0                   1
//    0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5
//   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//   |PortInfoLength |PortTokenLength|
//   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//   |     Port      | Flags |Priorit|
//   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//   >          Port Token           <
//   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//   >          PortInfo             <
//   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//
// The fixed 32-bit prefix comes first so cut-through hardware learns the
// variable-length sizes "as far in advance as possible"; a length byte of
// 255 escapes to a 32-bit length occupying the first four octets of the
// corresponding field.  The smallest segment is 32 bits.
//
// Packet layout used by this implementation (concretization documented in
// DESIGN.md — the paper leaves the data/trailer boundary to the transport):
//
//   ViperPacket := Segment*  DataLen(u16)  Data  TrailerSegment*
//
// Routers never read DataLen; only end hosts do.  Trailer entries reuse the
// header-segment encoding; the truncation mark is a segment with the TRM
// flag, "not a legal Sirpent header segment".
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "core/segment.hpp"
#include "wire/buffer.hpp"

namespace srp::viper {

/// VIPER transmission unit: "The VIPER transmission unit is 1500 bytes."
inline constexpr std::size_t kViperMtu = 1500;

/// Flags nibble bit assignment (VNT/DIB/RPF from the paper; TRM ours).
inline constexpr std::uint8_t kFlagVnt = 0x8;
inline constexpr std::uint8_t kFlagDib = 0x4;
inline constexpr std::uint8_t kFlagRpf = 0x2;
inline constexpr std::uint8_t kFlagTrm = 0x1;

/// Encoded size of @p segment in octets.
std::size_t segment_wire_size(const core::HeaderSegment& segment);

/// Appends one encoded segment.
void encode_segment(wire::Writer& w, const core::HeaderSegment& segment);

/// A parsed segment whose variable fields are *views* into the packet
/// buffer instead of copies — the router's and the host's header
/// representation.  A VNT segment's padding is discarded (`port_info` is
/// empty; `wire_size` still counts it); the spans stay valid only while
/// the underlying buffer does.
struct SegmentView {
  std::uint8_t port = 0;
  core::TypeOfService tos;
  core::SegmentFlags flags;
  std::span<const std::uint8_t> token;
  std::span<const std::uint8_t> port_info;
  std::size_t wire_size = 0;  ///< encoded size of this segment

  [[nodiscard]] bool is_legal() const { return !flags.trm; }
  /// Same test as core::HeaderSegment::is_telemetry_record.
  [[nodiscard]] bool is_telemetry_record() const {
    return flags.trm && !flags.vnt && port == core::kTelemetryPort;
  }
};

/// The owning segment equal to @p view (fields copied out of the buffer).
core::HeaderSegment to_segment(const SegmentView& view);
/// Makes @p out equal to @p view, reusing the capacity of its byte fields.
void assign_segment(core::HeaderSegment& out, const SegmentView& view);

/// Parses the segment starting at @p offset of @p bytes without copying
/// its fields.  nullopt if the 4-byte prefix or a field runs past the end,
/// or a length byte of 255 escapes to a 32-bit length of at most 254.
/// Allocation-free and throw-free — the one VIPER segment parser: the
/// router and host per-packet paths and every decoder below go through it.
std::optional<SegmentView> parse_segment(std::span<const std::uint8_t> bytes,
                                         std::size_t offset) noexcept;

/// parse_segment for callers that want an exception: throws
/// wire::CodecError on malformed input.  Kept for perfbench's replay;
/// delete in the benchmark change (ROADMAP item 5).
SegmentView decode_segment_view(std::span<const std::uint8_t> bytes,
                                std::size_t offset);

/// parse_segment + to_segment at the reader's position, advancing it by
/// the segment's wire size; throws wire::CodecError (reader unmoved) where
/// parse_segment returns nullopt.  Kept for perfbench's replay; delete in
/// the benchmark change (ROADMAP item 5).
core::HeaderSegment decode_segment(wire::Reader& r);

/// Appends the encoding of one segment to @p out by raw byte appends —
/// byte-identical to encode_segment of the equivalent HeaderSegment, but
/// writing into a caller-owned (typically arena-backed, capacity-warm)
/// buffer instead of a Writer.  The zero-copy rewrite must not move a
/// single byte on the wire: golden_wire_test pins the agreement.
void append_segment_raw(wire::Bytes& out, std::uint8_t port,
                        const core::TypeOfService& tos,
                        const core::SegmentFlags& flags,
                        std::span<const std::uint8_t> token,
                        std::span<const std::uint8_t> port_info);

/// The paper's return-route construction (§2): "To generate the return
/// route, the receiver locates the beginning of the trailer of (former)
/// header segments and copies each segment into a separate return address
/// area in reverse order ... Because the network-specific portions of the
/// header segments have been modified as required by the routers along the
/// original route, the reversal process is entirely network-independent."
/// Each router appended an entry whose `port` is the return port through
/// it and whose `port_info` is the (already reversed) link header of the
/// network the packet arrived on, so the reversed entries are, verbatim,
/// the hops of a route back to the origin.
///
/// Reverses the order of the trailer segments inside @p trailer *in place*
/// (segment reversal is length-preserving, so no copy is needed): walks
/// the segment sizes with parse_segment, then rotates the records
/// with core::reverse_records_in_place.  Returns false — leaving the
/// buffer unchanged — if the bytes do not parse as a whole number of
/// segments or there are more than 2 * core::kMaxSegments of them.  On
/// success, @p segment_count (when given) receives the number of segments.
bool reverse_trailer_in_place(std::span<std::uint8_t> trailer,
                              std::size_t* segment_count = nullptr);

/// Encodes a full route (all segments, in order).
wire::Bytes encode_route(const core::SourceRoute& route);

/// decode_segment until the reader is exhausted, for the directory's route
/// blobs.  Throws wire::CodecError on a malformed segment.  When the
/// benchmark change (ROADMAP item 5) deletes decode_segment, loop over
/// parse_segment + to_segment here instead.
std::vector<core::HeaderSegment> decode_segments(wire::Reader& r);

/// Encoded size of the packet body encode_packet builds: every route
/// segment, the 2-byte DataLen and @p data_size octets of data.
std::size_t packet_wire_size(const core::SourceRoute& route,
                             std::size_t data_size);

/// Appends the body of a fresh VIPER packet to @p w: route + DataLen +
/// data, with an empty trailer.  Throws if the route is too long
/// (core::kMaxSegments), holds a truncation mark, or the data exceeds the
/// 16-bit length field.
void encode_packet(wire::Writer& w, const core::SourceRoute& route,
                   std::span<const std::uint8_t> data);

/// encode_packet into an exactly sized buffer of its own.
wire::Bytes encode_packet(const core::SourceRoute& route,
                          std::span<const std::uint8_t> data);

/// [DataLen][Data][Trailer...] as views into the packet buffer.
struct BodyView {
  std::span<const std::uint8_t> data;
  std::span<const std::uint8_t> trailer;  ///< whole segments, raw order
  std::size_t trailer_segments = 0;
};

/// Parses [DataLen][Data][Trailer...] — the bytes remaining after the
/// local segment — without copying.  nullopt if DataLen is cut short or the
/// trailer does not parse segment by segment with parse_segment.  If the
/// packet was truncated in flight (fewer bytes than DataLen claims), the
/// data is what arrived, except that a trailing 4-byte segment with the TRM
/// flag is the truncating router's mark and becomes the one-segment
/// trailer.  Throw-free.
std::optional<BodyView> parse_body(std::span<const std::uint8_t> body) noexcept;

/// What an end host sees after consuming the final (local) segment.
struct DeliveredBody {
  wire::Bytes data;
  std::vector<core::HeaderSegment> trailer;  ///< raw, may include TRM marks
};

/// parse_body with the data and trailer segments copied out, consuming the
/// rest of the reader; throws wire::CodecError (reader unmoved) where
/// parse_body returns nullopt.  Kept for perfbench's replay; delete in the
/// benchmark change (ROADMAP item 5).
DeliveredBody decode_delivered_body(wire::Reader& r);

/// Stable 64-bit digest of a source route's *path* — per-segment port,
/// priority, flags and port_info, excluding tokens — so the same physical
/// route hashes identically no matter which tokens were minted for it.
/// Used as the flow-accounting key (obs::FlowSample::route_digest).
/// @p scratch holds the serialization; the caller keeps it between calls
/// so its capacity is reused.
std::uint64_t route_digest(const core::SourceRoute& route,
                           wire::Bytes& scratch);

}  // namespace srp::viper

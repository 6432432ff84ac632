// Copying VIPER decoder and trailer classifier, kept as a test oracle.
//
// This is the receive side as it ran before the data path parsed through
// views: decode_segment copies each field out through a bounds-checked
// wire::Reader, decode_delivered_body splits [DataLen][Data][Trailer...]
// (recovering a truncating router's trailing TRM mark), classify_trailer
// sorts the trailer into return entries, truncation marks and telemetry
// records, and build_return_route reverses the entries into the paper's
// return route (§2).  It shares no parsing code with viper::parse_segment
// / viper::parse_body (raw-pointer framing, no copies, no throws), which is
// what makes it a meaningful oracle: the differential campaigns
// (fuzz_codec_test.cpp), the delivery oracles (delivery_oracle_test.cpp)
// and the router-hop reference (reference_forward.hpp) hold the shipped
// parser, the host's delivery walk and the router's rewrite to it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "check/contract.hpp"
#include "core/segment.hpp"
#include "viper/codec.hpp"
#include "wire/buffer.hpp"

namespace srp::test {

namespace reference_detail {

inline constexpr std::size_t kLengthEscape = 255;

inline core::SegmentFlags decode_flags(std::uint8_t v) {
  core::SegmentFlags f;
  f.vnt = (v & viper::kFlagVnt) != 0;
  f.dib = (v & viper::kFlagDib) != 0;
  f.rpf = (v & viper::kFlagRpf) != 0;
  f.trm = (v & viper::kFlagTrm) != 0;
  return f;
}

}  // namespace reference_detail

/// One variable-length field behind @p length_byte; a byte of 255 escapes
/// to a 32-bit length, which must then exceed 254.
inline wire::Bytes decode_field(wire::Reader& r, std::uint8_t length_byte) {
  std::size_t len = length_byte;
  if (length_byte == reference_detail::kLengthEscape) {
    len = r.u32();
    if (len <= 254) {
      throw wire::CodecError("VIPER: escaped length not > 254");
    }
  }
  return r.bytes(len);
}

/// Decodes one segment, advancing the reader.  Throws wire::CodecError on
/// malformed input.
inline core::HeaderSegment decode_segment(wire::Reader& r) {
  [[maybe_unused]] const std::size_t start = r.position();
  const std::uint8_t info_len = r.u8();
  const std::uint8_t token_len = r.u8();
  core::HeaderSegment seg;
  seg.port = r.u8();
  const std::uint8_t fp = r.u8();
  seg.flags =
      reference_detail::decode_flags(static_cast<std::uint8_t>(fp >> 4));
  seg.tos.priority = fp & 0x0F;
  seg.tos.drop_if_blocked = seg.flags.dib;
  seg.token = decode_field(r, token_len);
  seg.port_info = decode_field(r, info_len);
  // Decode must consume exactly what the encoder would produce — the
  // router's cut-through offset arithmetic depends on it.  (VNT clearing of
  // port_info below happens after the bytes were consumed.)
  SIRPENT_ENSURES(r.position() - start == viper::segment_wire_size(seg));
  if (seg.flags.vnt && !seg.flags.trm) {
    // "the portInfo field is void ... may still be non-zero if the PortInfo
    // field is used for padding" — padding is discarded on decode.
    seg.port_info.clear();
  }
  return seg;
}

/// Decodes segments until the reader is exhausted (for route blobs and
/// trailers).
inline std::vector<core::HeaderSegment> decode_segments(wire::Reader& r) {
  std::vector<core::HeaderSegment> out;
  while (!r.done()) out.push_back(decode_segment(r));
  return out;
}

/// What an end host sees after consuming the final (local) segment.
struct DeliveredBody {
  wire::Bytes data;
  std::vector<core::HeaderSegment> trailer;  ///< raw, may include TRM marks
};

/// Parses [DataLen][Data][Trailer...] — the bytes remaining after the local
/// segment has been decoded.  If the packet was truncated in flight the
/// data may be short; `data` then contains what arrived and the TRM mark
/// (if it survived) is in `trailer`.
inline DeliveredBody decode_delivered_body(wire::Reader& r) {
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

/// Trailer inspection results.
struct TrailerInfo {
  /// In append (forward-path) order.
  std::vector<core::HeaderSegment> entries;
  bool truncated = false;  ///< a truncation marker was present
  /// In-band telemetry records (HeaderSegment::is_telemetry_record), in
  /// the order they appeared.  Each record's port_info is one router's
  /// obs::HopTelemetry payload; the hop number inside the payload — not
  /// the position here — orders the path, so this list is valid whether
  /// the trailer was decoded forward or reversed in place.
  std::vector<core::HeaderSegment> telemetry;
};

/// Builds the return route from the trailer entries of a delivered packet.
///
/// @param entries      trailer entries in the order routers appended them
///                     (first router first); truncation markers must have
///                     been filtered out (see TrailerInfo).
/// @param origin_endpoint  optional 8-byte endpoint id for local delivery
///                     at the origin (e.g. learned from the transport
///                     header); empty means "origin host's dispatcher".
///
/// The result has RPF set on every segment: the paper's "the packet is
/// being returned using the route and tokens supplied in a packet received
/// by the currently sending host".
inline core::SourceRoute build_return_route(
    const std::vector<core::HeaderSegment>& entries,
    const wire::Bytes& origin_endpoint = {}) {
  // Truncation marks must have been filtered out (classify_trailer): a
  // route built from an illegal segment would be dropped at the first hop.
  SIRPENT_EXPECTS(std::all_of(entries.begin(), entries.end(),
                              [](const core::HeaderSegment& s) {
                                return s.is_legal();
                              }));
  core::SourceRoute route;
  route.segments.reserve(entries.size() + 1);
  // Last router's entry becomes the first return hop.
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    route.segments.push_back(*it);
  }
  core::HeaderSegment local;
  local.port = core::kLocalPort;
  local.port_info = origin_endpoint;
  local.flags.vnt = origin_endpoint.empty();
  route.segments.push_back(local);
  route.set_rpf();
  // Reversal round-trip: hop i of the return route is trailer entry n-1-i
  // with RPF set and everything else (port, token, port_info) verbatim —
  // the paper's "entirely network-independent" reversal.
  SIRPENT_ENSURES(route.segments.size() == entries.size() + 1);
  SIRPENT_ENSURES([&] {
    const std::size_t n = entries.size();
    for (std::size_t i = 0; i < n; ++i) {
      core::HeaderSegment expect = entries[n - 1 - i];
      expect.flags.rpf = true;
      if (route.segments[i] != expect) return false;
    }
    return route.segments[n].port == core::kLocalPort &&
           route.segments[n].flags.rpf;
  }());
  return route;
}

/// Splits decoded trailer segments into routable entries and the truncated
/// flag (truncation markers are recognized and removed).
inline TrailerInfo classify_trailer(
    std::vector<core::HeaderSegment> raw_entries) {
  TrailerInfo info;
  for (auto& seg : raw_entries) {
    if (seg.is_telemetry_record()) {
      // A telemetry record shares the TRM bit (it must never be routable)
      // but does NOT mean the packet was truncated.
      info.telemetry.push_back(std::move(seg));
    } else if (seg.flags.trm) {
      info.truncated = true;
    } else {
      info.entries.push_back(std::move(seg));
    }
  }
  SIRPENT_ENSURES(std::all_of(info.entries.begin(), info.entries.end(),
                              [](const core::HeaderSegment& s) {
                                return s.is_legal();
                              }));
  return info;
}

}  // namespace srp::test

// Deterministic fuzz / robustness driver for the VIPER codec.
//
// Sirpent carries no internetwork checksum: "error detection and correction
// is implemented end-to-end" and routers forward whatever arrives.  The
// implementation therefore silently depends on a property the paper never
// states: *arbitrary* bytes presented to the decoder must never trigger
// undefined behaviour — only a parse or a clean wire::CodecError.  This
// driver proves that property mechanically.  Run it under
// -DSIRPENT_SANITIZE="address;undefined" and any OOB read, overflow or UB
// in the decode→encode path fails the test run.
//
// Everything is seeded: a failure reproduces from the iteration number
// alone.  Three campaigns:
//   1. structured-random packets  — valid routes/data, full round trip
//   2. mutation fuzz             — valid packets damaged in targeted ways
//   3. byte-soup fuzz            — unstructured random streams
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>

#include "reference_codec.hpp"
#include "sim/random.hpp"
#include "viper/codec.hpp"
#include "viper/router.hpp"

namespace srp::viper {
namespace {

wire::Bytes random_bytes(sim::Rng& rng, std::size_t len) {
  wire::Bytes out(len);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return out;
}

core::HeaderSegment random_segment(sim::Rng& rng, bool allow_huge_fields) {
  core::HeaderSegment seg;
  seg.port = static_cast<std::uint8_t>(rng.uniform_int(1, 255));
  seg.tos.priority = static_cast<std::uint8_t>(rng.uniform_int(0, 15));
  seg.flags.dib = rng.chance(0.25);
  seg.flags.rpf = rng.chance(0.25);
  seg.tos.drop_if_blocked = seg.flags.dib;
  const std::size_t max_field = allow_huge_fields ? 600 : 64;
  seg.token = random_bytes(rng, rng.uniform_int(0, max_field));
  if (rng.chance(0.4)) {
    seg.flags.vnt = true;  // point-to-point hop: portInfo void
  } else {
    seg.port_info = random_bytes(rng, rng.uniform_int(0, max_field));
  }
  return seg;
}

core::SourceRoute random_route(sim::Rng& rng) {
  core::SourceRoute route;
  const std::size_t hops = rng.uniform_int(1, 6);
  for (std::size_t i = 0; i + 1 < hops; ++i) {
    route.segments.push_back(random_segment(rng, rng.chance(0.1)));
  }
  core::HeaderSegment local;
  local.port = core::kLocalPort;
  if (rng.chance(0.5)) {
    local.port_info = random_bytes(rng, 8);
  } else {
    local.flags.vnt = true;
  }
  route.segments.push_back(local);
  return route;
}

/// Runs the complete receive pipeline an end host would run over @p bytes:
/// peel header segments, then parse the delivered body and classify its
/// trailer.  Returns normally or throws wire::CodecError — anything else
/// (or a sanitizer report) is a failed property.
void drive_receive_pipeline(const wire::Bytes& bytes) {
  wire::Reader r(bytes);
  // Peel at most a route's worth of segments, as routers would hop by hop.
  for (std::size_t hop = 0; hop <= core::kMaxSegments && !r.done(); ++hop) {
    const std::size_t before = r.position();
    core::HeaderSegment seg = test::decode_segment(r);
    ASSERT_GT(r.position(), before);
    if (seg.port == core::kLocalPort) {
      test::DeliveredBody body = test::decode_delivered_body(r);
      test::TrailerInfo info = test::classify_trailer(std::move(body.trailer));
      if (!info.entries.empty() || !info.truncated) {
        (void)test::build_return_route(info.entries);
      }
      return;
    }
  }
}

// Campaign 1: structured-random packets survive a bit-exact decode→encode
// round trip, and the delivered body reproduces data and trailer.
TEST(FuzzCodec, StructuredRoundTrip) {
  sim::Rng rng(0xF0221);
  for (int iter = 0; iter < 400; ++iter) {
    SCOPED_TRACE(iter);
    core::SourceRoute route = random_route(rng);
    const wire::Bytes data = random_bytes(rng, rng.uniform_int(0, 256));
    wire::Bytes packet;
    try {
      packet = encode_packet(route, data);
    } catch (const wire::CodecError&) {
      continue;  // oversize route: legitimate encode rejection
    }

    // Decode the route part back segment by segment and re-encode it: the
    // bytes must match the original header exactly (codec canonicality).
    wire::Reader r(packet);
    wire::Writer reenc;
    for (const auto& expect : route.segments) {
      core::HeaderSegment got = test::decode_segment(r);
      // VNT padding is discarded on decode; the encoder never emits it, so
      // for encoder-produced bytes the round trip is exact.
      ASSERT_EQ(got, expect);
      encode_segment(reenc, got);
    }
    ASSERT_TRUE(std::equal(reenc.view().begin(), reenc.view().end(),
                           packet.begin()));

    test::DeliveredBody body = test::decode_delivered_body(r);
    ASSERT_EQ(body.data, data);
    ASSERT_TRUE(body.trailer.empty());
  }
}

// Campaign 2: mutated valid packets.  Damage targets the places the format
// is most sensitive: length bytes, the escape marker, flag nibbles, and
// truncation at every interesting boundary.
TEST(FuzzCodec, MutatedPacketsNeverMisbehave) {
  sim::Rng rng(0xF0222);
  int parsed = 0;
  int rejected = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    SCOPED_TRACE(iter);
    core::SourceRoute route = random_route(rng);
    wire::Bytes data = random_bytes(rng, rng.uniform_int(0, 64));
    wire::Bytes packet;
    try {
      packet = encode_packet(route, data);
    } catch (const wire::CodecError&) {
      continue;
    }
    if (packet.empty()) continue;

    switch (rng.uniform_int(0, 5)) {
      case 0: {  // single random byte corruption
        packet[rng.uniform_int(0, packet.size() - 1)] ^=
            static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
        break;
      }
      case 1: {  // length-byte tampering (first two octets of a segment)
        packet[rng.uniform_int(0, 1)] =
            static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        break;
      }
      case 2: {  // force the 255 escape with garbage 32-bit length behind it
        packet[0] = 255;
        break;
      }
      case 3: {  // truncate anywhere, including mid-field
        packet.resize(rng.uniform_int(0, packet.size() - 1));
        break;
      }
      case 4: {  // splice two packets' bytes together
        const std::size_t cut = rng.uniform_int(0, packet.size() - 1);
        wire::Bytes tail = random_bytes(rng, rng.uniform_int(0, 64));
        packet.resize(cut);
        packet.insert(packet.end(), tail.begin(), tail.end());
        break;
      }
      default: {  // burst corruption
        const std::size_t start = rng.uniform_int(0, packet.size() - 1);
        const std::size_t n =
            std::min<std::size_t>(packet.size() - start,
                                  rng.uniform_int(1, 16));
        for (std::size_t i = 0; i < n; ++i) {
          packet[start + i] =
              static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        }
        break;
      }
    }

    try {
      drive_receive_pipeline(packet);
      ++parsed;
    } catch (const wire::CodecError&) {
      ++rejected;  // the only acceptable failure mode
    }
  }
  // Both outcomes must actually occur or the campaign isn't exercising
  // anything.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

// Campaign 3: unstructured byte soup, dense in the short lengths where
// every byte is a length/port/flag field.
TEST(FuzzCodec, ByteSoupNeverMisbehaves) {
  sim::Rng rng(0xF0223);
  for (int iter = 0; iter < 6000; ++iter) {
    SCOPED_TRACE(iter);
    const std::size_t len =
        rng.chance(0.5) ? rng.uniform_int(0, 16) : rng.uniform_int(0, 512);
    const wire::Bytes junk = random_bytes(rng, len);
    try {
      drive_receive_pipeline(junk);
    } catch (const wire::CodecError&) {
      // clean rejection
    }
  }
}

// Campaign 3b: byte soup through the trailer path (decode_segments), which
// loops until exhaustion rather than stopping at a local segment.
TEST(FuzzCodec, TrailerSoupNeverMisbehaves) {
  sim::Rng rng(0xF0224);
  for (int iter = 0; iter < 4000; ++iter) {
    SCOPED_TRACE(iter);
    const wire::Bytes junk = random_bytes(rng, rng.uniform_int(0, 128));
    wire::Reader r(junk);
    try {
      std::vector<core::HeaderSegment> segs = test::decode_segments(r);
      test::TrailerInfo info = test::classify_trailer(std::move(segs));
      (void)test::build_return_route(info.entries);
    } catch (const wire::CodecError&) {
      // clean rejection
    }
  }
}

// Decoded-then-reencoded segments are canonical: a second decode yields an
// identical segment, and the re-encoding of *that* is byte-identical.
TEST(FuzzCodec, ReencodeIsCanonical) {
  sim::Rng rng(0xF0225);
  int decoded = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    SCOPED_TRACE(iter);
    const wire::Bytes junk = random_bytes(rng, rng.uniform_int(4, 64));
    wire::Reader r(junk);
    core::HeaderSegment seg;
    try {
      seg = test::decode_segment(r);
    } catch (const wire::CodecError&) {
      continue;
    }
    ++decoded;
    wire::Writer w1;
    encode_segment(w1, seg);
    wire::Reader r2(w1.view());
    const core::HeaderSegment again = test::decode_segment(r2);
    ASSERT_EQ(again, seg);
    wire::Writer w2;
    encode_segment(w2, again);
    ASSERT_EQ(w1.view(), w2.view());
  }
  EXPECT_GT(decoded, 0);
}

// ---------------------------------------------------------------------------
// Differential campaigns: the throw-free view parser (parse_segment,
// parse_body, peek_next_port) and the throwing adapters over it
// (decode_segment, decode_segments, decode_delivered_body) against the
// copying reference (reference_codec.hpp) on structured, mutated and
// byte-soup inputs, at every offset of every input.
// ---------------------------------------------------------------------------

/// A few trailer entries of every kind a router appends: return entries,
/// truncation marks and telemetry records (empty or full-size payloads).
void append_random_trailer(sim::Rng& rng, wire::Bytes& out) {
  wire::Writer w;
  const std::size_t n = rng.uniform_int(0, 4);
  for (std::size_t i = 0; i < n; ++i) {
    core::HeaderSegment seg;
    switch (rng.uniform_int(0, 2)) {
      case 0:
        seg = random_segment(rng, false);
        break;
      case 1:
        seg = core::HeaderSegment::truncation_marker();
        break;
      default:
        seg.port = core::kTelemetryPort;
        seg.flags.trm = true;
        seg.port_info = random_bytes(rng, rng.chance(0.5) ? 0 : 32);
        break;
    }
    encode_segment(w, seg);
  }
  out.insert(out.end(), w.view().begin(), w.view().end());
}

/// Damages @p packet the ways campaign 2 does: a bit flip, a forced length
/// escape, a cut anywhere, a spliced random tail or a burst.
void mutate(sim::Rng& rng, wire::Bytes& packet) {
  if (packet.empty()) return;
  const std::size_t at = rng.uniform_int(0, packet.size() - 1);
  switch (rng.uniform_int(0, 4)) {
    case 0:
      packet[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
      break;
    case 1:
      packet[at] = 255;
      break;
    case 2:
      packet.resize(at);
      break;
    case 3: {
      const wire::Bytes tail = random_bytes(rng, rng.uniform_int(0, 64));
      packet.resize(at);
      packet.insert(packet.end(), tail.begin(), tail.end());
      break;
    }
    default: {
      const std::size_t end =
          std::min(packet.size(), at + rng.uniform_int(1, 16));
      for (std::size_t i = at; i < end; ++i) {
        packet[i] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      }
      break;
    }
  }
}

/// A structured packet: a random route, data and a random trailer.
wire::Bytes structured_packet(sim::Rng& rng) {
  core::SourceRoute route = random_route(rng);
  const wire::Bytes data = random_bytes(rng, rng.uniform_int(0, 64));
  wire::Bytes packet;
  try {
    packet = encode_packet(route, data);
  } catch (const wire::CodecError&) {
    return {};  // oversize route: legitimate encode rejection
  }
  append_random_trailer(rng, packet);
  return packet;
}

/// Runs @p decode over a fresh reader on @p bytes: what it returned (nullopt
/// if it threw wire::CodecError) and where it left the reader.
template <typename Decode>
auto run_decoder(std::span<const std::uint8_t> bytes, Decode decode) {
  wire::Reader r(bytes);
  std::optional<decltype(decode(r))> value;
  try {
    value = decode(r);
  } catch (const wire::CodecError&) {
  }
  return std::pair{std::move(value), r.position()};
}

/// decode_segment and decode_delivered_body at the start of @p bytes agree
/// with what the reference decoded there (@p ref, @p ref_size bytes, and
/// @p ref_body): equal values with equal consumption, or both reject and
/// the adapter leaves its reader where it was.
void expect_adapters_match_reference(
    std::span<const std::uint8_t> bytes,
    const std::optional<core::HeaderSegment>& ref, std::size_t ref_size,
    const std::optional<test::DeliveredBody>& ref_body) {
  const auto [seg, seg_end] = run_decoder(bytes, decode_segment);
  EXPECT_EQ(seg, ref);
  EXPECT_EQ(seg_end, ref ? ref_size : 0);

  const auto [body, body_end] = run_decoder(bytes, decode_delivered_body);
  ASSERT_EQ(body.has_value(), ref_body.has_value());
  EXPECT_EQ(body_end, body ? bytes.size() : 0);
  if (body) {
    EXPECT_EQ(body->data, ref_body->data);
    EXPECT_EQ(body->trailer, ref_body->trailer);
  }
}

/// parse_segment, peek_next_port and parse_body at every offset of
/// @p bytes (and one past the end), decode_segment and
/// decode_delivered_body at every offset, and decode_segments over the
/// whole input (as on a route blob) agree with the copying decoders.
void expect_views_match_reference(const wire::Bytes& bytes) {
  const std::span<const std::uint8_t> all = bytes;
  {
    const auto [segs, segs_end] = run_decoder(all, decode_segments);
    const auto [want, want_end] = run_decoder(all, test::decode_segments);
    EXPECT_EQ(segs, want);
    if (segs) {
      EXPECT_EQ(segs_end, want_end);
    }
  }
  for (std::size_t offset = 0; offset <= bytes.size() + 1; ++offset) {
    SCOPED_TRACE(offset);
    std::optional<core::HeaderSegment> ref;
    std::size_t ref_size = 0;
    std::optional<test::DeliveredBody> ref_body;
    if (offset <= bytes.size()) {
      wire::Reader r(all.subspan(offset));
      try {
        ref = test::decode_segment(r);
        ref_size = r.position();
      } catch (const wire::CodecError&) {
      }
      wire::Reader rb(all.subspan(offset));
      try {
        ref_body = test::decode_delivered_body(rb);
      } catch (const wire::CodecError&) {
      }
      expect_adapters_match_reference(all.subspan(offset), ref, ref_size,
                                      ref_body);
    }

    const std::optional<SegmentView> view = parse_segment(bytes, offset);
    ASSERT_EQ(view.has_value(), ref.has_value());
    if (view) {
      EXPECT_EQ(to_segment(*view), *ref);
      EXPECT_EQ(view->wire_size, ref_size);
      EXPECT_EQ(view->is_legal(), ref->is_legal());
      EXPECT_EQ(view->is_telemetry_record(), ref->is_telemetry_record());
    }
    EXPECT_EQ(peek_next_port(bytes, offset),
              ref && ref->is_legal() ? ref->port : 0);

    if (offset > bytes.size()) continue;
    const std::optional<BodyView> body = parse_body(all.subspan(offset));
    ASSERT_EQ(body.has_value(), ref_body.has_value());
    if (!body) continue;
    EXPECT_EQ(wire::Bytes(body->data.begin(), body->data.end()),
              ref_body->data);
    std::vector<core::HeaderSegment> trailer;
    for (std::size_t at = 0; at < body->trailer.size();) {
      const std::optional<SegmentView> entry =
          parse_segment(body->trailer, at);
      ASSERT_TRUE(entry.has_value());
      trailer.push_back(to_segment(*entry));
      at += entry->wire_size;
    }
    EXPECT_EQ(trailer, ref_body->trailer);
    EXPECT_EQ(body->trailer_segments, ref_body->trailer.size());
  }
}

TEST(FuzzCodecDifferential, StructuredPacketsMatchReference) {
  sim::Rng rng(0xF0226);
  for (int iter = 0; iter < 100; ++iter) {
    SCOPED_TRACE(iter);
    expect_views_match_reference(structured_packet(rng));
  }
}

TEST(FuzzCodecDifferential, MutatedPacketsMatchReference) {
  sim::Rng rng(0xF0227);
  for (int iter = 0; iter < 400; ++iter) {
    SCOPED_TRACE(iter);
    wire::Bytes packet = structured_packet(rng);
    mutate(rng, packet);
    expect_views_match_reference(packet);
  }
}

TEST(FuzzCodecDifferential, ByteSoupMatchesReference) {
  sim::Rng rng(0xF0228);
  for (int iter = 0; iter < 800; ++iter) {
    SCOPED_TRACE(iter);
    const std::size_t len =
        rng.chance(0.5) ? rng.uniform_int(0, 16) : rng.uniform_int(0, 128);
    expect_views_match_reference(random_bytes(rng, len));
  }
}

// Hand-picked edges of the framing: every escape boundary, a truncated
// escape, and the smallest legal segment.
TEST(FuzzCodecDifferential, FramingEdgesMatchReference) {
  const std::vector<wire::Bytes> cases = {
      {},
      {0, 0, 7},
      {0, 0, 7, 0x30},                        // smallest segment
      {255, 0, 7, 0, 0, 0, 0, 254},           // escape with length <= 254
      {255, 0, 7, 0, 0, 0},                   // truncated escape
      {0, 255, 7, 0, 0, 0, 1, 0},             // escaped token, no bytes
      {1, 0, 7, 0x80, 9},                     // VNT padding discarded
      {1, 0, 7, 0x90, 9},                     // VNT + TRM keeps port_info
      {0, 0, 0, 0x10},                        // a truncation mark
      {0, 2, 5, 0xF0, 1},                     // token cut short
  };
  for (const wire::Bytes& bytes : cases) expect_views_match_reference(bytes);
  // An escaped length of 254 is rejected even when 254 octets follow.
  wire::Bytes short_escape{255, 0, 7, 0, 0, 0, 0, 254};
  short_escape.resize(short_escape.size() + 254, 0xAB);
  ASSERT_FALSE(parse_segment(short_escape, 0).has_value());
  expect_views_match_reference(short_escape);
  // A field longer than 254 octets uses the escape on the wire.
  core::HeaderSegment big;
  big.port = 9;
  big.token = wire::Bytes(300, 0xAB);
  big.port_info = wire::Bytes(255, 0xCD);
  wire::Writer w;
  encode_segment(w, big);
  expect_views_match_reference(std::move(w).take());
}

}  // namespace
}  // namespace srp::viper

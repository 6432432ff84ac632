// Golden wire-format vectors: frozen byte images of the VIPER packet
// layout (paper §5, Figure 1), the VMTP transport packet and one hostile
// tree-in-tree route, committed under tests/golden/.  Any codec change
// that silently alters the bits on the wire fails the byte-compare here;
// intentional format changes must regenerate the vectors (GOLDEN_REGEN=1)
// and justify the diff in review.
//
// Each vector is also decoded back and checked structurally, so the
// committed bytes themselves are proven round-trippable.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/multicast.hpp"
#include "core/segment.hpp"
#include "reference_codec.hpp"
#include "test_util.hpp"
#include "transport/header.hpp"
#include "viper/codec.hpp"
#include "viper/router.hpp"
#include "wire/buffer.hpp"

namespace srp::viper {
namespace {

using test::pattern_bytes;

std::string golden_path(const std::string& name) {
  return std::string(GOLDEN_DIR) + "/" + name;
}

wire::Bytes read_golden(const std::string& name) {
  std::ifstream in(golden_path(name), std::ios::binary);
  wire::Bytes bytes;
  if (in) {
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  return bytes;
}

/// Byte-compares @p bytes against the committed vector; with GOLDEN_REGEN
/// set, rewrites the vector instead.
void expect_golden(const std::string& name, const wire::Bytes& bytes) {
  if (std::getenv("GOLDEN_REGEN") != nullptr) {
    std::ofstream out(golden_path(name), std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << "regen failed for " << name;
    return;
  }
  const wire::Bytes golden = read_golden(name);
  ASSERT_FALSE(golden.empty())
      << name << " missing — run with GOLDEN_REGEN=1 to create it";
  EXPECT_EQ(bytes, golden) << "wire format drifted from " << name;
}

// --- the vectors -----------------------------------------------------------

/// Single-segment packet: local delivery to the default dispatcher.
wire::Bytes build_single_segment() {
  core::SourceRoute route;
  route.segments = {test::local_segment()};
  return encode_packet(route, pattern_bytes(32, 0x10));
}

/// Multi-hop packet: a tokened point-to-point hop at priority 5, a LAN hop
/// carrying 6-byte port_info (MAC next hop) with drop-if-blocked set, and
/// final delivery to a named endpoint (8-byte id in port_info).
wire::Bytes build_multi_hop() {
  core::HeaderSegment tokened;
  tokened.port = 2;
  tokened.tos.priority = 5;
  tokened.flags.vnt = true;
  tokened.token = pattern_bytes(16, 0xA0);

  core::HeaderSegment lan;
  lan.port = 7;
  lan.tos.priority = 3;
  lan.flags.dib = true;
  lan.tos.drop_if_blocked = true;
  lan.port_info = wire::Bytes{0x02, 0x11, 0x22, 0x33, 0x44, 0x55};

  core::HeaderSegment local;
  local.port = core::kLocalPort;
  local.port_info = encode_endpoint_id(0x1234'5678'9ABC'DEF0ull);

  core::SourceRoute route;
  route.segments = {tokened, lan, local};
  return encode_packet(route, pattern_bytes(64, 0x20));
}

/// Truncated-in-flight packet: a single-segment image cut mid-data with
/// the router's 4-byte TRM segment appended after the cut (router.cpp's
/// MTU truncation behavior, frozen at the byte level).
wire::Bytes build_truncated_with_mark() {
  core::SourceRoute route;
  route.segments = {test::local_segment()};
  wire::Bytes image = encode_packet(route, pattern_bytes(600, 0x30));
  image.resize(4 + 2 + 100);  // segment + DataLen + first 100 data bytes
  wire::Writer mark;
  encode_segment(mark, core::HeaderSegment::truncation_marker());
  const wire::Bytes mark_bytes = std::move(mark).take();
  image.insert(image.end(), mark_bytes.begin(), mark_bytes.end());
  return image;
}

/// Delivered body with a full trailer: what the destination host holds
/// after two routers each appended their reversed (RPF) segment.
wire::Bytes build_full_trailer() {
  core::SourceRoute route;
  route.segments = {test::local_segment()};
  wire::Bytes image = encode_packet(route, pattern_bytes(48, 0x40));
  for (const std::uint8_t in_port : {std::uint8_t{1}, std::uint8_t{3}}) {
    core::HeaderSegment reversed;
    reversed.port = in_port;
    reversed.flags.vnt = true;
    reversed.flags.rpf = true;
    wire::Writer w;
    encode_segment(w, reversed);
    const wire::Bytes seg = std::move(w).take();
    image.insert(image.end(), seg.begin(), seg.end());
  }
  return image;
}

/// VMTP transport packet with the end-to-end checksum filled in.
wire::Bytes build_vmtp_request() {
  vmtp::Header h;
  h.src_entity = 0xC11E'47ED'0000'0001ull;
  h.dst_entity = 0x5E4'7E'00'0000'0002ull;
  h.transaction = 42;
  h.type = vmtp::PacketType::kRequest;
  h.group_size = 2;
  h.index = 1;
  h.flags = vmtp::kFlagRetransmission;
  h.timestamp = 12345;
  h.mask = 0;
  return vmtp::encode_transport_packet(h, pattern_bytes(40, 0x50));
}

/// Tree-in-tree amplifier (hostile input): a tree segment of 255 empty
/// branches, so every copy leads with the second such tree, then a p2p hop
/// out port 2 and local delivery of an empty body.  The route is 1,048 B;
/// without a nesting bound one router turned it into 65,280 copies.
wire::Bytes build_tree_in_tree() {
  core::HeaderSegment tree;
  tree.port = 1;
  tree.port_info = core::encode_tree_info(std::vector<wire::Bytes>(255));
  core::SourceRoute route;
  route.segments = {tree, tree, test::p2p_segment(2), test::local_segment()};
  return encode_packet(route, {});
}

// --- byte-compare + structural round-trip ----------------------------------

TEST(GoldenWire, SingleSegment) {
  const wire::Bytes image = build_single_segment();
  expect_golden("single_segment.bin", image);

  wire::Reader r{std::span{image}};
  const core::HeaderSegment seg = test::decode_segment(r);
  EXPECT_EQ(seg.port, core::kLocalPort);
  EXPECT_TRUE(seg.flags.vnt);
  const test::DeliveredBody body = test::decode_delivered_body(r);
  EXPECT_EQ(body.data, pattern_bytes(32, 0x10));
  EXPECT_TRUE(body.trailer.empty());
}

TEST(GoldenWire, MultiHopWithTokenLanInfoAndPriorities) {
  const wire::Bytes image = build_multi_hop();
  expect_golden("multi_hop.bin", image);

  wire::Reader r{std::span{image}};
  const core::HeaderSegment hop = test::decode_segment(r);
  EXPECT_EQ(hop.port, 2);
  EXPECT_EQ(hop.tos.priority, 5);
  EXPECT_EQ(hop.token, pattern_bytes(16, 0xA0));
  EXPECT_TRUE(hop.port_info.empty());  // VNT: portInfo is void

  const core::HeaderSegment lan = test::decode_segment(r);
  EXPECT_EQ(lan.port, 7);
  EXPECT_EQ(lan.tos.priority, 3);
  EXPECT_TRUE(lan.tos.drop_if_blocked);
  EXPECT_EQ(lan.port_info,
            (wire::Bytes{0x02, 0x11, 0x22, 0x33, 0x44, 0x55}));

  const core::HeaderSegment local = test::decode_segment(r);
  EXPECT_EQ(local.port, core::kLocalPort);
  EXPECT_EQ(decode_endpoint_id(local.port_info),
            0x1234'5678'9ABC'DEF0ull);

  const test::DeliveredBody body = test::decode_delivered_body(r);
  EXPECT_EQ(body.data, pattern_bytes(64, 0x20));
}

TEST(GoldenWire, TruncatedWithMark) {
  const wire::Bytes image = build_truncated_with_mark();
  expect_golden("truncated_mark.bin", image);

  wire::Reader r{std::span{image}};
  (void)test::decode_segment(r);  // the consumed local segment
  const test::DeliveredBody body = test::decode_delivered_body(r);
  // The cut left 100 of 600 data bytes, and the explicit mark survived.
  EXPECT_EQ(body.data, pattern_bytes(100, 0x30));
  ASSERT_EQ(body.trailer.size(), 1u);
  EXPECT_TRUE(body.trailer[0].flags.trm);
}

TEST(GoldenWire, FullTrailerRebuildsReturnRoute) {
  const wire::Bytes image = build_full_trailer();
  expect_golden("full_trailer.bin", image);

  wire::Reader r{std::span{image}};
  (void)test::decode_segment(r);
  const test::DeliveredBody body = test::decode_delivered_body(r);
  EXPECT_EQ(body.data, pattern_bytes(48, 0x40));
  // Two reversed entries, in hop order; reversing them yields the return
  // route back through ports 3 then 1.
  ASSERT_EQ(body.trailer.size(), 2u);
  EXPECT_EQ(body.trailer[0].port, 1);
  EXPECT_EQ(body.trailer[1].port, 3);
  EXPECT_TRUE(body.trailer[0].flags.rpf);
  EXPECT_TRUE(body.trailer[1].flags.rpf);
}

TEST(GoldenWire, VmtpTransportPacket) {
  const wire::Bytes image = build_vmtp_request();
  expect_golden("vmtp_request.bin", image);

  const auto view = vmtp::decode_transport_packet(image);
  ASSERT_TRUE(view.has_value());  // committed checksum verifies
  EXPECT_EQ(view->header.transaction, 42u);
  EXPECT_EQ(view->header.group_size, 2);
  EXPECT_EQ(wire::Bytes(view->payload.begin(), view->payload.end()),
            pattern_bytes(40, 0x50));

  // Any single corrupted byte must break the committed checksum.
  wire::Bytes bad = image;
  bad[10] ^= 0x01;
  const auto damaged = vmtp::decode_transport_packet(bad);
  if (damaged.has_value()) {
    EXPECT_NE(damaged->header, view->header);
  }
}

TEST(GoldenWire, TreeInTreeAmplifier) {
  const wire::Bytes image = build_tree_in_tree();
  expect_golden("tree_in_tree.bin", image);
  EXPECT_EQ(image.size(), 1048u + 2u);  // the route, then DataLen 0

  wire::Reader r{std::span{image}};
  for (int level = 0; level < 2; ++level) {
    const core::HeaderSegment tree = test::decode_segment(r);
    const auto branches = core::TreeView::parse(tree.port_info);
    ASSERT_TRUE(branches.has_value());
    std::size_t count = 0;
    for (const auto blob : *branches) {
      EXPECT_TRUE(blob.empty());
      ++count;
    }
    EXPECT_EQ(count, 255u);
  }
  EXPECT_EQ(test::decode_segment(r).port, 2);
  EXPECT_EQ(test::decode_segment(r).port, core::kLocalPort);
  const test::DeliveredBody body = test::decode_delivered_body(r);
  EXPECT_TRUE(body.data.empty());
  EXPECT_TRUE(body.trailer.empty());
}

}  // namespace
}  // namespace srp::viper

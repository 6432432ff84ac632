// Unit tests for the Sirpent architecture core: priorities, segments,
// trailer reversal, multicast encodings.
#include <gtest/gtest.h>

#include "core/multicast.hpp"
#include "core/segment.hpp"
#include "core/tos.hpp"
#include "core/trailer.hpp"

namespace srp::core {
namespace {

TEST(Priority, PaperOrdering) {
  // "Normal priority is 0 with 7 highest ... values with the high-order
  // bit set represent lower priorities, 0xF being the lowest."
  EXPECT_EQ(priority_rank(7), 7);
  EXPECT_EQ(priority_rank(0), 0);
  EXPECT_GT(priority_rank(1), priority_rank(0));
  EXPECT_GT(priority_rank(0), priority_rank(8));
  EXPECT_GT(priority_rank(8), priority_rank(0xF));
  // Full order: 7 > 6 > ... > 0 > 8 > 9 > ... > 15.
  int prev = priority_rank(7);
  for (std::uint8_t p : {6, 5, 4, 3, 2, 1, 0, 8, 9, 10, 11, 12, 13, 14, 15}) {
    EXPECT_LT(priority_rank(p), prev) << static_cast<int>(p);
    prev = priority_rank(p);
  }
}

TEST(Priority, OnlySixAndSevenPreempt) {
  for (int p = 0; p < 16; ++p) {
    EXPECT_EQ(priority_preempts(static_cast<std::uint8_t>(p)),
              p == 6 || p == 7)
        << p;
  }
}

TEST(Segment, TruncationMarkerIsIllegal) {
  const HeaderSegment mark = HeaderSegment::truncation_marker();
  EXPECT_TRUE(mark.flags.trm);
  EXPECT_FALSE(mark.is_legal());
  HeaderSegment normal;
  EXPECT_TRUE(normal.is_legal());
}

TEST(SourceRoute, SetRpfMarksAll) {
  SourceRoute route;
  route.segments.resize(3);
  route.set_rpf();
  for (const auto& seg : route.segments) EXPECT_TRUE(seg.flags.rpf);
}

TEST(Trailer, ReturnRouteReversesEntries) {
  // Entries as routers appended them: first router first.
  std::vector<HeaderSegment> entries;
  for (std::uint8_t p : {3, 7, 2}) {
    HeaderSegment e;
    e.port = p;
    e.flags.vnt = true;
    entries.push_back(e);
  }
  const SourceRoute back = build_return_route(entries);
  // Last router's return hop comes first, then backwards, then local.
  ASSERT_EQ(back.segments.size(), 4u);
  EXPECT_EQ(back.segments[0].port, 2);
  EXPECT_EQ(back.segments[1].port, 7);
  EXPECT_EQ(back.segments[2].port, 3);
  EXPECT_EQ(back.segments[3].port, kLocalPort);
  for (const auto& seg : back.segments) EXPECT_TRUE(seg.flags.rpf);
}

TEST(Trailer, ReturnRouteCarriesPortInfoVerbatim) {
  HeaderSegment e;
  e.port = 5;
  e.port_info = {1, 2, 3, 4};
  const SourceRoute back = build_return_route({e});
  EXPECT_EQ(back.segments[0].port_info, (wire::Bytes{1, 2, 3, 4}));
}

TEST(Trailer, OriginEndpointInFinalSegment) {
  const wire::Bytes endpoint{9, 9, 9, 9, 9, 9, 9, 9};
  const SourceRoute back = build_return_route({}, endpoint);
  ASSERT_EQ(back.segments.size(), 1u);
  EXPECT_EQ(back.segments[0].port, kLocalPort);
  EXPECT_EQ(back.segments[0].port_info, endpoint);
  EXPECT_FALSE(back.segments[0].flags.vnt);
}

TEST(Trailer, ClassifyDetectsTruncationMark) {
  std::vector<HeaderSegment> raw;
  HeaderSegment normal;
  normal.port = 1;
  raw.push_back(normal);
  raw.push_back(HeaderSegment::truncation_marker());
  const TrailerInfo info = classify_trailer(raw);
  EXPECT_TRUE(info.truncated);
  ASSERT_EQ(info.entries.size(), 1u);
  EXPECT_EQ(info.entries[0].port, 1);
}

TEST(Trailer, EmptyTrailerMakesLocalOnlyRoute) {
  const SourceRoute back = build_return_route({});
  ASSERT_EQ(back.segments.size(), 1u);
  EXPECT_EQ(back.segments[0].port, kLocalPort);
}

TEST(Multicast, TreeInfoRoundTrip) {
  const std::vector<wire::Bytes> branches{{1, 2, 3}, {4, 5}, {}};
  const wire::Bytes info = encode_tree_info(branches);
  EXPECT_TRUE(is_tree_info(info));
  const std::optional<TreeView> tree = TreeView::parse(info);
  ASSERT_TRUE(tree.has_value());
  std::vector<wire::Bytes> seen;
  for (const std::span<const std::uint8_t> branch : *tree) {
    // Each branch is a view into the block, not a copy.
    EXPECT_GE(branch.data(), info.data());
    EXPECT_LE(branch.data() + branch.size(), info.data() + info.size());
    seen.emplace_back(branch.begin(), branch.end());
  }
  EXPECT_EQ(seen, branches);
}

TEST(Multicast, TreeInfoRejectsBadInput) {
  EXPECT_THROW(encode_tree_info({}), wire::CodecError);
  wire::Bytes not_tree{0x00, 0x01};
  EXPECT_FALSE(is_tree_info(not_tree));
  EXPECT_FALSE(TreeView::parse(not_tree).has_value());
  wire::Bytes bad{kTreeInfoTag, 2, 0, 5, 1};  // claims 5 bytes, has 1
  EXPECT_FALSE(TreeView::parse(bad).has_value());
  // A well-formed first branch does not rescue a short second one.
  wire::Bytes short_second{kTreeInfoTag, 2, 0, 1, 7, 0};
  EXPECT_FALSE(TreeView::parse(short_second).has_value());
  wire::Bytes trailing{kTreeInfoTag, 1, 0, 1, 7, 9};  // one byte after
  EXPECT_FALSE(TreeView::parse(trailing).has_value());
  wire::Bytes tag_only{kTreeInfoTag};
  EXPECT_FALSE(TreeView::parse(tag_only).has_value());
  // Zero branches is a legal (empty) block.
  wire::Bytes none{kTreeInfoTag, 0};
  const std::optional<TreeView> empty = TreeView::parse(none);
  ASSERT_TRUE(empty.has_value());
  EXPECT_EQ(empty->begin(), empty->end());
}

TEST(Multicast, AgentPayloadRoundTrip) {
  AgentPayload payload;
  payload.member_routes = {{1, 1, 1}, {2, 2}};
  payload.data = {9, 8, 7};
  const wire::Bytes encoded = encode_agent_payload(payload);
  const std::optional<AgentPayload> back = decode_agent_payload(encoded);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->member_routes, payload.member_routes);
  EXPECT_EQ(back->data, payload.data);
}

TEST(Multicast, AgentPayloadEmptyMembers) {
  AgentPayload payload;
  payload.data = {1};
  const std::optional<AgentPayload> back =
      decode_agent_payload(encode_agent_payload(payload));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->member_routes.empty());
  EXPECT_EQ(back->data, (wire::Bytes{1}));
}

TEST(Multicast, AgentPayloadTruncatedCountIsRejected) {
  // No count byte at all, and a count promising more blobs than follow.
  EXPECT_FALSE(decode_agent_payload(wire::Bytes{}).has_value());
  AgentPayload payload;
  payload.member_routes = {{1, 1, 1}};
  wire::Bytes encoded = encode_agent_payload(payload);
  encoded[0] = 2;
  EXPECT_FALSE(decode_agent_payload(encoded).has_value());
  // A length prefix cut after its first octet.
  EXPECT_FALSE(decode_agent_payload(wire::Bytes{1, 0}).has_value());
}

TEST(Multicast, AgentPayloadOverlongLengthIsRejected) {
  AgentPayload payload;
  payload.member_routes = {{1, 1, 1}, {2, 2}};
  const wire::Bytes encoded = encode_agent_payload(payload);
  // The second blob claims one octet more than the image holds.
  wire::Bytes overlong = encoded;
  overlong[1 + 2 + 3 + 1] = 3;
  EXPECT_FALSE(decode_agent_payload(overlong).has_value());
  // Claiming exactly the bytes that remain is legal (empty data).
  EXPECT_TRUE(decode_agent_payload(encoded).has_value());
}

}  // namespace
}  // namespace srp::core

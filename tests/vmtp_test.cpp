// Integration tests for the VMTP-style transport over Sirpent (paper §4):
// request/response on return routes, packet groups, selective
// retransmission, misdelivery detection, timestamps/MPL, end-to-end
// checksums.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "directory/fabric.hpp"
#include "test_util.hpp"
#include "transport/header.hpp"
#include "transport/timestamp.hpp"
#include "transport/vmtp.hpp"

namespace srp::vmtp {
namespace {

using test::pattern_bytes;

TEST(TransportHeader, RoundTripAndChecksum) {
  Header h;
  h.src_entity = 0x1111222233334444ULL;
  h.dst_entity = 0x5555666677778888ULL;
  h.transaction = 99;
  h.type = PacketType::kResponse;
  h.group_size = 4;
  h.index = 2;
  h.flags = kFlagRetransmission;
  h.timestamp = 123456;
  h.mask = 0xB;
  const wire::Bytes payload = pattern_bytes(33);
  wire::Bytes packet = encode_transport_packet(h, payload);
  const auto back = decode_transport_packet(packet);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->header, h);
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                         back->payload.begin(), back->payload.end()));

  // Any single corrupted byte is caught by the end-to-end checksum.
  for (std::size_t i = 0; i < packet.size(); i += 7) {
    wire::Bytes bad = packet;
    bad[i] ^= 0x20;
    EXPECT_FALSE(decode_transport_packet(bad).has_value()) << i;
  }
}

TEST(TransportHeader, RejectsBadStructure) {
  EXPECT_FALSE(decode_transport_packet(wire::Bytes(10, 0)).has_value());
  Header h;
  h.group_size = 2;
  h.index = 1;
  wire::Bytes ok = encode_transport_packet(h, {});
  // index >= group_size: rebuild with index 2 (invalid).
  Header bad_h = h;
  bad_h.index = 2;
  wire::Bytes bad = encode_transport_packet(bad_h, {});
  EXPECT_FALSE(decode_transport_packet(bad).has_value());
  EXPECT_TRUE(decode_transport_packet(ok).has_value());
}

TEST(Timestamps, WraparoundDiff) {
  EXPECT_EQ(timestamp_diff_ms(100, 50), 50);
  EXPECT_EQ(timestamp_diff_ms(50, 100), -50);
  // Across the 2^32 wrap.
  EXPECT_EQ(timestamp_diff_ms(5, 0xFFFFFFF0u), 21);
  EXPECT_EQ(timestamp_diff_ms(0xFFFFFFF0u, 5), -21);
}

TEST(Timestamps, HostClockNeverReturnsReservedZero) {
  sim::Simulator sim;
  HostClock clock(sim, 0);
  EXPECT_NE(clock.now_ms(), kInvalidTimestamp);
}

TEST(Timestamps, SkewVisibleInAge) {
  sim::Simulator sim;
  HostClock sender(sim, 0);
  HostClock receiver(sim, 2 * sim::kSecond);  // runs 2 s ahead
  const std::uint32_t stamp = sender.now_ms();
  EXPECT_NEAR(static_cast<double>(receiver.age_ms(stamp)), 2000.0, 2.0);
}

/// Two hosts, two routers, VMTP endpoints on both ends.
struct VmtpFixture : ::testing::Test {
  sim::Simulator sim;
  dir::Fabric fabric{sim};
  viper::ViperHost* client_host = nullptr;
  viper::ViperRouter* r1 = nullptr;
  viper::ViperRouter* r2 = nullptr;
  viper::ViperHost* server_host = nullptr;
  std::unique_ptr<VmtpEndpoint> client;
  std::unique_ptr<VmtpEndpoint> server;
  dir::IssuedRoute route;

  static constexpr std::uint64_t kClientId = 0xC11E;
  static constexpr std::uint64_t kServerId = 0x5E44;

  void build(VmtpConfig client_config = {}, VmtpConfig server_config = {}) {
    client_host = &fabric.add_host("client.test");
    r1 = &fabric.add_router("r1");
    r2 = &fabric.add_router("r2");
    server_host = &fabric.add_host("server.test");
    fabric.connect(*client_host, *r1);
    fabric.connect(*r1, *r2);
    fabric.connect(*r2, *server_host);
    client = std::make_unique<VmtpEndpoint>(sim, *client_host, kClientId,
                                            client_config);
    server = std::make_unique<VmtpEndpoint>(sim, *server_host, kServerId,
                                            server_config);
    // Echo server that prepends a marker byte.
    server->serve([](std::span<const std::uint8_t> request,
                     const viper::Delivery&) {
      // reserve + push_back (not list-init then insert) sidesteps a GCC 12
      // -Warray-bounds false positive on the 1-byte initializer buffer.
      wire::Bytes response;
      response.reserve(request.size() + 1);
      response.push_back(0xEE);
      response.insert(response.end(), request.begin(), request.end());
      return response;
    });
    dir::QueryOptions options;
    options.dest_endpoint = kServerId;
    const auto routes = fabric.directory().query(
        fabric.id_of(*client_host), "server.test", options);
    ASSERT_FALSE(routes.empty());
    route = routes.front();
  }
};

TEST_F(VmtpFixture, SimpleRpcRoundTrip) {
  build();
  std::optional<Result> result;
  const wire::Bytes request = pattern_bytes(100);
  client->invoke(route, kServerId, request,
                 [&](Result r) { result = std::move(r); });
  sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok);
  ASSERT_EQ(result->response.size(), 101u);
  EXPECT_EQ(result->response[0], 0xEE);
  EXPECT_EQ(result->retransmissions, 0);
  EXPECT_GT(result->rtt, 0);
  EXPECT_LT(result->rtt, sim::kMillisecond);
  EXPECT_EQ(server->stats().requests_served, 1u);
  EXPECT_EQ(client->stats().responses_received, 1u);
}

TEST_F(VmtpFixture, LargeMessageUsesPacketGroup) {
  build();
  std::optional<Result> result;
  const wire::Bytes request = pattern_bytes(8000);  // 8 packets of 1 KB
  client->invoke(route, kServerId, request,
                 [&](Result r) { result = std::move(r); });
  sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok);
  EXPECT_EQ(result->response.size(), 8001u);
  // Verify content survived segmentation + reassembly end to end.
  for (std::size_t i = 0; i < 8000; ++i) {
    ASSERT_EQ(result->response[i + 1], request[i]) << i;
  }
  EXPECT_GE(client->stats().data_packets_sent, 8u);
}

TEST_F(VmtpFixture, OversizeMessageRejected) {
  build();
  const wire::Bytes request(17 * 1024, 0xAA);  // > 16 packets
  EXPECT_THROW(client->invoke(route, kServerId, request, [](Result) {}),
               std::invalid_argument);
}

TEST_F(VmtpFixture, SelectiveRetransmissionRepairsGroup) {
  VmtpConfig config;
  config.gap_timeout = 200 * sim::kMicrosecond;
  build(config, config);
  // Drop exactly two request data packets on their first pass r1 -> r2.
  int dropped = 0;
  int seen = 0;
  r1->port(2).fault_hook = net::drop_when([&](const net::Packet&) {
    ++seen;
    if ((seen == 3 || seen == 5) && dropped < 2) {
      ++dropped;
      return true;
    }
    return false;
  });
  std::optional<Result> result;
  const wire::Bytes request = pattern_bytes(6000);  // 6 packets
  client->invoke(route, kServerId, request,
                 [&](Result r) { result = std::move(r); });
  sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok);
  EXPECT_EQ(result->response.size(), 6001u);
  EXPECT_EQ(dropped, 2);
  // The repair went through NACK + selective retransmission, not a full
  // group resend.
  EXPECT_GT(server->stats().nacks_sent, 0u);
  EXPECT_GT(client->stats().nacks_received, 0u);
  EXPECT_GE(client->stats().retransmitted_packets, 2u);
}

TEST_F(VmtpFixture, TimeoutFailsAfterRetries) {
  VmtpConfig config;
  config.min_rto = sim::kMillisecond;
  config.max_retries = 2;
  build(config, config);
  fabric.fail_link_silently(*r1, *r2);
  bool failure_hook_fired = false;
  client->set_failure_hook([&] { failure_hook_fired = true; });
  std::optional<Result> result;
  client->invoke(route, kServerId, pattern_bytes(10),
                 [&](Result r) { result = std::move(r); });
  sim.run_until(sim::kSecond);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok);
  EXPECT_FALSE(result->error.empty());
  EXPECT_TRUE(failure_hook_fired);
  EXPECT_EQ(client->stats().failures, 1u);
  EXPECT_GE(client->stats().timeouts, 3u);
}

TEST_F(VmtpFixture, DuplicateRequestGetsCachedResponse) {
  VmtpConfig config;
  config.min_rto = 300 * sim::kMicrosecond;  // below the response RTT? no:
  build(config, config);
  // Drop the first *response* pass r2 -> r1 so the client times out and
  // retransmits the request; the server must answer from its served cache
  // without re-invoking the handler.
  int responses_dropped = 0;
  r2->port(1).fault_hook = net::drop_when([&](const net::Packet&) {
    if (responses_dropped == 0) {
      ++responses_dropped;
      return true;
    }
    return false;
  });
  std::optional<Result> result;
  client->invoke(route, kServerId, pattern_bytes(10),
                 [&](Result r) { result = std::move(r); });
  sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok);
  EXPECT_EQ(server->stats().requests_served, 1u);  // handler ran once
  EXPECT_EQ(server->stats().duplicate_requests, 1u);
}

TEST_F(VmtpFixture, MisdeliveryDetectedByEntityId) {
  build();
  std::optional<Result> result;
  client->invoke(route, /*server_entity=*/0xBAD, pattern_bytes(10),
                 [&](Result r) { result = std::move(r); });
  // The server host delivers to the endpoint named in the VIPER segment
  // (kServerId), but the transport header says 0xBAD: the endpoint must
  // reject it ("unique independent of the network layer addressing").
  sim.run_until(50 * sim::kMillisecond);
  EXPECT_GE(server->stats().misdeliveries, 1u);  // retries also rejected
  EXPECT_EQ(server->stats().requests_served, 0u);
}

TEST_F(VmtpFixture, OldPacketsDiscardedByMpl) {
  VmtpConfig client_config;
  // The client's clock runs far behind: its timestamps look ancient.
  client_config.clock_offset = -120 * sim::kSecond;
  VmtpConfig server_config;
  server_config.mpl_ms = 60'000;
  build(client_config, server_config);
  std::optional<Result> result;
  client->invoke(route, kServerId, pattern_bytes(10),
                 [&](Result r) { result = std::move(r); });
  sim.run_until(20 * sim::kMillisecond);
  EXPECT_GE(server->stats().mpl_discards, 1u);
  EXPECT_EQ(server->stats().requests_served, 0u);
}

TEST_F(VmtpFixture, ToleratedSkewStillDelivers) {
  VmtpConfig client_config;
  client_config.clock_offset = 2 * sim::kSecond;  // ahead, within skew
  build(client_config, {});
  std::optional<Result> result;
  client->invoke(route, kServerId, pattern_bytes(10),
                 [&](Result r) { result = std::move(r); });
  sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok);
}

TEST_F(VmtpFixture, CorruptedPacketCaughtByChecksum) {
  build();
  // Bypass the transport: hand the server host a damaged transport packet.
  Header h;
  h.src_entity = kClientId;
  h.dst_entity = kServerId;
  h.transaction = 7;
  wire::Bytes packet = encode_transport_packet(h, pattern_bytes(20));
  packet[Header::kWireSize + 3] ^= 0x10;  // corrupt payload
  viper::SendOptions options;
  options.out_port = route.host_out_port;
  core::SourceRoute viper_route = route.route;
  client_host->send(viper_route, packet, options);
  sim.run();
  EXPECT_EQ(server->stats().checksum_drops, 1u);
  EXPECT_EQ(server->stats().requests_served, 0u);
}

TEST_F(VmtpFixture, RatePacingSpacesGroupPackets) {
  VmtpConfig paced;
  paced.send_rate_bps = 1e7;  // 10 Mb/s: ~0.85 ms per 1 KB packet
  build(paced, {});
  std::optional<Result> result;
  client->invoke(route, kServerId, pattern_bytes(4000),
                 [&](Result r) { result = std::move(r); });
  const sim::Time start = sim.now();
  sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok);
  // 4 spaced packets at ~0.85 ms apart: the RTT reflects the pacing.
  EXPECT_GT(result->rtt - start, 2 * sim::kMillisecond);
}

TEST_F(VmtpFixture, RttFeedsRouteCacheHook) {
  build();
  std::vector<sim::Time> rtts;
  client->set_rtt_hook([&](sim::Time rtt) { rtts.push_back(rtt); });
  for (int i = 0; i < 3; ++i) {
    client->invoke(route, kServerId, pattern_bytes(10), [](Result) {});
  }
  sim.run();
  EXPECT_EQ(rtts.size(), 3u);
  EXPECT_GT(client->smoothed_rtt(), 0);
}

// --- recycled transaction state -------------------------------------------
//
// An endpoint recycles the map nodes of finished transactions, completed
// groups and evicted served responses, keeps one buffer per message, and
// answers a completing packet through its live Delivery.  These cases pin
// that nothing of an earlier transaction leaks into a later one.

using VmtpRecycle = VmtpFixture;

wire::Bytes xor_5a(std::span<const std::uint8_t> bytes) {
  wire::Bytes out(bytes.begin(), bytes.end());
  for (auto& byte : out) byte ^= 0x5A;
  return out;
}

/// A 3-part transaction leaves its state to a 1-part one on the same
/// endpoints: the server hands up only the new request and the client only
/// the new response.
TEST_F(VmtpRecycle, ThreePartThenOnePartDeliversOnlyTheNewPayload) {
  build();
  std::vector<wire::Bytes> requests_seen;
  server->serve([&](std::span<const std::uint8_t> request,
                    const viper::Delivery&) {
    requests_seen.emplace_back(request.begin(), request.end());
    return xor_5a(request);
  });
  const wire::Bytes large = pattern_bytes(3000, 1);
  const wire::Bytes small = pattern_bytes(10, 2);
  std::vector<Result> results;
  for (const wire::Bytes* request : {&large, &small}) {
    client->invoke(route, kServerId, *request,
                   [&](Result r) { results.push_back(std::move(r)); });
    sim.run();
  }
  ASSERT_EQ(requests_seen.size(), 2u);
  EXPECT_EQ(requests_seen[0], large);
  EXPECT_EQ(requests_seen[1], small);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].ok);
  EXPECT_EQ(results[0].response, xor_5a(large));
  EXPECT_TRUE(results[1].ok);
  EXPECT_EQ(results[1].response, xor_5a(small));
}

/// A group that reuses a completed group's state NACKs on its own return
/// route: the second client, not the first, is asked for its lost part.
TEST_F(VmtpRecycle, GapNackOnRecycledStateRepliesOnCurrentReturnRoute) {
  VmtpConfig config;
  config.gap_timeout = 200 * sim::kMicrosecond;
  build(config, config);
  viper::ViperHost& other_host = fabric.add_host("other.test");
  fabric.connect(other_host, *r1);
  constexpr std::uint64_t kOtherId = 0x07E4;
  VmtpEndpoint other(sim, other_host, kOtherId, config);
  dir::QueryOptions options;
  options.dest_endpoint = kServerId;
  const auto other_routes = fabric.directory().query(
      fabric.id_of(other_host), "server.test", options);
  ASSERT_FALSE(other_routes.empty());

  // The first client's 3-part request completes; its group state, reply
  // path included, goes to the spare.
  std::optional<Result> first;
  client->invoke(route, kServerId, pattern_bytes(3000, 1),
                 [&](Result r) { first = std::move(r); });
  sim.run();
  ASSERT_TRUE(first.has_value() && first->ok);

  // The second client's middle part is lost on its first pass r1 -> r2.
  int seen = 0;
  r1->port(2).fault_hook =
      net::drop_when([&](const net::Packet&) { return ++seen == 2; });
  std::optional<Result> second;
  const wire::Bytes request = pattern_bytes(3000, 2);
  other.invoke(other_routes.front(), kServerId, request,
               [&](Result r) { second = std::move(r); });
  sim.run();
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->ok);
  EXPECT_EQ(second->response.size(), request.size() + 1);
  EXPECT_EQ(server->stats().nacks_sent, 1u);
  EXPECT_EQ(other.stats().nacks_received, 1u);
  EXPECT_EQ(other.stats().timeouts, 0u) << "repaired by the NACK, not the RTO";
  EXPECT_EQ(client->stats().nacks_received, 0u);
}

/// The server remembers 4,096 responses.  A duplicate with 4,095 newer
/// transactions behind it is answered from that memory, byte for byte; one
/// with 4,096 behind it is not — its handler runs again.
TEST_F(VmtpRecycle, DuplicateBeyondServedCapIsNotAnsweredFromMemory) {
  build();
  std::uint16_t calls = 0;
  server->serve([&](std::span<const std::uint8_t> request,
                    const viper::Delivery&) {
    // The call number makes a re-run's response differ from the first.
    wire::Bytes response(request.begin(), request.end());
    response.push_back(static_cast<std::uint8_t>(calls >> 8));
    response.push_back(static_cast<std::uint8_t>(calls));
    ++calls;
    return response;
  });
  // Raw requests from an entity the client host has not bound: responses
  // reach its default handler, which keeps the latest per transaction.
  constexpr std::uint64_t kRawId = 0xD00D;
  std::map<std::uint32_t, wire::Bytes> responses;
  client_host->set_default_handler([&](const viper::Delivery& d) {
    const auto packet = decode_transport_packet(d.data);
    ASSERT_TRUE(packet.has_value());
    ASSERT_EQ(packet->header.dst_entity, kRawId);
    responses[packet->header.transaction].assign(packet->payload.begin(),
                                                  packet->payload.end());
  });
  auto request = [&](std::uint32_t transaction) {
    Header h;
    h.src_entity = kRawId;
    h.dst_entity = kServerId;
    h.transaction = transaction;
    h.timestamp = kInvalidTimestamp;  // exempt from the lifetime check
    wire::Bytes payload(4);
    for (int i = 0; i < 4; ++i) {
      payload[i] = static_cast<std::uint8_t>(transaction >> (24 - 8 * i));
    }
    viper::SendOptions send;
    send.out_port = route.host_out_port;
    client_host->send(route.route, encode_transport_packet(h, payload), send);
  };
  auto resend = [&](std::uint32_t transaction) {
    responses.erase(transaction);
    request(transaction);
    sim.run();
    return responses.at(transaction);
  };

  constexpr std::uint32_t kCap = 4096;
  for (std::uint32_t t = 1; t <= kCap; ++t) request(t);
  sim.run();
  ASSERT_EQ(responses.size(), kCap);
  const wire::Bytes first_1 = responses.at(1);
  const wire::Bytes first_2 = responses.at(2);
  const wire::Bytes first_3 = responses.at(3);

  EXPECT_EQ(resend(1), first_1) << "4,095 newer: still remembered";
  EXPECT_EQ(server->stats().duplicate_requests, 1u);

  request(kCap + 1);  // evicts 1
  request(kCap + 2);  // evicts 2
  sim.run();
  EXPECT_EQ(resend(3), first_3) << "4,095 newer: still remembered";
  EXPECT_EQ(server->stats().duplicate_requests, 2u);
  EXPECT_EQ(server->stats().requests_served, kCap + 2);

  EXPECT_NE(resend(2), first_2) << "4,096 newer: forgotten, served afresh";
  EXPECT_EQ(server->stats().duplicate_requests, 2u);
  EXPECT_EQ(server->stats().requests_served, kCap + 3);
}

/// A response callback that invokes again gets the finished transaction's
/// recycled state while it still runs; the chain completes and every
/// callback's own captures survive the nested invoke.
TEST_F(VmtpRecycle, CallbackInvokingReentrantlyWorks) {
  build();
  const std::vector<wire::Bytes> requests = {
      pattern_bytes(3000, 1), pattern_bytes(10, 2), pattern_bytes(2500, 3),
      pattern_bytes(1, 4), pattern_bytes(0, 5)};
  std::vector<Result> results;
  std::vector<std::string> labels;
  std::function<void()> next = [&] {
    const std::size_t i = results.size();
    // A capture too large for std::function's inline buffer: it lives on
    // the heap with the callback, and is read after the nested invoke.
    const std::string label = "transaction " + std::to_string(i) +
                              " of a chain long enough to need the heap";
    client->invoke(route, kServerId, requests[i], [&, label](Result r) {
      results.push_back(std::move(r));
      if (results.size() < requests.size()) next();
      labels.push_back(label);
    });
  };
  next();
  sim.run();
  ASSERT_EQ(results.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    SCOPED_TRACE("transaction " + std::to_string(i));
    EXPECT_TRUE(results[i].ok);
    ASSERT_EQ(results[i].response.size(), requests[i].size() + 1);
    EXPECT_TRUE(std::equal(requests[i].begin(), requests[i].end(),
                           results[i].response.begin() + 1));
  }
  ASSERT_EQ(labels.size(), requests.size());
  // Each callback pushes its label after its nested invoke has returned.
  for (std::size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ(labels[i], "transaction " + std::to_string(i) +
                             " of a chain long enough to need the heap");
  }
}

/// The handler's `from` is the completing packet's own delivery: its data
/// is the last part's transport packet.
TEST_F(VmtpRecycle, HandlerFromDataIsLastPacketData) {
  build();
  std::vector<wire::Bytes> from_data;
  server->serve([&](std::span<const std::uint8_t> request,
                    const viper::Delivery& from) {
    from_data.push_back(from.data);
    return wire::Bytes(request.begin(), request.end());
  });
  const wire::Bytes request = pattern_bytes(2500, 7);  // parts 0..2
  for (int round = 0; round < 2; ++round) {
    client->invoke(route, kServerId, request, [](Result) {});
    sim.run();
  }
  ASSERT_EQ(from_data.size(), 2u);
  for (std::uint32_t round = 0; round < 2; ++round) {
    const auto packet = decode_transport_packet(from_data[round]);
    ASSERT_TRUE(packet.has_value());
    EXPECT_EQ(packet->header.transaction, round + 1);
    EXPECT_EQ(packet->header.index, 2);
    EXPECT_TRUE(std::equal(request.begin() + 2048, request.end(),
                           packet->payload.begin(), packet->payload.end()));
  }
}

}  // namespace
}  // namespace srp::vmtp

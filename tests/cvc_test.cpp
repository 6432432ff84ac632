// Tests for the concatenated-virtual-circuit baseline: signaling, label
// swapping, per-switch state, and the setup round trip the paper charges
// against this approach.
#include <gtest/gtest.h>

#include <optional>

#include "cvc/host.hpp"
#include "cvc/switch.hpp"
#include "cvc/wire.hpp"
#include "net/network.hpp"
#include "test_util.hpp"

namespace srp::cvc {
namespace {

using test::pattern_bytes;

TEST(CvcWire, FrameRoundTrips) {
  Frame setup;
  setup.type = FrameType::kSetup;
  setup.vci = 12;
  setup.call_id = 0xABCDEF;
  setup.route = {2, 3, 1};
  auto back = decode_frame(encode_frame(setup));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, setup);

  Frame data;
  data.type = FrameType::kData;
  data.vci = 99;
  data.payload = pattern_bytes(40);
  back = decode_frame(encode_frame(data));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, data);
}

TEST(CvcWire, RejectsGarbage) {
  EXPECT_FALSE(decode_frame(wire::Bytes{}).has_value());
  EXPECT_FALSE(decode_frame(wire::Bytes{0x09, 0, 1}).has_value());
  // Truncated setup.
  wire::Bytes truncated{1, 0, 5, 0, 0};
  EXPECT_FALSE(decode_frame(truncated).has_value());
}

struct CvcLineTest : ::testing::Test {
  sim::Simulator sim;
  net::Network net{sim};
  CvcHost* a = nullptr;
  CvcSwitch* s1 = nullptr;
  CvcSwitch* s2 = nullptr;
  CvcHost* b = nullptr;

  void build() {
    a = &net.add<CvcHost>("a", net.packets());
    s1 = &net.add<CvcSwitch>("s1");
    s2 = &net.add<CvcSwitch>("s2");
    b = &net.add<CvcHost>("b", net.packets());
    const net::LinkConfig cfg{1e9, 10 * sim::kMicrosecond, 1500};
    net.duplex(*a, *s1, cfg);   // s1 port 1 toward a
    net.duplex(*s1, *s2, cfg);  // s1 port 2 toward s2, s2 port 1 toward s1
    net.duplex(*s2, *b, cfg);   // s2 port 2 toward b
  }
};

TEST_F(CvcLineTest, SetupConnectsAfterFullRoundTrip) {
  build();
  std::optional<std::uint16_t> circuit;
  sim::Time connected_at = 0;
  a->open({2, 2}, [&](std::optional<std::uint16_t> c) {
    circuit = c;
    connected_at = sim.now();
  });
  sim.run();
  ASSERT_TRUE(circuit.has_value());
  EXPECT_EQ(a->stats().connected, 1u);
  EXPECT_EQ(b->stats().accepted, 1u);
  // Setup paid >= one full round trip: 6 links x 10 us each way, plus
  // 2x setup processing (500 us) per switch per direction.
  EXPECT_GT(connected_at, 2 * 3 * 10 * sim::kMicrosecond);
  EXPECT_GT(connected_at, 2 * sim::kMillisecond);  // 4 x 500 us dominates
  EXPECT_EQ(s1->stats().circuits_active, 1u);
  EXPECT_EQ(s2->stats().circuits_active, 1u);
  EXPECT_GT(s1->state_bytes(), 0u);
}

TEST_F(CvcLineTest, DataFlowsBothWaysAfterSetup) {
  build();
  std::optional<std::uint16_t> circuit;
  a->open({2, 2}, [&](auto c) { circuit = c; });
  sim.run();
  ASSERT_TRUE(circuit.has_value());

  wire::Bytes at_b;
  std::uint16_t b_circuit = 0;
  b->set_data_handler([&](std::uint16_t c, wire::Bytes d) {
    b_circuit = c;
    at_b = std::move(d);
  });
  a->send(*circuit, pattern_bytes(200));
  sim.run();
  EXPECT_EQ(at_b, pattern_bytes(200));

  wire::Bytes at_a;
  a->set_data_handler([&](std::uint16_t, wire::Bytes d) {
    at_a = std::move(d);
  });
  b->send(b_circuit, pattern_bytes(55));
  sim.run();
  EXPECT_EQ(at_a, pattern_bytes(55));
  EXPECT_EQ(s1->stats().data_forwarded, 2u);
}

TEST_F(CvcLineTest, ReleaseClearsSwitchState) {
  build();
  std::optional<std::uint16_t> circuit;
  a->open({2, 2}, [&](auto c) { circuit = c; });
  sim.run();
  ASSERT_TRUE(circuit.has_value());
  EXPECT_EQ(s1->stats().circuits_active, 1u);
  a->close(*circuit);
  sim.run();
  EXPECT_EQ(s1->stats().circuits_active, 0u);
  EXPECT_EQ(s2->stats().circuits_active, 0u);
  EXPECT_EQ(b->stats().released, 1u);
  EXPECT_EQ(s1->peak_state_bytes(), 2 * 32u);
}

TEST_F(CvcLineTest, DataOnUnknownVciDropped) {
  build();
  a->send(321, pattern_bytes(10));
  sim.run();
  EXPECT_EQ(s1->stats().dropped_unknown_vci, 1u);
}

TEST_F(CvcLineTest, SetupTimeoutWhenPathDead) {
  build();
  // Kill the middle link before the setup.
  s1->port(2).set_up(false);
  std::optional<std::optional<std::uint16_t>> outcome;
  a->open({2, 2}, [&](auto c) { outcome = c; });
  sim.run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->has_value());
  EXPECT_EQ(a->stats().setup_timeouts, 1u);
}

TEST_F(CvcLineTest, ManyCircuitsAccumulateState) {
  build();
  int connected = 0;
  for (int i = 0; i < 20; ++i) {
    a->open({2, 2}, [&](auto c) {
      if (c.has_value()) ++connected;
    });
  }
  sim.run();
  EXPECT_EQ(connected, 20);
  // The paper's complaint: per-circuit state scales with circuits held.
  EXPECT_EQ(s1->stats().circuits_active, 20u);
  EXPECT_EQ(s1->state_bytes(), 2 * 20 * 32u);
}

}  // namespace
}  // namespace srp::cvc

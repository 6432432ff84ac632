// Runtime twin of srp-lint's hotpath-alloc pass (scripts/srp_lint.py).
//
// The static pass polices SRP_HOT_PATH function bodies lexically; it
// cannot see allocations that hide behind calls (wire::Bytes copies,
// sim event captures too large for the scheduler's inline buffer,
// container rehashes).  This binary replaces global operator new with a
// counting shim and pins the *end-to-end* allocation cost of the
// steady-state forwarding path: if a change sneaks an extra per-packet
// allocation in anywhere — router, port, codec, scheduler, flow
// accounting — the budget assertion moves and the regression is
// attributable to the change that made it, not discovered in a profile
// much later.  The end-to-end cost of a warm 2-router line, a warm router
// hop, a warm idle output port and a warm scheduler schedule + pop are
// each pinned at exactly zero.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "directory/fabric.hpp"
#include "sim/event_queue.hpp"
#include "test_util.hpp"
#include "viper/codec.hpp"
#include "viper/router.hpp"
#include "wire/buffer.hpp"

namespace {

std::uint64_t g_allocations = 0;

void* counted_alloc(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Full replacement set: every form must be covered or the default
// implementation silently takes over for that form and the counts lie.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace srp {
namespace {

using test::line_route;
using test::pattern_bytes;

std::uint64_t allocation_count() {
  return g_allocations;
}

/// Steady-state allocations per packet across a 2-router line, measured
/// end to end: host encode, two router forwards (cut-through peek, port
/// queueing, flow accounting, hop events), final local delivery.  Pinned
/// at zero: the host encodes into a recycled slab of the network's arena,
/// delivery refills the host's kept Delivery (data, return route), router
/// hops rewrite into their own arena slabs, port queues reuse their
/// vectors, and every sim event's capture fits the scheduler's inline
/// buffer.
TEST(AllocBudget, SteadyStateLineForwardingStaysWithinBudget) {
  sim::Simulator sim;
  dir::Fabric fabric{sim};
  test::Line line = test::build_line(fabric, 2, "src.test", "dst.test");

  std::uint64_t delivered = 0;
  line.dst->set_default_handler([&](const viper::Delivery&) { ++delivered; });

  const core::SourceRoute route = line_route(2);
  const wire::Bytes payload = pattern_bytes(64);

  constexpr int kPackets = 200;
  auto burst = [&] {
    for (int i = 0; i < kPackets; ++i) line.src->send(route, payload);
    sim.run();
  };
  // Warm-up: one burst of the measured size grows every pool, queue and
  // table to the window's depth.
  burst();
  ASSERT_EQ(delivered, static_cast<std::uint64_t>(kPackets));

  const std::uint64_t before = allocation_count();
  burst();
  const std::uint64_t total = allocation_count() - before;
  std::printf("steady-state allocations/packet: %.2f\n",
              static_cast<double>(total) / kPackets);

  EXPECT_EQ(delivered, static_cast<std::uint64_t>(2 * kPackets));
  EXPECT_EQ(total, 0u)
      << "steady-state forwarding now allocates "
      << static_cast<double>(total) / kPackets
      << " times per packet; hoist the new allocation off the per-packet "
         "path (DESIGN.md §11)";
}

/// The router hop itself: once the arena has a warm slab, on_arrival's
/// decode → admit → rewrite → enqueue allocates nothing — the derived
/// packet is a recycled slab whose byte capacity survives reset, header
/// fields are views into the arrival buffer, and the rewrite appends in
/// place.  Measured on the router alone (output
/// port administratively down, so enqueue drops without link machinery
/// and the slab frees at once; driving through sim events would charge
/// the event queue's own storage to the forward path).
TEST(AllocBudget, PerPacketForwardIsAllocationFreeOnceWarm) {
  sim::Simulator sim;
  viper::ViperRouter router(sim, "r.hop", {});
  const net::LinkConfig link;
  router.add_port(link);         // port 1: ingress side
  router.add_port(link);         // port 2: egress
  router.port(2).set_up(false);  // drop at enqueue, zero events

  core::SourceRoute route;
  route.segments.push_back(test::p2p_segment(2));
  route.segments.push_back(test::local_segment());
  net::PacketFactory packets;
  net::Arrival arrival;
  arrival.packet =
      packets.make(viper::encode_packet(route, pattern_bytes(256)), 0);
  arrival.in_port = 1;
  arrival.head = 0;
  arrival.tail = 2048;
  arrival.rate_bps = link.rate_bps;

  constexpr std::uint64_t kWarm = 16;
  for (std::uint64_t i = 0; i < kWarm; ++i) router.on_arrival(arrival);

  constexpr std::uint64_t kPackets = 10'000;
  const std::uint64_t before = allocation_count();
  for (std::uint64_t i = 0; i < kPackets; ++i) router.on_arrival(arrival);
  EXPECT_EQ(allocation_count() - before, 0u)
      << "a warm per-packet router hop must not allocate; a new "
         "allocation here breaks the zero-copy arena design (DESIGN.md "
         "§11)";

  EXPECT_EQ(router.stats().forwarded, kWarm + kPackets);
  EXPECT_EQ(router.port(2).stats().dropped_down, kWarm + kPackets);
  EXPECT_EQ(router.arena().stats().fresh, 1u);
}

/// An output port that is idle at every enqueue — the common case on a
/// lightly loaded link — keeps its queue storage: enqueue → transmit →
/// complete appends to the queue vector and advances its head, and the
/// drained vector is cleared with its capacity kept, so a warm cycle
/// allocates nothing.
TEST(AllocBudget, IdlePortCycleRarelyAllocates) {
  sim::Simulator sim;
  net::TxPort port(sim, "p.idle", net::LinkConfig{});
  net::PacketFactory packets;
  const net::PacketPtr packet = packets.make(pattern_bytes(64), 0);
  auto cycle = [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      port.enqueue(packet, net::TxMeta{}, 0);
      sim.run();
    }
  };
  cycle(100);  // warm: event slots and the queue vector settle

  constexpr std::uint64_t kPackets = 1'000;
  const std::uint64_t before = allocation_count();
  cycle(kPackets);
  const std::uint64_t allocations = allocation_count() - before;
  EXPECT_EQ(allocations, 0u)
      << allocations << " allocations over " << kPackets
      << " idle-port enqueue/transmit/complete cycles";
  EXPECT_EQ(port.stats().sent, 100 + kPackets);
}

/// The scheduler's half of the per-hop cost: once the slot and heap
/// vectors are warm, scheduling and popping an event whose capture is the
/// per-hop arrival shape (a net::Arrival plus a pointer, 56 B) allocates
/// nothing — the callable lives in the inline buffer, slots are recycled
/// through the free list, and heap nodes are plain {when, id} pairs.
TEST(AllocBudget, EventScheduleAndPopIsAllocationFreeOnceWarm) {
  net::PacketFactory packets;
  net::Arrival arrival;
  arrival.packet = packets.make(pattern_bytes(64), 0);
  std::uint64_t delivered_bytes = 0;
  std::uint64_t* sink = &delivered_bytes;
  const auto event = [sink, arrival] { *sink += arrival.packet->size(); };
  static_assert(sizeof(event) == sim::EventCallback::kInlineBytes);
  static_assert(sim::EventCallback::kFitsInline<decltype(event)>);

  sim::EventQueue queue;
  constexpr sim::Time kDepth = 64;
  auto churn = [&](int rounds) {
    for (sim::Time t = 0; t < kDepth; ++t) queue.schedule(t, event);
    for (int i = 0; i < rounds; ++i) {
      auto [when, cb] = queue.pop();
      cb();
      queue.schedule(when + kDepth, event);
    }
    while (!queue.empty()) queue.pop().second();
  };
  churn(1'000);  // warm: slot, free-list and heap capacities settle

  const std::uint64_t before = allocation_count();
  churn(10'000);
  EXPECT_EQ(allocation_count() - before, 0u)
      << "EventQueue schedule+pop of a 56 B capture allocated once warm";
  EXPECT_EQ(delivered_bytes, (11'000u + 2 * kDepth) * arrival.packet->size());
}

TEST(AllocBudget, CutThroughPeekDoesNotAllocate) {
  // peek_next_port is the per-hop cut-through decision and is written to
  // be allocation-free (span-based wire::Reader, no field copies).  Pin
  // that property exactly: zero allocations per call.
  core::SourceRoute route = line_route(3);
  route.segments[0].port_info = pattern_bytes(12);
  const wire::Bytes bytes = viper::encode_route(route);

  const std::uint64_t before = allocation_count();
  std::uint8_t port = 0;
  for (int i = 0; i < 1'000; ++i) {
    port = viper::peek_next_port(bytes, 0);
  }
  EXPECT_EQ(allocation_count(), before)
      << "peek_next_port allocated on the cut-through path";
  EXPECT_EQ(port, 2);
}

TEST(AllocBudget, HistogramRecordDoesNotAllocate) {
  stats::Registry registry;
  stats::Histogram& h = registry.histogram("alloc.test.latency_ps");
  h.record(1);  // first-touch anything lazy
  const std::uint64_t before = allocation_count();
  for (std::uint64_t i = 0; i < 10'000; ++i) h.record(i);
  EXPECT_EQ(allocation_count(), before)
      << "stats::Histogram::record allocated on the hot path";
}

}  // namespace
}  // namespace srp

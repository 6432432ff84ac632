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
// much later.  The per-packet reference path's end-to-end cost is pinned
// at the measured cost plus modest headroom; the batched arena-backed
// forward path and a warm scheduler schedule + pop must be exactly zero.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "directory/fabric.hpp"
#include "sim/event_queue.hpp"
#include "test_util.hpp"
#include "viper/codec.hpp"
#include "viper/router.hpp"
#include "wire/buffer.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Full replacement set: every form must be covered or the default
// implementation silently takes over for that form and the counts lie.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
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
  return g_allocations.load(std::memory_order_relaxed);
}

/// Steady-state allocations per packet across a 2-router line, measured
/// end to end: host encode, two router forwards (cut-through peek, port
/// queueing, flow accounting, hop events), final local delivery.  The
/// measured value on libstdc++ 12 is 20.1 (host encode, per-hop packet
/// clone, port queueing, flow accounting, delivery); sim events add none,
/// since every per-hop event capture fits the scheduler's inline buffer.
/// The cap is the measured value plus ~15%, room for
/// small-buffer-optimization differences between standard libraries, not
/// for new allocations on the path.
constexpr std::uint64_t kSteadyStatePacketBudget = 23;

TEST(AllocBudget, SteadyStateLineForwardingStaysWithinBudget) {
  sim::Simulator sim;
  dir::Fabric fabric{sim};
  test::Line line = test::build_line(fabric, 2, "src.test", "dst.test");

  std::uint64_t delivered = 0;
  line.dst->set_default_handler([&](const viper::Delivery&) { ++delivered; });

  const core::SourceRoute route = line_route(2);
  const wire::Bytes payload = pattern_bytes(64);

  // Warm-up: populate flow tables, port queues, the simulator's event
  // storage and every first-touch std::map node so the measured window
  // sees only the recurring per-packet cost.
  constexpr int kWarmup = 50;
  for (int i = 0; i < kWarmup; ++i) line.src->send(route, payload);
  sim.run();
  ASSERT_EQ(delivered, static_cast<std::uint64_t>(kWarmup));

  constexpr int kPackets = 200;
  const std::uint64_t before = allocation_count();
  for (int i = 0; i < kPackets; ++i) line.src->send(route, payload);
  sim.run();
  const std::uint64_t per_packet =
      (allocation_count() - before) / kPackets;

  EXPECT_EQ(delivered, static_cast<std::uint64_t>(kWarmup + kPackets));
  EXPECT_LE(per_packet, kSteadyStatePacketBudget)
      << "steady-state forwarding now allocates " << per_packet
      << " times per packet (budget " << kSteadyStatePacketBudget
      << "); either hoist the new allocation off the hot path or update "
         "the documented budget with a rationale";
  // A budget that is far too loose is as useless as one that is too
  // tight: if an optimization lands, ratchet the constant down.
  EXPECT_GE(per_packet, kSteadyStatePacketBudget / 4)
      << "measured " << per_packet
      << " allocations/packet — tighten kSteadyStatePacketBudget";
}

/// The tentpole claim of the batched data plane: once the arena slabs and
/// the burst scratch vectors are warm, the batched forward path allocates
/// *zero* times per packet — every derived packet runs out of a recycled
/// slab whose byte capacity survives reset, header fields are views into
/// the arrival buffer, and the rewrite appends in place.  Measured on the
/// router alone (output port administratively down, so enqueue drops
/// without link machinery; driving through sim events would charge the
/// event queue's own storage to the forward path).
TEST(AllocBudget, BatchedForwardPathIsAllocationFreeOnceWarm) {
  sim::Simulator sim;
  viper::ViperRouter router(sim, "r.batch", {});
  const net::LinkConfig link;
  router.add_port(link);         // port 1: ingress side
  router.add_port(link);         // port 2: egress
  router.port(2).set_up(false);  // drop at enqueue, zero events
  viper::ViperRouter::BatchConfig batch;
  batch.max_burst = 64;
  router.set_batching(batch);

  core::SourceRoute route;
  route.segments.push_back(test::p2p_segment(2));
  route.segments.push_back(test::local_segment());
  const wire::Bytes bytes = viper::encode_packet(route, pattern_bytes(256));

  net::PacketFactory packets;
  std::vector<net::Arrival> burst;
  for (int i = 0; i < 64; ++i) {
    net::Arrival arrival;
    arrival.packet = packets.make(bytes, 0);
    arrival.in_port = 1;
    arrival.head = 0;
    arrival.tail = 2048;
    arrival.rate_bps = link.rate_bps;
    burst.push_back(std::move(arrival));
  }

  // Warm-up: the arena pool fills, slab byte capacities grow to the
  // packet size, and the classification scratch reaches steady capacity.
  constexpr std::uint64_t kWarmBursts = 8;
  for (std::uint64_t i = 0; i < kWarmBursts; ++i) {
    router.forward_burst(burst);
  }

  constexpr std::uint64_t kBursts = 100;
  const std::uint64_t before = allocation_count();
  for (std::uint64_t i = 0; i < kBursts; ++i) router.forward_burst(burst);
  EXPECT_EQ(allocation_count() - before, 0u)
      << "the steady-state batched forward path must not allocate; a new "
         "allocation here breaks the zero-copy arena design (DESIGN.md "
         "§11)";

  EXPECT_EQ(router.stats().forwarded, (kWarmBursts + kBursts) * 64);
  // The measured window really ran on recycled slabs, not fresh ones.
  EXPECT_GT(router.arena().stats().recycled, kBursts * 64 - 1);
  EXPECT_LE(router.arena().stats().fresh, 64u);
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

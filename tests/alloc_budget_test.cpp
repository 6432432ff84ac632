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
// hop, a warm idle output port, a warm router control report (sent and
// received) and a warm scheduler schedule + pop are each pinned at exactly
// zero, and a warm VMTP transaction at the one response it hands its
// caller.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "congestion/controller.hpp"
#include "directory/fabric.hpp"
#include "flow/plane.hpp"
#include "sim/event_queue.hpp"
#include "test_util.hpp"
#include "transport/vmtp.hpp"
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

/// Closed-loop VMTP echoes across a 2-router line with tokens enforced and
/// the flow plane on (so every send stamps a route digest), each callback
/// invoking the next transaction.  Once warm — past the 4,096 served
/// responses an endpoint remembers, so eviction recycles too — a
/// transaction allocates exactly once: the Result::response handed to the
/// caller.  The echo handler's own response buffer is the application's
/// and is counted apart.
TEST(AllocBudget, VmtpEchoIsAllocationFreeOnceWarm) {
  for (const std::size_t request_bytes : {100u, 3000u}) {
    SCOPED_TRACE("request bytes " + std::to_string(request_bytes));
    sim::Simulator sim;
    dir::Fabric fabric{sim};
    test::Line line = test::build_line(fabric, 2, "client.vmtp", "server.vmtp");
    fabric.enable_tokens(0xA110C, /*enforce=*/true);
    flow::FlowPlane plane;
    fabric.enable_observability({nullptr, nullptr, &plane});

    constexpr std::uint64_t kServerId = 0x5E;
    vmtp::VmtpEndpoint client(sim, *line.src, 0xC1);
    vmtp::VmtpEndpoint server(sim, *line.dst, kServerId);
    std::uint64_t handler_allocations = 0;
    server.serve([&](std::span<const std::uint8_t> request,
                     const viper::Delivery&) {
      const std::uint64_t before = allocation_count();
      wire::Bytes response(request.begin(), request.end());
      handler_allocations += allocation_count() - before;
      return response;
    });
    dir::QueryOptions options;
    options.dest_endpoint = kServerId;
    const auto routes = fabric.directory().query(fabric.id_of(*line.src),
                                                 "server.vmtp", options);
    ASSERT_FALSE(routes.empty());
    const dir::IssuedRoute route = routes.front();
    const wire::Bytes request = pattern_bytes(request_bytes);

    // The closed loop; its callback captures one pointer, which
    // std::function stores without allocating.
    struct Loop {
      vmtp::VmtpEndpoint& client;
      const dir::IssuedRoute& route;
      const wire::Bytes& request;
      std::uint64_t completed = 0;
      std::uint64_t wrong = 0;
      std::uint64_t target = 0;

      void issue() {
        client.invoke(route, kServerId, request,
                      [this](vmtp::Result result) { done(result); });
      }
      void done(const vmtp::Result& result) {
        if (!result.ok || result.response != request) ++wrong;
        if (++completed < target) issue();
      }
    } loop{client, route, request};
    auto run = [&](std::uint64_t transactions) {
      loop.target = loop.completed + transactions;
      loop.issue();
      sim.run();
      ASSERT_EQ(loop.completed, loop.target);
    };
    // Warm with eight windows of the measured size: past the
    // served-response cap, and until every arena slab has grown to the
    // largest image it carries.
    constexpr std::uint64_t kTransactions = 1'000;
    for (int i = 0; i < 8; ++i) run(kTransactions);

    const std::uint64_t before = allocation_count();
    const std::uint64_t handler_before = handler_allocations;
    run(kTransactions);
    const std::uint64_t transport = allocation_count() - before -
                                    (handler_allocations - handler_before);
    std::printf("VMTP %zu B echo: allocations/transaction: %.2f\n",
                request_bytes, static_cast<double>(transport) / kTransactions);
    EXPECT_EQ(loop.wrong, 0u);
    EXPECT_EQ(client.stats().retransmitted_packets, 0u);
    EXPECT_EQ(transport, kTransactions)
        << "a warm VMTP transaction should allocate only the response it "
           "hands its caller (DESIGN.md §11)";
  }
}

/// Congestion reports leave a router allocation-free once warm: each
/// interval the controller gathers the congested queue's feeders into a
/// reused sorted vector, encodes one report into a reused buffer, and
/// `send_control` encodes each copy into a recycled slab of the router's
/// arena.
TEST(AllocBudget, RouterControlReportIsAllocationFreeOnceWarm) {
  sim::Simulator sim;
  viper::ViperRouter router(sim, "r.control", {});
  router.add_port(net::LinkConfig{});  // feeder side
  router.add_port(net::LinkConfig{});  // feeder side
  router.add_port(net::LinkConfig{1e3, sim::kMicrosecond, 1500});  // congested
  cc::ControllerConfig config;
  config.queue_watermark_bytes = 1'000;
  cc::CongestionController controller(sim, router, config);
  controller.monitor_port(3);
  // A standing backlog from both feeders: 100 B takes 0.8 s at 1 kb/s.
  net::PacketFactory packets;
  for (int i = 0; i < 40; ++i) {
    net::PacketPtr packet = packets.make(pattern_bytes(100), 0);
    packet->last_in_port = 2 - i % 2;
    router.port(3).enqueue(std::move(packet), net::TxMeta{}, 0);
  }
  sim.run_until(20 * sim::kMillisecond);  // warm: 20 intervals
  const std::uint64_t warm_reports = controller.stats().reports_sent;
  ASSERT_GT(warm_reports, 0u);

  const std::uint64_t before = allocation_count();
  sim.run_until(120 * sim::kMillisecond);
  EXPECT_EQ(allocation_count() - before, 0u)
      << "a warm congestion report allocated";
  EXPECT_EQ(controller.stats().reports_sent - warm_reports, 200u)
      << "one report per feeder per interval";
  EXPECT_EQ(router.port(1).stats().sent, router.port(2).stats().sent);
}

/// Congestion reports reach a neighbour's controller allocation-free once
/// warm: the router hands its control handler views of the segment and
/// payload, and the controller updates the reporting flow in place.
TEST(AllocBudget, RouterControlReceiveIsAllocationFreeOnceWarm) {
  sim::Simulator sim;
  viper::ViperRouter router(sim, "r.control", {});
  viper::ViperRouter neighbour(sim, "r.neighbour", {});
  router.add_port(net::LinkConfig{});  // feeder side: the neighbour
  router.add_port(net::LinkConfig{});  // feeder side
  router.add_port(net::LinkConfig{1e3, sim::kMicrosecond, 1500});  // congested
  neighbour.add_port(net::LinkConfig{});
  router.port(1).connect(&neighbour, 1);
  neighbour.port(1).connect(&router, 1);
  cc::ControllerConfig config;
  config.queue_watermark_bytes = 1'000;
  cc::CongestionController controller(sim, router, config);
  cc::CongestionController receiver(sim, neighbour, config);
  controller.monitor_port(3);
  // A standing backlog from both feeders: 100 B takes 0.8 s at 1 kb/s.
  net::PacketFactory packets;
  for (int i = 0; i < 40; ++i) {
    net::PacketPtr packet = packets.make(pattern_bytes(100), 0);
    packet->last_in_port = 2 - i % 2;
    router.port(3).enqueue(std::move(packet), net::TxMeta{}, 0);
  }
  sim.run_until(20 * sim::kMillisecond);  // warm: 20 intervals
  const std::uint64_t warm_received = receiver.stats().reports_received;
  ASSERT_GT(warm_received, 0u);

  const std::uint64_t before = allocation_count();
  sim.run_until(120 * sim::kMillisecond);
  const std::uint64_t allocations = allocation_count() - before;
  const std::uint64_t received =
      receiver.stats().reports_received - warm_received;
  EXPECT_EQ(received, 100u) << "one report per interval to this feeder";
  EXPECT_EQ(allocations, 0u)
      << "a warm congestion report allocated on receive ("
      << static_cast<double>(allocations) / static_cast<double>(received)
      << " per report)";
  EXPECT_EQ(receiver.stats().flows_created, 1u);
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

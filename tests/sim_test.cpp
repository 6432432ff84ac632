// Unit tests for the discrete-event simulator substrate.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace srp::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule(42, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelSkipsEvent) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.schedule(10, [&] { ran = true; });
  q.schedule(20, [] {});
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), 20);
  while (!q.empty()) q.pop().second();
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelAfterRunIsNoop) {
  EventQueue q;
  const EventId id = q.schedule(10, [] {});
  q.pop().second();
  q.cancel(id);  // must not corrupt state
  EXPECT_TRUE(q.empty());
  q.schedule(5, [] {});
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, NextTimeOnEmptyIsInfinity) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), kTimeInfinity);
}

TEST(EventQueue, StaleIdDoesNotCancelSlotReuser) {
  EventQueue q;
  const EventId first = q.schedule(10, [] {});
  q.pop().second();
  // The freed slot is recycled for the next event; the old id must no
  // longer reach it.
  bool ran = false;
  const EventId second = q.schedule(20, [&] { ran = true; });
  EXPECT_NE(first, second);
  q.cancel(first);
  EXPECT_EQ(q.size(), 1u);
  q.pop().second();
  EXPECT_TRUE(ran);

  const EventId third = q.schedule(30, [] {});
  q.cancel(third);
  bool fourth_ran = false;
  q.schedule(40, [&] { fourth_ran = true; });
  q.cancel(third);  // cancelled id, slot now reused
  ASSERT_EQ(q.size(), 1u);
  q.pop().second();
  EXPECT_TRUE(fourth_ran);
}

TEST(EventQueue, CancelZeroIsNoop) {
  EventQueue q;
  q.cancel(0);
  bool ran = false;
  q.schedule(1, [&] { ran = true; });
  q.cancel(0);
  EXPECT_EQ(q.size(), 1u);
  q.pop().second();
  EXPECT_TRUE(ran);
  q.cancel(0);  // slot 0 is free again
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, IdsStrictlyIncreaseAndAreNonzero) {
  EventQueue q;
  EventId last = 0;
  for (int round = 0; round < 3; ++round) {
    std::vector<EventId> ids;
    for (int i = 0; i < 50; ++i) {
      const EventId id = q.schedule(100 - i, [] {});
      EXPECT_GT(id, last);
      last = id;
      ids.push_back(id);
    }
    // Free slots out of order so later rounds reuse them shuffled.
    for (std::size_t i = 0; i < ids.size(); i += 2) q.cancel(ids[i]);
    while (!q.empty()) q.pop().second();
  }
}

TEST(EventQueue, CancelReleasesCapturesImmediately) {
  EventQueue q;
  auto shared = std::make_shared<int>(7);
  const EventId id = q.schedule(10, [shared] { (void)*shared; });
  q.schedule(5, [] {});
  EXPECT_EQ(shared.use_count(), 2);
  q.cancel(id);
  EXPECT_EQ(shared.use_count(), 1);
  EXPECT_EQ(q.next_time(), 5);
}

TEST(EventQueue, MoveOnlyAndMutableCallables) {
  EventQueue q;
  int seen = 0;
  auto owned = std::make_unique<int>(41);
  q.schedule(1, [&seen, p = std::move(owned)] { seen = ++*p; });
  int calls = 0;
  q.schedule(2, [&calls, n = 0]() mutable { calls = ++n; });
  q.pop().second();
  EXPECT_EQ(seen, 42);
  const auto [when, cb] = q.pop();
  EXPECT_EQ(when, 2);
  cb();
  cb();
  EXPECT_EQ(calls, 2);
}

TEST(EventQueue, OversizeCaptureUsesHeapAndIsFreed) {
  using Big = std::array<std::uint64_t, 16>;  // 128 B, beyond the buffer
  struct Capture {
    std::shared_ptr<int> token;
    Big payload;
    std::uint64_t* out;
    void operator()() const {
      *out = payload[15] + static_cast<std::uint64_t>(*token);
    }
  };
  static_assert(!EventCallback::kFitsInline<Capture>);
  static_assert(EventCallback::kFitsInline<
                std::array<unsigned char, EventCallback::kInlineBytes>>);

  EventQueue q;
  auto token = std::make_shared<int>(1);
  std::uint64_t out = 0;
  Big payload{};
  payload[15] = 99;
  q.schedule(1, Capture{token, payload, &out});
  const EventId cancelled = q.schedule(2, Capture{token, payload, &out});
  EXPECT_EQ(token.use_count(), 3);
  q.cancel(cancelled);
  EXPECT_EQ(token.use_count(), 2);
  {
    auto [when, cb] = q.pop();
    cb();
  }
  EXPECT_EQ(out, 100u);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, DestroyingQueueReleasesPendingCaptures) {
  auto shared = std::make_shared<int>(0);
  {
    EventQueue q;
    for (int i = 0; i < 10; ++i) q.schedule(i, [shared] {});
    EXPECT_EQ(shared.use_count(), 11);
  }
  EXPECT_EQ(shared.use_count(), 1);
}

TEST(Simulator, EventsScheduledWhileSlotsGrowFireInOrder) {
  // Each callback schedules several more while the slot vector grows
  // under it, then reads its own capture again (a use-after-free under
  // ASan if the callable still lived in a reallocated slot).  Labels
  // follow insertion order, and a new event is never earlier than the
  // one running, so the fired (time, label) sequence must be strictly
  // increasing.
  Simulator sim;
  std::vector<std::pair<Time, int>> fired;
  int next_label = 1;
  long reread = 0;
  std::function<void(int, int)> spawn = [&](int depth, int label) {
    fired.emplace_back(sim.now(), label);
    if (depth >= 5) return;
    for (int c = 0; c < 4; ++c) {
      const int child = next_label++;
      sim.after(c % 2, [&spawn, &reread, depth, child] {
        spawn(depth + 1, child);
        reread += child;
      });
    }
  };
  sim.at(0, [&] { spawn(0, 0); });
  sim.run();
  constexpr long kEvents = 1 + 4 + 16 + 64 + 256 + 1024;
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(kEvents));
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LT(fired[i - 1], fired[i]) << i;
  }
  EXPECT_EQ(reread, (kEvents - 1) * kEvents / 2);  // labels 1..kEvents-1
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<Time> seen;
  sim.at(100, [&] { seen.push_back(sim.now()); });
  sim.at(50, [&] { seen.push_back(sim.now()); });
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(seen, (std::vector<Time>{50, 100}));
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 10) sim.after(5, chain);
  };
  sim.after(5, chain);
  sim.run();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(sim.now(), 50);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int count = 0;
  for (Time t = 10; t <= 100; t += 10) {
    sim.at(t, [&] { ++count; });
  }
  sim.run_until(55);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.now(), 55);
  sim.run();
  EXPECT_EQ(count, 10);
}

TEST(Simulator, SchedulingIntoPastThrows) {
  Simulator sim;
  sim.at(100, [] {});
  sim.run();
  EXPECT_THROW(sim.at(50, [] {}), std::invalid_argument);
}

TEST(Simulator, CancelPendingEvent) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.at(10, [&] { ran = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(ran);
}

/// A component with an activity whose end no event marks; logs the clock
/// at each catch-up.
struct Activity : ClockDriven {
  explicit Activity(Simulator& sim) : ClockDriven(sim), sim(sim) {}
  [[nodiscard]] Time lazy_end() const override { return end; }
  void catch_up() override { caught_up_at.push_back(sim.now()); }

  Simulator& sim;
  Time end = 0;
  std::vector<Time> caught_up_at;
};

TEST(Simulator, DrainAdvancesClockToLatestLazyEnd) {
  Simulator sim;
  Activity short_one(sim);
  Activity long_one(sim);
  short_one.end = 50;
  long_one.end = 90;
  sim.at(30, [] {});
  EXPECT_EQ(sim.run(), 1u);  // the lazy ends are not events
  EXPECT_EQ(sim.now(), 90);
  // An end already behind the clock leaves it where it is.
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_EQ(sim.now(), 90);
  // run_until sets the clock to its deadline, as an end event past the
  // deadline would not have run.
  long_one.end = 500;
  sim.run_until(200);
  EXPECT_EQ(sim.now(), 200);
}

TEST(Simulator, EveryRunEndsByCatchingUpClockDrivenState) {
  Simulator sim;
  Activity activity(sim);
  activity.end = 40;
  sim.at(10, [] {});
  sim.at(20, [] {});
  sim.run_steps(1);
  sim.run_until(15);
  sim.run();
  EXPECT_EQ(activity.caught_up_at, (std::vector<Time>{10, 15, 40}));
}

TEST(Simulator, ClockDrivenMayOutliveOrPredeceaseTheSimulator) {
  auto sim = std::make_unique<Simulator>();
  auto first = std::make_unique<Activity>(*sim);
  auto second = std::make_unique<Activity>(*sim);
  Activity third(*sim);
  second->end = 70;
  first.reset();  // unregisters; the others keep their slots
  sim->run();
  EXPECT_EQ(sim->now(), 70);
  second.reset();
  third.end = 80;
  sim->run();
  EXPECT_EQ(sim->now(), 80);
  sim.reset();  // third outlives the simulator and must not touch it
}

TEST(TimeMath, TransmissionTimeRoundsUp) {
  // 1500 bytes at 1 Gb/s = 12 microseconds exactly.
  EXPECT_EQ(byte_time(1500, 1e9), 12 * kMicrosecond);
  // 1 bit at 10 Gb/s = 100 ps.
  EXPECT_EQ(transmission_time(1, 1e10), 100);
  // Never rounds to "finishing early".
  EXPECT_GE(transmission_time(1, 3e9), 334);
  EXPECT_EQ(transmission_time(0, 1e9), 0);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, ExponentialMeanRoughlyCorrect) {
  Rng rng(123);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(100.0);
  EXPECT_NEAR(sum / n, 100.0, 3.0);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, SplitStreamsIndependent) {
  Rng a(42);
  Rng b = a.split();
  EXPECT_NE(a.next_u64(), b.next_u64());
}

}  // namespace
}  // namespace srp::sim

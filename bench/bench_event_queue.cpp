// Scheduler cost: one sim::EventQueue schedule + pop at a steady depth.
//
// The queue is filled to `depth` events at random times, then each
// iteration pops the earliest event, runs it, and schedules a successor
// a random interval later, so the depth stays fixed.  Depth 1 is the
// bare self-rescheduling loop; 38 is the median queue depth the
// whole-fabric benchmark captures on the 8-router line (line8_small);
// 1000 shows how the heap scales.  The capture is one pointer, like the
// port's completion and wakeup events.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "sim/event_queue.hpp"
#include "sim/random.hpp"

namespace {

using namespace srp;

void BM_EventQueueSchedulePop(benchmark::State& state) {
  const auto depth = static_cast<std::uint64_t>(state.range(0));
  constexpr sim::Time kSpan = 100 * sim::kMicrosecond;
  sim::EventQueue queue;
  sim::Rng rng(0x5C4E);
  std::uint64_t fired = 0;
  for (std::uint64_t i = 0; i < depth; ++i) {
    queue.schedule(static_cast<sim::Time>(rng.uniform_int(0, kSpan)),
                   [&fired] { ++fired; });
  }
  for (auto _ : state) {
    auto [when, cb] = queue.pop();
    cb();
    queue.schedule(
        when + 1 + static_cast<sim::Time>(rng.uniform_int(0, kSpan)),
        [&fired] { ++fired; });
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueSchedulePop)->Arg(1)->Arg(38)->Arg(1000);

}  // namespace

BENCHMARK_MAIN();

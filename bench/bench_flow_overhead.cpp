// Flow-accounting overhead on the router forward path.
//
// The flow plane rides the same cost contract as the rest of the obs
// layer: ViperRouter resolves its scoped flow::FlowObserver once at
// set_observer() time, so with no flow plane wired the per-forward price
// is one untaken null-pointer branch.  Three end-to-end configurations of
// a one-router line (src --- r1 --- dst), timing send + full drain per
// packet:
//
//   no_observer   — nothing wired (the normal data path, baseline),
//   obs_no_flow   — metrics + flight recorder wired but no flow plane:
//                   the PR-4 observability path plus one untaken branch,
//   flow_enabled  — full plane: per-forward FlowTable record + sampler
//                   draw + feeder bookkeeping on every hop.
//
// Plus a micro-benchmark of the FlowTable record() hot path itself.
//
// scripts/check_overhead.py flow gates CI on obs_no_flow staying within
// a small multiple of no_observer.
#include <benchmark/benchmark.h>

#include "directory/fabric.hpp"
#include "flow/observer.hpp"
#include "flow/plane.hpp"
#include "flow/table.hpp"
#include "obs/recorder.hpp"
#include "stats/registry.hpp"
#include "viper/host.hpp"

namespace {

using namespace srp;

enum class Mode { kNoObserver, kObsNoFlow, kFlowEnabled };

void BM_Forward(benchmark::State& state, Mode mode) {
  sim::Simulator sim;
  dir::Fabric fabric(sim);
  auto& src = fabric.add_host("src.bench");
  auto& dst = fabric.add_host("dst.bench");
  auto& r1 = fabric.add_router("r1");
  fabric.connect(src, r1);
  fabric.connect(r1, dst);
  dst.set_default_handler([](const viper::Delivery&) {});

  stats::Registry registry;
  obs::FlightRecorder recorder;
  flow::FlowPlane plane(flow::FlowConfig{128, 64, 0x5EED});
  switch (mode) {
    case Mode::kNoObserver:
      break;
    case Mode::kObsNoFlow:
      fabric.enable_observability({&registry, &recorder});
      break;
    case Mode::kFlowEnabled:
      fabric.enable_observability({&registry, &recorder, &plane});
      break;
  }

  const auto routes =
      fabric.directory().query(fabric.id_of(src), "dst.bench", {});
  if (routes.empty()) {
    state.SkipWithError("no route");
    return;
  }
  const wire::Bytes payload(256, 0x42);
  std::uint64_t n = 0;
  for (auto _ : state) {
    src.send(routes.front().route, payload);
    sim.run();  // one packet through the whole line per iteration
    ++n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
}

void BM_ForwardNoObserver(benchmark::State& state) {
  BM_Forward(state, Mode::kNoObserver);
}
void BM_ForwardObsNoFlow(benchmark::State& state) {
  BM_Forward(state, Mode::kObsNoFlow);
}
void BM_ForwardFlowEnabled(benchmark::State& state) {
  BM_Forward(state, Mode::kFlowEnabled);
}

/// The per-forward table update in isolation: hash, find-or-insert, and
/// (every 4th op, on a full table) a space-saving eviction scan.
void BM_FlowTableRecord(benchmark::State& state) {
  flow::FlowTable table(128);
  std::uint64_t n = 0;
  for (auto _ : state) {
    const bool churn = n % 4 == 0;
    const flow::FlowKey key{churn ? 0x10000 + n : 1 + (n % 64),
                            static_cast<std::uint32_t>(n % 8), 0};
    benchmark::DoNotOptimize(
        table.record(key, 256, true, static_cast<sim::Time>(n), 1, 2));
    ++n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
}

BENCHMARK(BM_ForwardNoObserver);
BENCHMARK(BM_ForwardObsNoFlow);
BENCHMARK(BM_ForwardFlowEnabled);
BENCHMARK(BM_FlowTableRecord);

}  // namespace

BENCHMARK_MAIN();

// Health-plane overhead on the fabric data path.
//
// The health plane does no per-packet work: its entire cost is the
// periodic tick (registry snapshot, per-rule window diff, detector sweep),
// which runs off the forwarding path on the simulator clock.  The contract is
// that enabling it leaves data-path throughput within a small multiple
// of the health-free fabric.  Two configurations of the same send loop
// through an observed three-router line, tick cost amortized in:
//
//   no_health       — observability wired, no monitor (baseline),
//   health_enabled  — enable_health() live with a 1 ms window, 10x the
//                     density of the 10 ms production default, so the
//                     measured amortized cost is an overestimate.
//
// `scripts/check_overhead.py health` gates CI on
// health_enabled / no_health <= 1.25.
#include <benchmark/benchmark.h>

#include "directory/fabric.hpp"
#include "health/monitor.hpp"
#include "obs/recorder.hpp"
#include "stats/registry.hpp"
#include "viper/host.hpp"

namespace {

using namespace srp;

enum class Mode { kNoHealth, kHealthEnabled };

void BM_FabricSend(benchmark::State& state, Mode mode) {
  sim::Simulator sim;
  stats::Registry registry;
  dir::Fabric fabric(sim);
  auto& client = fabric.add_host("client.bench");
  auto& server = fabric.add_host("server.bench");
  auto& r1 = fabric.add_router("r1");
  auto& r2 = fabric.add_router("r2");
  auto& r3 = fabric.add_router("r3");
  fabric.connect(client, r1);
  fabric.connect(r1, r2);
  fabric.connect(r2, r3);
  fabric.connect(r3, server);
  server.set_default_handler([](const viper::Delivery&) {});

  fabric.enable_observability({&registry, nullptr, nullptr});
  if (mode == Mode::kHealthEnabled) {
    fabric.enable_health(sim::kMillisecond);
  }

  const auto routes =
      fabric.directory().query(fabric.id_of(client), "server.bench", {});
  if (routes.empty()) {
    state.SkipWithError("no route");
    return;
  }

  const wire::Bytes payload(256, 0x42);
  std::uint64_t n = 0;
  for (auto _ : state) {
    client.send(routes.front().route, payload);
    if (++n % 64 == 0) {
      // Drain inside the timed region: the health tick runs on the
      // simulator clock, so pausing here would hide exactly the cost
      // this benchmark exists to bound.
      sim.run_until(sim.now() + 64 * sim::kMicrosecond);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
}

void BM_FabricSendNoHealth(benchmark::State& state) {
  BM_FabricSend(state, Mode::kNoHealth);
}
void BM_FabricSendHealthEnabled(benchmark::State& state) {
  BM_FabricSend(state, Mode::kHealthEnabled);
}

BENCHMARK(BM_FabricSendNoHealth);
BENCHMARK(BM_FabricSendHealthEnabled);

}  // namespace

BENCHMARK_MAIN();

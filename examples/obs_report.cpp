// Observability demo: run traffic across a 4-hop VIPER line with the
// full obs layer wired — per-hop latency histograms, token-cache
// counters, and per-packet hop tracing — then export everything:
//
//   obs_metrics.prom   Prometheus text exposition (scrape/textfile),
//   obs_metrics.json   the same snapshot as JSON,
//   obs_trace.json     Chrome trace-event JSON: open https://ui.perfetto.dev
//                      and drag the file in to see one span per router hop
//                      on every traced packet.
//
//   client --- r1 --- r2 --- r3 --- r4 --- server
//
// Run: ./obs_report        (writes the three files to the working dir)
#include <cstdio>
#include <fstream>

#include "directory/fabric.hpp"
#include "obs/export.hpp"
#include "obs/recorder.hpp"
#include "stats/registry.hpp"
#include "tokens/token.hpp"
#include "viper/host.hpp"

int main() {
  using namespace srp;

  sim::Simulator sim;
  dir::Fabric fabric(sim);

  // 4-hop line, with token enforcement on so the token-cache metrics and
  // span outcomes have something to show.
  auto& client = fabric.add_host("client.example");
  auto& server = fabric.add_host("server.example");
  std::vector<viper::ViperRouter*> routers;
  net::PortedNode* prev = &client;
  for (int i = 1; i <= 4; ++i) {
    std::string name = "r";  // appended: GCC 12 -O3 false -Wrestrict
    name += std::to_string(i);
    auto& r = fabric.add_router(name);
    fabric.connect(*prev, r);
    routers.push_back(&r);
    prev = &r;
  }
  fabric.connect(*prev, server);
  fabric.enable_tokens(0x0B5, /*enforce=*/true,
                       tokens::UncachedPolicy::kOptimistic);

  // Wire the whole fabric to one registry + flight recorder.
  stats::Registry registry;
  obs::FlightRecorder recorder;
  fabric.enable_observability({&registry, &recorder});

  // Traffic: a burst of packets client -> server; the server echoes the
  // first one back along the trailer's return route so the reverse
  // direction is traced too.
  int delivered = 0;
  server.set_default_handler([&](const viper::Delivery& d) {
    if (delivered++ == 0) {
      const char reply[] = "ack";
      server.reply(d, std::span(reinterpret_cast<const std::uint8_t*>(reply),
                                sizeof(reply) - 1));
    }
  });
  client.set_default_handler([](const viper::Delivery&) {});

  const auto routes =
      fabric.directory().query(fabric.id_of(client), "server.example", {});
  if (routes.empty()) {
    std::puts("error: no route to server.example");
    return 1;
  }
  const wire::Bytes payload(600, 0xAB);
  constexpr int kPackets = 64;
  for (int i = 0; i < kPackets; ++i) {
    sim.after(i * 20 * sim::kMicrosecond, [&] {
      client.send(routes.front().route, payload);
    });
  }
  sim.run();

  // --- export -------------------------------------------------------------
  const auto snapshot = registry.full_snapshot();
  const auto spans = recorder.spans();
  {
    std::ofstream out("obs_metrics.prom");
    out << obs::to_prometheus(snapshot);
  }
  {
    std::ofstream out("obs_metrics.json");
    out << obs::to_json(snapshot);
  }
  {
    std::ofstream out("obs_trace.json");
    out << obs::to_chrome_trace(spans);
  }

  // --- per-hop latency report ---------------------------------------------
  std::printf("%d/%d packets delivered; %llu spans recorded (%llu dropped)\n",
              delivered, kPackets,
              static_cast<unsigned long long>(recorder.recorded()),
              static_cast<unsigned long long>(recorder.dropped()));
  std::puts("per-hop forwarding latency (arrival -> earliest departure):");
  bool histograms_ok = true;
  for (const auto* router : routers) {
    const std::string name =
        "viper." + std::string(router->name()) + ".hop_latency_ps";
    const auto it = snapshot.histograms.find(name);
    if (it == snapshot.histograms.end() || it->second.count == 0) {
      std::printf("  %-6s MISSING\n", std::string(router->name()).c_str());
      histograms_ok = false;
      continue;
    }
    const auto& h = it->second;
    std::printf("  %-6s n=%-4llu mean=%8.2f us  p50<=%8.2f us  p99<=%8.2f us\n",
                std::string(router->name()).c_str(),
                static_cast<unsigned long long>(h.count),
                h.mean() / 1e6,
                static_cast<double>(h.p50()) / 1e6,
                static_cast<double>(h.p99()) / 1e6);
  }

  // Self-check so CI can run this as a smoke test.
  int hop_spans = 0;
  for (const auto& span : spans) {
    if (span.kind == obs::SpanKind::kHop) ++hop_spans;
  }
  if (delivered == 0 || !histograms_ok || hop_spans == 0) {
    std::puts("error: observability outputs incomplete");
    return 1;
  }
  std::printf("wrote obs_metrics.prom, obs_metrics.json, obs_trace.json "
              "(%d hop spans)\n", hop_spans);
  std::puts("view the trace: open https://ui.perfetto.dev and drag "
            "obs_trace.json in");
  return 0;
}

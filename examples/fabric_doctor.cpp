// Health-plane demo: the fabric diagnoses its own failure.
//
//   client --- r1 --- r2 --- r3 --- server
//
// A VMTP echo workload warms the fabric for 250 ms, then a fault lane
// starts silently dropping a quarter of the packets leaving r2 toward
// r3.  Nobody tells the health plane: it watches honest device counters
// window by window, notices that r2:p2's books stop balancing
// (packets entered that no exit counter explains), debounces the breach,
// fires a LinkWireLoss alert naming the router and port, and corroborates
// the suspect with in-band path telemetry — damaged packets were last
// stamped at r2.
//
// The run writes the operator-facing artifacts CI archives:
//   fabric_doctor_alerts.json   alert episodes + root-cause analysis
//   fabric_doctor_alerts.prom   Prometheus ALERTS exposition
//   fabric_doctor_trace.json    Perfetto trace with kAlert instants
//
// Run: ./fabric_doctor    (self-checking; exits nonzero on mismatch)
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>

#include "directory/fabric.hpp"
#include "fault/engine.hpp"
#include "fault/plan.hpp"
#include "flow/plane.hpp"
#include "health/export.hpp"
#include "health/monitor.hpp"
#include "obs/export.hpp"
#include "obs/recorder.hpp"
#include "stats/registry.hpp"
#include "transport/vmtp.hpp"

int main() {
  using namespace srp;

  constexpr sim::Time kFaultAt = 250 * sim::kMillisecond;
  constexpr sim::Time kTrafficEnd = 550 * sim::kMillisecond;
  constexpr sim::Time kRunEnd = 600 * sim::kMillisecond;

  sim::Simulator sim;
  stats::Registry registry;
  obs::FlightRecorder recorder;
  flow::FlowPlane flow_plane({}, &registry, &recorder);

  dir::Fabric fabric(sim);
  auto& client_host = fabric.add_host("client.example");
  auto& server_host = fabric.add_host("server.example");
  auto& r1 = fabric.add_router("r1");
  auto& r2 = fabric.add_router("r2");
  auto& r3 = fabric.add_router("r3");
  fabric.connect(client_host, r1);
  fabric.connect(r1, r2);
  fabric.connect(r2, r3);
  fabric.connect(r3, server_host);

  fabric.enable_observability({&registry, &recorder, &flow_plane});
  dir::PathTelemetryConfig telemetry;
  telemetry.sample_period = 4;
  fabric.enable_path_telemetry(telemetry);
  auto& monitor = fabric.enable_health(10 * sim::kMillisecond);

  // The fault engine keeps its ground-truth books in a registry the
  // health plane never sees — detection rests on device counters alone.
  fault::FaultPlan plan;
  plan.seed = 0xD0C;
  plan.lane("r2:p2").drop_rate = 0.25;
  stats::Registry fault_stats;
  fault::FaultEngine engine(sim, plan, fault_stats);
  sim.at(kFaultAt, [&engine, &r2] { engine.attach(r2.port(2)); });

  vmtp::VmtpConfig vconfig;
  vconfig.max_retries = 6;
  auto client =
      std::make_unique<vmtp::VmtpEndpoint>(sim, client_host, 0xC1, vconfig);
  auto server =
      std::make_unique<vmtp::VmtpEndpoint>(sim, server_host, 0x5E, vconfig);
  server->serve(
      [](std::span<const std::uint8_t> req, const viper::Delivery&) {
        return wire::Bytes(req.begin(), req.end());
      });

  dir::QueryOptions q;
  q.dest_endpoint = 0x5E;
  const auto routes = fabric.directory().query(fabric.id_of(client_host),
                                               "server.example", q);
  if (routes.empty()) {
    std::puts("error: no route to server.example");
    return 1;
  }

  int issued = 0;
  int ok = 0;
  sim::Rng traffic_rng(0x5EED);
  std::function<void()> pump = [&] {
    if (sim.now() >= kTrafficEnd) return;
    const wire::Bytes request(64 + traffic_rng.uniform_int(0, 800),
                              static_cast<std::uint8_t>(issued));
    ++issued;
    client->invoke(routes.front(), 0x5E, request,
                   [&ok](vmtp::Result r) {
                     if (r.ok) ++ok;
                   });
    sim.after(static_cast<sim::Time>(200 * sim::kMicrosecond +
                                     traffic_rng.uniform_int(
                                         0, 300 * sim::kMicrosecond)),
              [&pump] { pump(); });
  };
  sim.after(1, [&pump] { pump(); });
  sim.run_until(kRunEnd);

  // --- the doctor's report -------------------------------------------------
  std::printf("traffic: %d transactions issued, %d ok (fault live from "
              "%llu ms)\n",
              issued, ok,
              static_cast<unsigned long long>(kFaultAt / sim::kMillisecond));
  bool localized = false;
  for (const health::Alert* alert : monitor.engine().fired()) {
    const health::RootCause cause = monitor.diagnose(*alert);
    const std::string state(health::to_string(alert->state));
    std::printf("ALERT %s [%s] on %s%s%s\n  %s\n",
                alert->labels.alert.c_str(), state.c_str(),
                alert->labels.component.c_str(),
                alert->labels.port.empty() ? "" : " port ",
                alert->labels.port.c_str(), cause.reason.c_str());
    if (!cause.evidence.empty()) {
      std::printf("  evidence: %s\n", cause.evidence.c_str());
    }
    if (alert->labels.alert == "LinkWireLoss" && cause.router == "r2") {
      localized = true;
    }
  }

  // --- artifacts -----------------------------------------------------------
  const std::string alerts_json = health::to_alerts_json(monitor);
  const std::string alerts_prom =
      health::to_prometheus_alerts(monitor.engine());
  std::ofstream("fabric_doctor_alerts.json") << alerts_json;
  std::ofstream("fabric_doctor_alerts.prom") << alerts_prom;
  std::ofstream("fabric_doctor_trace.json")
      << obs::to_chrome_trace(recorder.spans());
  std::puts("wrote fabric_doctor_alerts.{json,prom}, "
            "fabric_doctor_trace.json");

  // --- self-check so CI can run this as a smoke test ----------------------
  int alert_spans = 0;
  for (const auto& span : recorder.spans()) {
    if (span.kind == obs::SpanKind::kAlert) ++alert_spans;
  }
  const bool ok_run =
      issued > 500 && localized && alert_spans > 0 &&
      alerts_json.find("LinkWireLoss") != std::string::npos &&
      alerts_prom.find("ALERTS") != std::string::npos;
  std::printf("self-check: issued>500 %s, LinkWireLoss localized to r2 "
              "%s, kAlert spans %d\n",
              issued > 500 ? "yes" : "NO", localized ? "yes" : "NO",
              alert_spans);
  if (!ok_run) return 1;
  std::puts("fabric doctor: diagnosis confirmed");
  return 0;
}

// Fabric-wide counter readings and the per-layer ledger of a traced run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "congestion/controller.hpp"
#include "congestion/throttle.hpp"
#include "directory/client.hpp"
#include "replay.hpp"
#include "tokens/cache.hpp"
#include "tracer.hpp"
#include "transport/vmtp.hpp"
#include "world.hpp"

namespace perfbench {

/// One named figure of a run.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Sums of every component's public Stats at one instant.
struct Counters {
  Totals totals;
  AllocReading allocs;
  sim::Time now = 0;
  viper::ViperRouter::Stats router;
  viper::ViperHost::Stats host;
  net::TxPort::Stats port;
  std::uint64_t router_port_sent = 0;  ///< transmissions by router ports
  std::uint64_t host_port_sent = 0;    ///< transmissions by host ports
  std::uint64_t router_port_bytes = 0;
  std::uint64_t host_port_bytes = 0;
  std::vector<sim::Time> busy;         ///< per port, fabric order
  tokens::TokenCache::Stats tokens;
  std::uint64_t token_entries_max = 0;  ///< largest router cache
  cc::CongestionController::Stats cc;
  cc::SourceThrottle::Stats throttle;
  vmtp::VmtpEndpoint::Stats vmtp;
  dir::RouteCache::Stats routes;
  std::uint64_t spans_recorded = 0;  ///< program flight-recorder spans
  std::uint64_t spans_overwritten = 0;
  std::uint64_t flow_recorded = 0;
  std::uint64_t flow_evictions = 0;
  std::uint64_t health_windows = 0;
  std::array<std::uint64_t, static_cast<std::size_t>(Call::kCount)>
      timed_ns{};  ///< tracer per-call sums (traced runs)
  std::array<std::uint64_t, static_cast<std::size_t>(Call::kCount)>
      timed_calls{};
};

[[nodiscard]] Counters read_counters(World& world,
                                     const Tracer* tracer = nullptr);

/// Workload characterization, from the fixed-length check prefix: exact
/// for a seed, so later changes can show the workload did not move.
struct Characterization {
  double sim_seconds = 0;
  double offered_load = 0;  ///< host-sent wire bits over the reference link
  double wire_bytes_per_pkt = 0;
  double hops_per_pkt = 0;
  double malformed_share = 0;  ///< malformed arrivals over all arrivals
  double token_hit_share = 0;
  std::uint64_t fault_drop = 0;
  std::uint64_t fault_corrupt = 0;
  std::uint64_t fault_duplicate = 0;
  std::uint64_t fault_reorder = 0;
  std::uint64_t fault_jitter = 0;
  std::uint64_t fault_flap = 0;
  std::uint64_t fault_token_poison = 0;
  std::uint64_t hostile = 0;
  std::uint64_t port_enqueued = 0;
  std::uint64_t delivered = 0;
};

/// Over @p world's whole life, read at @p now; @p traffic is the counters
/// when the sources stopped (offered load is taken over its span).
[[nodiscard]] Characterization characterize(World& world, const Counters& now,
                                            const Counters& traffic,
                                            double hops_per_pkt);

/// What the traced run measured, for the per-layer ledger.
struct TracedRun {
  Counters begin;
  Counters end;
  double wall_ns = 0;               ///< sum of traced run_until slices
  double traced_ns_per_pkt = 0;     ///< drift-corrected
  double untraced_ns_per_pkt = 0;   ///< same world, before the shims
  double export_ms = 0;
  std::uint64_t alerts_fired = 0;
  std::uint64_t series = 0;
};

/// Every per-layer metric, in BENCHMARK.json order.
[[nodiscard]] std::vector<Metric> layer_metrics(const TracedRun& run,
                                                const Tracer& tracer,
                                                const Prices& prices,
                                                const Characterization& ch);

}  // namespace perfbench

#include "ledger.hpp"

#include <algorithm>

#include "flow/observer.hpp"

namespace perfbench {
namespace {

void add(viper::ViperRouter::Stats& a, const viper::ViperRouter::Stats& b) {
  a.received += b.received;
  a.forwarded += b.forwarded;
  a.delivered_control += b.delivered_control;
  a.dropped_malformed += b.dropped_malformed;
  a.dropped_no_port += b.dropped_no_port;
  a.dropped_unauthorized += b.dropped_unauthorized;
  a.dropped_token_limit += b.dropped_token_limit;
  a.dropped_uncached += b.dropped_uncached;
  a.truncated_forwards += b.truncated_forwards;
  a.tree_copies += b.tree_copies;
  a.fanout_copies += b.fanout_copies;
  a.delay_line_loops += b.delay_line_loops;
  a.delay_line_overflows += b.delay_line_overflows;
  a.dropped_expired_token += b.dropped_expired_token;
  a.telemetry_stamped += b.telemetry_stamped;
  a.telemetry_overflow += b.telemetry_overflow;
}

void add(viper::ViperHost::Stats& a, const viper::ViperHost::Stats& b) {
  a.sent += b.sent;
  a.delivered += b.delivered;
  a.truncated_received += b.truncated_received;
  a.misrouted += b.misrouted;
  a.unknown_endpoint += b.unknown_endpoint;
  a.dropped_malformed += b.dropped_malformed;
  a.control_received += b.control_received;
  a.telemetry_marked += b.telemetry_marked;
}

void add(net::TxPort::Stats& a, const net::TxPort::Stats& b) {
  a.enqueued += b.enqueued;
  a.sent += b.sent;
  a.bytes_sent += b.bytes_sent;
  a.dropped_blocked += b.dropped_blocked;
  a.dropped_full += b.dropped_full;
  a.deflected += b.deflected;
  a.dropped_down += b.dropped_down;
  a.dropped_injected += b.dropped_injected;
  a.preempt_aborts += b.preempt_aborts;
  a.busy_time += b.busy_time;
}

}  // namespace

Counters read_counters(World& world, const Tracer* tracer) {
  Counters c;
  c.totals = world.totals();
  c.allocs = alloc_reading();
  c.now = world.sim().now();
  dir::Fabric& fabric = world.fabric();
  auto ports = [&c](net::PortedNode& node, std::uint64_t& sent,
                    std::uint64_t& bytes) {
    for (int p = 1; p <= node.port_count(); ++p) {
      const auto& s = node.port(p).stats();
      add(c.port, s);
      sent += s.sent;
      bytes += s.bytes_sent;
      c.busy.push_back(s.busy_time);
    }
  };
  for (auto* router : fabric.routers()) {
    add(c.router, router->stats());
    ports(*router, c.router_port_sent, c.router_port_bytes);
    const auto t = router->token_cache().stats();
    c.tokens.hits += t.hits;
    c.tokens.misses += t.misses;
    c.tokens.flagged_rejects += t.flagged_rejects;
    c.tokens.limit_rejects += t.limit_rejects;
    c.token_entries_max =
        std::max<std::uint64_t>(c.token_entries_max, router->token_cache().size());
    if (const auto* controller = fabric.controller_of(*router)) {
      const auto& s = controller->stats();
      c.cc.reports_sent += s.reports_sent;
      c.cc.reports_received += s.reports_received;
      c.cc.packets_shaped += s.packets_shaped;
      c.cc.flows_created += s.flows_created;
      c.cc.flows_expired += s.flows_expired;
      c.cc.flows_ramped_out += s.flows_ramped_out;
    }
  }
  for (auto* host : fabric.hosts()) {
    add(c.host, host->stats());
    ports(*host, c.host_port_sent, c.host_port_bytes);
    if (const auto* throttle = fabric.throttle_of(*host)) {
      c.throttle.reports_received += throttle->stats().reports_received;
      c.throttle.sends_delayed += throttle->stats().sends_delayed;
    }
  }
  c.vmtp = world.transport_stats();
  c.routes = world.route_cache_stats();
  if (const auto* recorder = world.recorder()) {
    c.spans_recorded = recorder->recorded();
    c.spans_overwritten = recorder->dropped();
  }
  if (const auto* plane = world.flow_plane()) {
    for (const flow::FlowObserver* observer : plane->observers()) {
      const auto s = observer->table().stats();
      c.flow_recorded += s.recorded;
      c.flow_evictions += s.evictions;
    }
  }
  if (const auto* registry = world.registry()) {
    const auto snap = registry->snapshot();
    const auto it = snap.find("health.monitor.windows");
    if (it != snap.end()) c.health_windows = it->second;
  }
  if (tracer != nullptr) {
    for (std::size_t k = 0; k < c.timed_ns.size(); ++k) {
      c.timed_ns[k] = tracer->timing(static_cast<Call>(k)).sum();
      c.timed_calls[k] = tracer->timing(static_cast<Call>(k)).count();
    }
  }
  return c;
}

Characterization characterize(World& world, const Counters& c,
                              const Counters& traffic, double hops_per_pkt) {
  Characterization ch;
  ch.sim_seconds = sim::to_seconds(traffic.now);
  ch.offered_load = ratio(static_cast<double>(traffic.host_port_bytes) * 8.0,
                          world.reference_rate_bps() * ch.sim_seconds);
  ch.wire_bytes_per_pkt = ratio(static_cast<double>(c.port.bytes_sent),
                                static_cast<double>(c.port.sent));
  ch.hops_per_pkt = hops_per_pkt;
  const double host_arrivals = static_cast<double>(
      c.host.delivered + c.host.control_received + c.host.dropped_malformed +
      c.host.misrouted);
  ch.malformed_share =
      ratio(static_cast<double>(c.router.dropped_malformed +
                                c.host.dropped_malformed),
            static_cast<double>(c.router.received) + host_arrivals);
  ch.token_hit_share =
      ratio(static_cast<double>(c.tokens.hits),
            static_cast<double>(c.tokens.hits + c.tokens.misses));
  ch.fault_drop = world.fault_count("drop");
  ch.fault_corrupt = world.fault_count("corrupt");
  ch.fault_duplicate = world.fault_count("duplicate");
  ch.fault_reorder = world.fault_count("reorder");
  ch.fault_jitter = world.fault_count("jitter");
  ch.fault_flap = world.fault_count("flap");
  ch.fault_token_poison = world.fault_count("token_poison");
  ch.hostile = world.hostile_injected();
  ch.port_enqueued = c.port.enqueued;
  ch.delivered = c.totals.delivered;
  return ch;
}

std::vector<Metric> layer_metrics(const TracedRun& run, const Tracer& tracer,
                                  const Prices& prices,
                                  const Characterization& ch) {
  const Counters& b = run.begin;
  const Counters& e = run.end;
  auto d = [](std::uint64_t end, std::uint64_t begin) {
    return static_cast<double>(end - begin);
  };
  auto timed = [&](Call k) {
    const auto i = static_cast<std::size_t>(k);
    return d(e.timed_ns[i], b.timed_ns[i]);
  };
  auto calls = [&](Call k) {
    const auto i = static_cast<std::size_t>(k);
    return d(e.timed_calls[i], b.timed_calls[i]);
  };
  // 0 for a call the traced run never made.
  auto p50 = [](const LogHistogram& h) { return h.quantile(0.5); };

  const double delivered = d(e.totals.delivered, b.totals.delivered);
  const double events = d(e.totals.events, b.totals.events);
  const double received = d(e.router.received, b.router.received);
  const double enqueued = d(e.port.enqueued, b.port.enqueued);
  const double lookups = d(e.tokens.hits + e.tokens.misses,
                           b.tokens.hits + b.tokens.misses);
  const double txns = d(e.totals.completed, b.totals.completed);
  const double sim_span = static_cast<double>(e.now - b.now);
  double utilization = 0.0;
  for (std::size_t i = 0; i < b.busy.size() && i < e.busy.size(); ++i) {
    utilization = std::max(
        utilization, ratio(static_cast<double>(e.busy[i] - b.busy[i]), sim_span));
  }

  // The ledger: shim- and call-timed wall time, plus replay prices for the
  // events no call boundary covers, against the traced slices' wall time.
  const double explained =
      timed(Call::kRouterArrival) + timed(Call::kHostArrival) +
      timed(Call::kSend) + timed(Call::kInvoke) + timed(Call::kRouteTo) +
      timed(Call::kAcquire) +
      d(e.router_port_sent, b.router_port_sent) *
          prices.port_events_router_ns +
      d(e.host_port_sent, b.host_port_sent) * prices.port_events_host_ns +
      calls(Call::kHostArrival) * prices.host_process.mean() +
      d(e.totals.generator_events, b.totals.generator_events) *
          prices.schedule_pop_ns;
  const double explained_frac = ratio(explained, run.wall_ns);

  const double kpkt = delivered / 1000.0;
  const double served = d(e.vmtp.requests_served, b.vmtp.requests_served);
  const double data_sent =
      d(e.vmtp.data_packets_sent, b.vmtp.data_packets_sent);
  const double retx =
      d(e.vmtp.retransmitted_packets, b.vmtp.retransmitted_packets);
  const double enq = static_cast<double>(ch.port_enqueued) / 1000.0;

  return {
      {"sim.ns_per_event", ratio(run.wall_ns, events), "ns"},
      {"sim.queue_depth_p50", p50(tracer.event_depth()), "count"},
      {"sim.queue_depth_max",
       static_cast<double>(tracer.event_depth().max()), "count"},
      {"sim.schedule_pop_ns", prices.schedule_pop_ns, "ns"},
      {"sim.untimed_share", std::max(0.0, 1.0 - explained_frac), "frac"},
      {"net.enqueue_ns", prices.enqueue_ns, "ns"},
      {"net.tx_per_pkt", ratio(d(e.port.sent, b.port.sent), delivered),
       "count"},
      {"net.queue_depth_p50", p50(tracer.port_depth()), "count"},
      {"net.queue_depth_max",
       static_cast<double>(tracer.port_depth().max()), "count"},
      {"net.utilization", utilization, "frac"},
      {"net.drop_full_frac",
       ratio(d(e.port.dropped_full, b.port.dropped_full), enqueued), "frac"},
      {"net.drop_injected_frac",
       ratio(d(e.port.dropped_injected, b.port.dropped_injected), enqueued),
       "frac"},
      {"net.drop_down_frac",
       ratio(d(e.port.dropped_down, b.port.dropped_down), enqueued), "frac"},
      {"viper.router.arrivals_per_pkt", ratio(received, delivered), "count"},
      {"viper.router.arrival_ns_p50",
       p50(tracer.timing(Call::kRouterArrival)), "ns"},
      {"viper.router.arrival_ns_tail",
       tracer.timing(Call::kRouterArrival).tail().value, "ns"},
      {"viper.router.forward_ns_p50", p50(tracer.forward_timing()),
       "ns"},
      {"viper.router.drop_ns_p50", p50(tracer.drop_timing()), "ns"},
      {"viper.router.malformed_frac",
       ratio(d(e.router.dropped_malformed, b.router.dropped_malformed),
             received),
       "frac"},
      {"viper.router.unauthorized_frac",
       ratio(d(e.router.dropped_unauthorized + e.router.dropped_expired_token +
                   e.router.dropped_token_limit,
               b.router.dropped_unauthorized + b.router.dropped_expired_token +
                   b.router.dropped_token_limit),
             received),
       "frac"},
      {"viper.router.uncached_frac",
       ratio(d(e.router.dropped_uncached, b.router.dropped_uncached),
             received),
       "frac"},
      {"viper.router.decode_view_ns", prices.decode_view_ns, "ns"},
      {"viper.router.decode_copy_ns", prices.decode_copy_ns, "ns"},
      {"viper.host.send_ns_p50", p50(tracer.timing(Call::kSend)), "ns"},
      {"viper.host.arrival_ns_p50", p50(prices.host_process), "ns"},
      {"viper.host.trailer_reverse_ns", prices.trailer_reverse_ns, "ns"},
      {"viper.host.delivered_body_ns", prices.delivered_body_ns, "ns"},
      {"viper.host.malformed_frac",
       ratio(d(e.host.dropped_malformed, b.host.dropped_malformed),
             calls(Call::kHostArrival)),
       "frac"},
      {"tokens.hit_frac", ratio(d(e.tokens.hits, b.tokens.hits), lookups),
       "frac"},
      {"tokens.lookups_per_pkt", ratio(lookups, delivered), "count"},
      {"tokens.misses_per_kpkt",
       ratio(d(e.tokens.misses, b.tokens.misses), kpkt), "1/kpkt"},
      {"tokens.lookup_ns", prices.token_lookup_ns, "ns"},
      {"tokens.verify_ns", prices.token_open_ns, "ns"},
      {"tokens.entries_max", static_cast<double>(e.token_entries_max),
       "count"},
      {"congestion.reports_per_kpkt",
       ratio(d(e.cc.reports_sent, b.cc.reports_sent), kpkt), "1/kpkt"},
      {"congestion.shaped_frac",
       ratio(d(e.cc.packets_shaped, b.cc.packets_shaped),
             d(e.router.forwarded, b.router.forwarded)),
       "frac"},
      {"congestion.throttle_delayed_frac",
       ratio(d(e.throttle.sends_delayed, b.throttle.sends_delayed),
             calls(Call::kAcquire)),
       "frac"},
      {"congestion.acquire_ns", p50(tracer.timing(Call::kAcquire)), "ns"},
      {"congestion.flows_created",
       d(e.cc.flows_created, b.cc.flows_created), "count"},
      {"transport.invoke_ns_p50", p50(tracer.timing(Call::kInvoke)), "ns"},
      {"transport.retx_per_txn", ratio(retx, txns), "count"},
      {"transport.timeouts_per_txn",
       ratio(d(e.vmtp.timeouts, b.vmtp.timeouts), txns), "count"},
      {"transport.useful_pkt_frac", ratio(data_sent - retx, data_sent),
       "frac"},
      {"transport.duplicate_frac",
       ratio(d(e.vmtp.duplicate_requests, b.vmtp.duplicate_requests), served),
       "frac"},
      {"directory.route_to_ns_p50", p50(tracer.timing(Call::kRouteTo)), "ns"},
      {"directory.route_cache_hit_frac",
       ratio(static_cast<double>(e.routes.hits),
             static_cast<double>(e.routes.hits + e.routes.queries)),
       "frac"},
      {"directory.route_switches",
       d(e.routes.switches, b.routes.switches), "count"},
      {"directory.query_ns", p50(tracer.timing(Call::kQuery)), "ns"},
      {"obs.spans_per_pkt",
       ratio(d(e.spans_recorded, b.spans_recorded), delivered), "count"},
      {"obs.span_drop_frac",
       ratio(d(e.spans_overwritten, b.spans_overwritten),
             d(e.spans_recorded, b.spans_recorded)),
       "frac"},
      {"obs.series", static_cast<double>(run.series), "count"},
      {"obs.export_ms", run.export_ms, "ms"},
      {"flow.records_per_pkt",
       ratio(d(e.flow_recorded, b.flow_recorded), delivered), "count"},
      {"flow.evictions_per_kpkt",
       ratio(d(e.flow_evictions, b.flow_evictions), kpkt), "1/kpkt"},
      {"health.ticks", d(e.health_windows, b.health_windows), "count"},
      {"health.alerts_fired", static_cast<double>(run.alerts_fired), "count"},
      {"fault.drop_per_kpkt",
       ratio(static_cast<double>(ch.fault_drop), enq), "1/kpkt"},
      {"fault.corrupt_per_kpkt",
       ratio(static_cast<double>(ch.fault_corrupt), enq), "1/kpkt"},
      {"fault.duplicate_per_kpkt",
       ratio(static_cast<double>(ch.fault_duplicate), enq), "1/kpkt"},
      {"fault.reorder_per_kpkt",
       ratio(static_cast<double>(ch.fault_reorder), enq), "1/kpkt"},
      {"fault.flaps", static_cast<double>(ch.fault_flap), "count"},
      {"ledger.explained_frac", explained_frac, "frac"},
      {"trace.overhead_frac",
       ratio(run.traced_ns_per_pkt, run.untraced_ns_per_pkt) - 1.0, "frac"},
  };
}

}  // namespace perfbench

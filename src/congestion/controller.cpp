#include "congestion/controller.hpp"

#include <algorithm>
#include <limits>

#include "check/analysis.hpp"

namespace srp::cc {

/// Fraction of link capacity shared out to feeders when congested.
constexpr double kTargetUtilization = 0.9;
/// Shaping backlog that triggers recursive upstream reports.
constexpr std::size_t kBacklogWatermarkBytes = 24'000;

CongestionController::CongestionController(sim::Simulator& sim,
                                           viper::ViperRouter& router,
                                           ControllerConfig config)
    : sim_(sim), router_(router), config_(config) {
  router_.set_shaper([this](int out_port, std::uint8_t next_port,
                            net::PacketPtr packet, net::TxMeta meta,
                            sim::Time earliest) {
    return shape(out_port, next_port, std::move(packet), meta, earliest);
  });
  router_.set_control_handler(
      [this](const viper::SegmentView&, std::span<const std::uint8_t> payload,
             int) { on_control(payload); });
  sim_.after(config_.interval, [this] { tick(); });
}

void CongestionController::monitor_port(int port_index) {
  monitored_ports_.push_back(port_index);
  PortMonitor& monitor = monitors_[port_index];
  if (config_.feed_forward) {
    router_.port(port_index).on_enqueue = [this, &monitor](
                                              const net::Packet& p) {
      monitor.feedforward_seen += p.feedforward;
    };
  }
}

void CongestionController::set_neighbor(int port_index,
                                        std::uint32_t neighbor_router_id) {
  neighbors_[port_index] = neighbor_router_id;
}

void CongestionController::set_observer(const obs::Observer& observer) {
  if (observer.registry != nullptr) {
    const auto instance = stats::metric_component(router_.name());
    obs_flows_ = &observer.registry->gauge("cc." + instance + ".flows");
    observer.registry->counter("cc." + instance + ".reports_sent",
                               stats_.reports_sent);
    observer.registry->counter("cc." + instance + ".reports_received",
                               stats_.reports_received);
    observer.registry->counter("cc." + instance + ".shaped",
                               stats_.packets_shaped);
    update_flows_gauge();
  } else {
    obs_flows_ = nullptr;
  }
  obs_recorder_ = observer.recorder;
}

std::vector<CongestionController::FlowSnapshot>
CongestionController::flow_snapshots() const {
  std::vector<FlowSnapshot> out;
  out.reserve(flows_.size());
  for (const auto& [key, flow] : flows_) {
    out.push_back(FlowSnapshot{key, flow.grant.rate_bps, flow.held.size(),
                               flow.held_bytes, flow.grant.expires});
  }
  return out;  // flows_ is a std::map: already FlowKey-ordered
}

std::size_t CongestionController::held_packets() const {
  std::size_t n = 0;
  for (const auto& [key, flow] : flows_) n += flow.held.size();
  return n;
}

void CongestionController::refill(FlowState& flow) {
  const sim::Time now = sim_.now();
  if (now > flow.last_refill) {
    flow.bucket_bits +=
        flow.grant.rate_bps * sim::to_seconds(now - flow.last_refill);
    flow.bucket_bits = std::min(flow.bucket_bits, flow.bucket_cap_bits);
    flow.last_refill = now;
  }
}

bool CongestionController::shape(int out_port, std::uint8_t next_port,
                                 net::PacketPtr packet, net::TxMeta meta,
                                 sim::Time earliest) {
  const auto neighbor = neighbors_.find(out_port);
  if (neighbor == neighbors_.end()) return false;
  const FlowKey key{neighbor->second, next_port};
  const auto it = flows_.find(key);
  if (it == flows_.end()) return false;  // no limit toward that queue

  FlowState& flow = it->second;
  refill(flow);
  const double need = static_cast<double>(packet->size()) * 8.0;
  if (flow.held.empty() && flow.bucket_bits >= need) {
    flow.bucket_bits -= need;
    return false;  // inside the granted rate: pass through untouched
  }

  ++stats_.packets_shaped;
  if (obs_recorder_ != nullptr && packet->trace_id != 0) {
    // Throttle events render as instants: the shaper held this packet.
    obs::SpanRecord span;
    span.trace_id = packet->trace_id;
    span.hop = packet->hops;
    span.kind = obs::SpanKind::kThrottle;
    span.out_port = static_cast<std::uint16_t>(out_port);
    span.start = sim_.now();
    span.decision = sim_.now();
    span.end = sim_.now();
    span.set_component(router_.name());
    obs_recorder_->record(span);
  }
  flow.held_bytes += packet->size();
  flow.held.push_back(Held{std::move(packet), meta, out_port, earliest});
  flow.out_port = out_port;
  schedule_release(key);
  if (flow.held_bytes > kBacklogWatermarkBytes) {
    report_backlog(flow);
  }
  return true;
}

void CongestionController::schedule_release(const FlowKey& key) {
  FlowState& flow = flows_.at(key);
  if (flow.release_scheduled || flow.held.empty()) return;
  refill(flow);
  const double need = static_cast<double>(flow.held.front().packet->size()) *
                      8.0;
  sim::Time when = sim_.now();
  if (flow.bucket_bits < need && flow.grant.rate_bps > 0.0) {
    when +=
        sim::from_seconds((need - flow.bucket_bits) / flow.grant.rate_bps);
  }
  flow.release_scheduled = true;
  sim_.at(std::max(when, sim_.now() + 1),
          [this, key] { release_ready(key); });
}

void CongestionController::release_ready(const FlowKey& key) {
  const auto it = flows_.find(key);
  if (it == flows_.end()) return;  // flow expired; flush() already emitted
  FlowState& flow = it->second;
  flow.release_scheduled = false;
  refill(flow);
  while (!flow.held.empty()) {
    const double need =
        static_cast<double>(flow.held.front().packet->size()) * 8.0;
    if (flow.bucket_bits < need) break;
    flow.bucket_bits -= need;
    Held h = std::move(flow.held.front());
    flow.held.pop_front();
    flow.held_bytes -= h.packet->size();
    if (config_.feed_forward) {
      // Stamp the backlog behind this packet (paper's feed-forward info).
      h.packet->feedforward =
          static_cast<std::uint32_t>(flow.held.size());
    }
    router_.emit_to_port(h.out_port, std::move(h.packet), h.meta,
                         std::max(h.earliest, sim_.now()));
  }
  schedule_release(key);
}

void CongestionController::flush(FlowState& flow) {
  while (!flow.held.empty()) {
    Held h = std::move(flow.held.front());
    flow.held.pop_front();
    router_.emit_to_port(h.out_port, std::move(h.packet), h.meta,
                         std::max(h.earliest, sim_.now()));
  }
  flow.held_bytes = 0;
}

SRP_HOT_PATH void CongestionController::on_control(
    std::span<const std::uint8_t> payload) {
  const auto report = decode_rate_report(payload);
  if (!report.has_value()) return;
  ++stats_.reports_received;
  const FlowKey key{report->router_id, report->port};
  // A flow's first report inserts its entry; later ones update it in place.
  auto [it, inserted] = flows_.try_emplace(key);
  FlowState& flow = it->second;
  if (inserted) {
    ++stats_.flows_created;
    update_flows_gauge();
    flow.last_refill = sim_.now();
  } else {
    refill(flow);
  }
  step(flow, {.type = ThrottleEvent::Type::kReport,
              .rate_bps = report->rate_bps});
  flow.bucket_bits = std::min(flow.bucket_bits, flow.bucket_cap_bits);
}

ThrottleActions CongestionController::step(FlowState& flow,
                                           const ThrottleEvent& event) {
  ThrottleConfig config;
  config.flow_ttl = config_.flow_ttl;
  config.ramp_factor = config_.ramp_factor;
  config.ramp_interval = 2 * config_.interval;
  // A flow that has shaped nothing yet has no port, so no rate to ramp
  // out at.
  config.rate_ceiling_bps =
      flow.out_port > 0 ? router_.port(flow.out_port).config().rate_bps
                        : std::numeric_limits<double>::infinity();
  ThrottleActions actions;
  flow.grant = step_(config, flow.grant, event, sim_.now(), &actions);
  // Allow ~2 report intervals of burst so shaping does not starve the link.
  flow.bucket_cap_bits =
      flow.grant.rate_bps * 2.0 * sim::to_seconds(config_.interval);
  return actions;
}

void CongestionController::report_port_congestion(int port_index) {
  const net::TxPort& out = router_.port(port_index);
  PortMonitor& monitor = monitors_[port_index];
  const std::uint64_t ff_pressure = monitor.feedforward_seen;
  monitor.feedforward_seen = 0;

  if (out.queue_bytes() <= config_.queue_watermark_bytes) {
    // Feed-forward: feeders still report backlog behind their packets, so
    // renew the previous grants instead of letting the limits ramp away —
    // the queue drained because the control worked, not because the
    // demand vanished.
    if (config_.feed_forward && ff_pressure > 0 &&
        monitor.last_share_bps > 0.0 && !monitor.last_feeders.empty()) {
      send_rate_report(port_index, monitor.last_share_bps,
                       monitor.last_feeders);
    }
    return;
  }

  // "Because the congested router has access to the source route, it can
  // easily determine the upstream routers feeding the queue."
  feeders_.clear();
  for (const auto& queued : out.queue()) {
    add_feeder(queued.packet->last_in_port);
  }
  if (feeders_.empty()) return;

  const double share = out.config().rate_bps * kTargetUtilization /
                       static_cast<double>(feeders_.size());
  monitor.last_share_bps = share;
  send_rate_report(port_index, share, feeders_);
  monitor.last_feeders = feeders_;
}

void CongestionController::report_backlog(FlowState& flow) {
  // Recursive backpressure: our shaping queue for this flow is itself
  // congested, so grant our feeders shares of *our* granted rate.
  feeders_.clear();
  for (const auto& held : flow.held) add_feeder(held.packet->last_in_port);
  if (feeders_.empty()) return;
  send_rate_report(flow.out_port,
                   flow.grant.rate_bps / static_cast<double>(feeders_.size()),
                   feeders_);
}

void CongestionController::add_feeder(int in_port) {
  if (in_port <= 0) return;
  const auto at = std::lower_bound(feeders_.begin(), feeders_.end(), in_port);
  if (at == feeders_.end() || *at != in_port) feeders_.insert(at, in_port);
}

void CongestionController::send_rate_report(int port, double rate_bps,
                                            std::span<const int> feeders) {
  encode_rate_report(RateReport{router_.router_id(),
                                static_cast<std::uint8_t>(port), rate_bps},
                     report_);
  for (int feeder : feeders) {
    router_.send_control(feeder, report_);
    ++stats_.reports_sent;
  }
}

void CongestionController::tick() {
  for (int port_index : monitored_ports_) {
    report_port_congestion(port_index);
  }

  // Soft-state maintenance: the core expires dead limits and ramps quiet
  // ones back up, releasing them at the port rate.
  for (auto it = flows_.begin(); it != flows_.end();) {
    FlowState& flow = it->second;
    const ThrottleActions actions =
        step(flow, {.type = ThrottleEvent::Type::kTick});
    if (!actions.erase) {
      ++it;
      continue;
    }
    ++(actions.ramped_out ? stats_.flows_ramped_out : stats_.flows_expired);
    flush(flow);
    it = flows_.erase(it);
    update_flows_gauge();
  }

  sim_.after(config_.interval, [this] { tick(); });
}

}  // namespace srp::cc

#include "congestion/throttle.hpp"

#include <limits>

namespace srp::cc {

SourceThrottle::SourceThrottle(sim::Simulator& sim, viper::ViperHost& host,
                               ThrottleConfig config)
    : sim_(sim), config_(config),
      core_config_{config.flow_ttl, config.ramp_factor, config.ramp_interval,
                   config.rate_ceiling_bps} {
  host.set_control_handler(
      [this](std::span<const std::uint8_t> payload, int) {
        on_control(payload);
      });
  sim_.after(config_.ramp_interval, [this] { tick(); });
}

void SourceThrottle::on_control(std::span<const std::uint8_t> payload) {
  const auto report = decode_rate_report(payload);
  if (!report.has_value()) return;
  apply_report(*report);
}

void SourceThrottle::apply_report(const RateReport& report) {
  ++stats_.reports_received;
  ThrottleState& s = states_[FlowKey{report.router_id, report.port}];
  ThrottleEvent event;
  event.type = ThrottleEvent::Type::kReport;
  event.rate_bps = report.rate_bps;
  ThrottleActions actions;
  s = step_(core_config_, s, event, sim_.now(), &actions);
}

double SourceThrottle::rate(const FlowKey& key) const {
  const auto it = states_.find(key);
  return it == states_.end() ? std::numeric_limits<double>::infinity()
                             : it->second.rate_bps;
}

sim::Time SourceThrottle::acquire(const FlowKey& key, std::size_t bytes) {
  const auto it = states_.find(key);
  if (it == states_.end()) return sim_.now();
  ThrottleEvent event;
  event.type = ThrottleEvent::Type::kAcquire;
  event.bytes = bytes;
  ThrottleActions actions;
  it->second = step_(core_config_, it->second, event, sim_.now(), &actions);
  if (actions.delayed) ++stats_.sends_delayed;
  return actions.send_at;
}

void SourceThrottle::tick() {
  ThrottleEvent event;
  event.type = ThrottleEvent::Type::kTick;
  for (auto it = states_.begin(); it != states_.end();) {
    ThrottleActions actions;
    it->second = step_(core_config_, it->second, event, sim_.now(), &actions);
    it = actions.erase ? states_.erase(it) : std::next(it);
  }
  sim_.after(config_.ramp_interval, [this] { tick(); });
}

}  // namespace srp::cc

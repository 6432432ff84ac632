#include "health/monitor.hpp"

#include <algorithm>
#include <cinttypes>
#include <functional>
#include <string_view>
#include <utility>

#include "check/contract.hpp"
#include "flow/plane.hpp"
#include "obs/recorder.hpp"
#include "obs/telemetry.hpp"
#include "stats/format.hpp"

namespace srp::health {
namespace {

using stats::append_fmt;

bool ends_with(std::string_view name, std::string_view suffix) {
  return name.size() >= suffix.size() &&
         name.substr(name.size() - suffix.size()) == suffix;
}

bool starts_with(std::string_view name, std::string_view prefix) {
  return name.substr(0, prefix.size()) == prefix;
}

/// Second dot-segment of a metric name ("viper.r2.token_rejected" -> "r2").
std::string instance_segment(std::string_view metric) {
  const auto first = metric.find('.');
  if (first == std::string_view::npos) return std::string(metric);
  const auto second = metric.find('.', first + 1);
  const auto len =
      second == std::string_view::npos ? std::string_view::npos
                                       : second - first - 1;
  return std::string(metric.substr(first + 1, len));
}

}  // namespace

HealthMonitor::HealthMonitor(sim::Simulator& sim, stats::Registry& registry,
                             HealthConfig config)
    : sim_(sim),
      registry_(registry),
      config_(config),
      series_(config.series),
      engine_(config.policy) {
  windows_counter_ = &registry_.counter("health.monitor.windows");
  transitions_counter_ = &registry_.counter("health.monitor.transitions");
  rules_gauge_ = &registry_.gauge("health.monitor.rules");
  firing_gauge_ = &registry_.gauge("health.monitor.alerts_firing");
}

void HealthMonitor::map_router(std::uint32_t id, std::string name) {
  router_names_[id] = std::move(name);
}

void HealthMonitor::watch_link(net::TxPort& port, std::string owner) {
  LinkProbe probe;
  probe.port = &port;
  probe.owner = owner;
  probe.instance = stats::metric_component(port.name());
  instance_owner_[probe.instance] = owner;
  instance_port_[probe.instance] = port.name();
  probes_.push_back(std::move(probe));
}

void HealthMonitor::start() {
  if (started_) return;
  started_ = true;
  auto tick_fn = std::make_shared<std::function<void()>>();
  // Weak self-capture (the enable_load_reporting idiom): the only strong
  // reference lives in the pending event, so the chain is reclaimed with
  // the event queue.
  *tick_fn = [this, weak = std::weak_ptr(tick_fn)] {
    tick();
    sim_.after(config_.series.window, [self = weak.lock()] { (*self)(); });
  };
  sim_.after(config_.series.window, [tick_fn] { (*tick_fn)(); });
}

void HealthMonitor::publish_probe_mirrors() {
  for (LinkProbe& probe : probes_) {
    const net::TxPort::Stats& s = probe.port->stats();
    const net::TxPort::Stats& p = probe.prev;
    const std::uint64_t outstanding =
        probe.port->queue_packets() + (probe.port->busy() ? 1 : 0);

    const std::uint64_t d_enqueued = s.enqueued - p.enqueued;
    const std::uint64_t d_cleared =
        (s.sent - p.sent) + (s.preempt_aborts - p.preempt_aborts);
    const std::uint64_t d_down = s.dropped_down - p.dropped_down;
    const std::uint64_t d_local = (s.dropped_full - p.dropped_full) +
                                  (s.dropped_blocked - p.dropped_blocked) +
                                  (s.deflected - p.deflected);
    const auto d_outstanding = static_cast<std::int64_t>(outstanding) -
                               static_cast<std::int64_t>(probe.prev_outstanding);

    // The conservation residue: what entered minus every explained exit
    // minus the change in what is still inside.  Exact at tick instants —
    // any positive residue is loss the device cannot account for.
    const auto residue = static_cast<std::int64_t>(d_enqueued) -
                         static_cast<std::int64_t>(d_cleared + d_down +
                                                   d_local) -
                         d_outstanding;
    const std::uint64_t wire_loss =
        residue > 0 ? static_cast<std::uint64_t>(residue) : 0;
    probe.wire_loss_total += wire_loss;
    probe.prev = s;
    probe.prev_outstanding = outstanding;

    const std::string& inst = probe.instance;
    registry_.counter("port." + inst + ".handed").add(d_enqueued);
    registry_.counter("port." + inst + ".cleared").add(d_cleared);
    registry_.counter("port." + inst + ".down_drops").add(d_down);
    registry_.counter("port." + inst + ".local_drops").add(d_local);
    registry_.counter("port." + inst + ".wire_loss").add(wire_loss);
    registry_.gauge("port." + inst + ".link_up")
        .set(probe.port->is_up() ? 1 : 0);
  }
}

void HealthMonitor::instantiate_rules(const stats::MetricsSnapshot& snap) {
  const auto add_rule = [&](const std::string& metric, std::string alert,
                            Reading reading, DetectorKind kind,
                            auto detector) {
    AlertLabels labels;
    labels.alert = std::move(alert);
    labels.metric = metric;
    labels.detector = kind;
    const auto instance = instance_segment(metric);
    labels.component = owner_of(metric);
    if (const auto it = instance_port_.find(instance);
        it != instance_port_.end()) {
      labels.port = it->second;
    }
    rules_.push_back(Rule{metric, reading, engine_.add_rule(std::move(labels)),
                          std::move(detector)});
  };

  const auto consider = [&](const std::string& name, bool histogram) {
    if (ruled_metrics_.contains(name)) return;
    ruled_metrics_[name] = true;
    if (!histogram) {
      if (starts_with(name, "port.") && ends_with(name, ".wire_loss")) {
        add_rule(name, "LinkWireLoss", Reading::kCounterRate,
                 DetectorKind::kThreshold,
                 ThresholdDetector({.limit = config_.loss_limit,
                                    .clear_limit = 0.0}));
      } else if (starts_with(name, "port.") &&
                 ends_with(name, ".down_drops")) {
        add_rule(name, "LinkDownDrops", Reading::kCounterRate,
                 DetectorKind::kThreshold,
                 ThresholdDetector({.limit = config_.loss_limit,
                                    .clear_limit = 0.0}));
      } else if (starts_with(name, "port.") && ends_with(name, ".link_up")) {
        add_rule(name, "LinkDown", Reading::kGaugeInverted,
                 DetectorKind::kThreshold,
                 ThresholdDetector({.limit = 1.0, .clear_limit = 0.0}));
      } else if (starts_with(name, "viper.") &&
                 ends_with(name, ".token_rejected")) {
        add_rule(name, "TokenRejects", Reading::kCounterRate,
                 DetectorKind::kThreshold,
                 ThresholdDetector({.limit = config_.reject_limit,
                                    .clear_limit = 0.0}));
      } else if (starts_with(name, "viper.") &&
                 (ends_with(name, ".token_miss_optimistic") ||
                  ends_with(name, ".token_miss_blocking") ||
                  ends_with(name, ".token_miss_drop"))) {
        add_rule(name, "TokenMissSurge", Reading::kCounterRate,
                 DetectorKind::kEwma, EwmaDetector(config_.rate_ewma));
      } else if (starts_with(name, "vmtp.") &&
                 ends_with(name, ".retransmits")) {
        add_rule(name, "RetransmitSurge", Reading::kCounterRate,
                 DetectorKind::kEwma, EwmaDetector(config_.rate_ewma));
      }
      return;
    }
    if (starts_with(name, "port.") && ends_with(name, ".queue_wait_ps")) {
      add_rule(name, "QueueWaitSurge", Reading::kHistogramP99,
               DetectorKind::kEwma, EwmaDetector(config_.latency_ewma));
    } else if (starts_with(name, "vmtp.") && ends_with(name, ".rtt_ps")) {
      add_rule(name, "RttSurge", Reading::kHistogramP99, DetectorKind::kEwma,
               EwmaDetector(config_.latency_ewma));
    } else if (starts_with(name, "host.") &&
               ends_with(name, ".e2e_latency_ps")) {
      add_rule(name, "SloBurnRate", Reading::kHistogramBurn,
               DetectorKind::kBurnRate,
               BurnRateDetector({.objective = config_.slo_objective_ps,
                                 .error_budget = config_.slo_error_budget,
                                 .burn_limit = config_.slo_burn_limit,
                                 .clear_burn = config_.slo_clear_burn,
                                 .min_samples = config_.slo_min_samples}));
    }
  };

  for (const auto& [name, value] : snap.counters) consider(name, false);
  for (const auto& [name, value] : snap.gauges) consider(name, false);
  for (const auto& [name, hist] : snap.histograms) consider(name, true);
}

void HealthMonitor::evaluate_rules() {
  const sim::Time now = sim_.now();
  for (Rule& rule : rules_) {
    Verdict verdict;
    switch (rule.reading) {
      case Reading::kCounterRate: {
        const auto rate = series_.counter_rate(rule.metric);
        if (!rate.has_value()) continue;
        if (auto* d = std::get_if<ThresholdDetector>(&rule.detector)) {
          verdict = d->evaluate(*rate);
        } else {
          verdict = std::get<EwmaDetector>(rule.detector).evaluate(*rate);
        }
        break;
      }
      case Reading::kGaugeInverted: {
        const auto level = series_.gauge_level(rule.metric);
        if (!level.has_value()) continue;
        verdict = std::get<ThresholdDetector>(rule.detector)
                      .evaluate(1.0 - *level);
        break;
      }
      case Reading::kHistogramP99: {
        const auto* window = series_.histogram_window(rule.metric);
        // An empty window is no evidence either way: keep state, do not
        // teach the baseline that "no traffic" means "zero latency".
        if (window == nullptr || window->count == 0) continue;
        verdict = std::get<EwmaDetector>(rule.detector)
                      .evaluate(static_cast<double>(window->percentile(0.99)));
        break;
      }
      case Reading::kHistogramBurn: {
        const auto* window = series_.histogram_window(rule.metric);
        if (window == nullptr) continue;
        verdict = std::get<BurnRateDetector>(rule.detector).evaluate(*window);
        break;
      }
    }
    if (engine_.observe(rule.handle, now, verdict)) {
      on_transition(engine_.alert(rule.handle));
    }
  }
}

void HealthMonitor::tick() {
  publish_probe_mirrors();
  const auto snap = registry_.full_snapshot();
  series_.roll(sim_.now(), snap);
  instantiate_rules(snap);
  evaluate_rules();
  windows_counter_->add(1);
  rules_gauge_->set(static_cast<std::int64_t>(rules_.size()));
  firing_gauge_->set(static_cast<std::int64_t>(engine_.firing().size()));
}

void HealthMonitor::on_transition(const Alert& alert) {
  transitions_counter_->add(1);
  if (!config_.emit_spans || recorder_ == nullptr) return;
  obs::SpanRecord span;
  span.kind = obs::SpanKind::kAlert;
  span.start = span.decision = span.end = sim_.now();
  span.set_component(alert.labels.alert);
  // Reuse the hop field to carry the lifecycle state into the trace args.
  span.hop = static_cast<std::uint32_t>(alert.state);
  recorder_->record(span);
}

std::string HealthMonitor::owner_of(const std::string& metric) const {
  const auto instance = instance_segment(metric);
  if (const auto it = instance_owner_.find(instance);
      it != instance_owner_.end()) {
    return it->second;
  }
  return instance;
}

RootCause HealthMonitor::diagnose(const Alert& alert) const {
  RootCause cause;
  cause.router = alert.labels.component;
  cause.port = alert.labels.port;
  append_fmt(cause.reason, "%s (%s on %s): %s", alert.labels.alert.c_str(),
             std::string(to_string(alert.labels.detector)).c_str(),
             alert.labels.metric.c_str(),
             std::string(to_string(alert.state)).c_str());
  append_fmt(cause.reason, ", peak score %.2f over %" PRIu64 " windows",
             alert.peak_score, alert.breach_windows);

  const auto corroborate = [&](const std::string& line) {
    if (!cause.evidence.empty()) cause.evidence += "; ";
    cause.evidence += line;
  };

  if (collector_ != nullptr) {
    // In-band path telemetry localizes end-to-end drops to the last good
    // hop; agreement with the suspect is strong corroboration.
    const auto& drops = collector_->drops_after_router();
    std::uint32_t worst_id = 0;
    std::uint64_t worst = 0;
    for (const auto& [router, count] : drops) {
      if (count > worst) {
        worst = count;
        worst_id = router;
      }
    }
    if (worst > 0) {
      const auto it = router_names_.find(worst_id);
      const std::string name = it != router_names_.end()
                                   ? it->second
                                   : std::to_string(worst_id);
      std::string line;
      append_fmt(line, "path telemetry: %" PRIu64 " drops after %s", worst,
                 name.c_str());
      if (name == cause.router) line += " (matches suspect)";
      corroborate(line);
    }
  }

  if (flow_ != nullptr && !cause.router.empty()) {
    if (const flow::FlowObserver* obs = flow_->observer(cause.router)) {
      const auto top = obs->table().top(1);
      if (!top.empty()) {
        std::string line;
        append_fmt(line,
                   "heaviest flow at %s: account %u, %" PRIu64
                   " bytes via out port %u",
                   cause.router.c_str(), top[0].key.account, top[0].bytes,
                   top[0].last_out_port);
        corroborate(line);
      }
    }
  }
  return cause;
}

}  // namespace srp::health

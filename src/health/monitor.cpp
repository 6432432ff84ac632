#include "health/monitor.hpp"

#include <algorithm>
#include <cinttypes>
#include <span>
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
using enum DetectorKind;

// The rule templates and their settings.

/// Threshold rules (wire loss, link-down drops, link down, token rejects)
/// breach on one event per window and clear on a window with none.
constexpr ThresholdConfig kAnyEvent{.limit = 1.0, .clear_limit = 0.0};

/// Baseline deviation of windowed p99s (queue wait, RTT); the
/// min_deviation floor is in histogram units (picoseconds).
constexpr EwmaConfig kLatencyEwma{.min_deviation = 50.0 * sim::kMicrosecond,
                                  .min_sigma = 10.0 * sim::kMicrosecond};

/// Baseline deviation of windowed counter rates (token misses,
/// retransmits); the min_deviation floor is in events per window.
constexpr EwmaConfig kRateEwma{.min_deviation = 8.0, .min_sigma = 2.0};

/// Delivery-latency SLO, applied to every `host.*.e2e_latency_ps`
/// histogram: at most 1% of deliveries may exceed 5 ms; SloBurnRate
/// fires when the budget burns at 10x or faster.
constexpr BurnRateConfig kSlo{.objective = 5 * sim::kMillisecond};

/// A rule template: a metric named `<prefix>*<suffix>` gets the alert
/// `alert` from a `kind` detector.  Each series kind has its own table.
struct Template {
  std::string_view prefix, suffix, alert;
  DetectorKind kind;
};

constexpr Template kCounterTemplates[] = {
    {"port.", ".wire_loss", "LinkWireLoss", kThreshold},
    {"port.", ".down_drops", "LinkDownDrops", kThreshold},
    {"viper.", ".token_rejected", "TokenRejects", kThreshold},
    {"viper.", ".token_miss_optimistic", "TokenMissSurge", kEwma},
    {"viper.", ".token_miss_blocking", "TokenMissSurge", kEwma},
    {"viper.", ".token_miss_drop", "TokenMissSurge", kEwma},
    {"vmtp.", ".retransmits", "RetransmitSurge", kEwma},
};
constexpr Template kGaugeTemplates[] = {
    {"port.", ".link_up", "LinkDown", kThreshold}};
constexpr Template kHistogramTemplates[] = {
    {"port.", ".queue_wait_ps", "QueueWaitSurge", kEwma},
    {"vmtp.", ".rtt_ps", "RttSurge", kEwma},
    {"host.", ".e2e_latency_ps", "SloBurnRate", kBurnRate},
};

/// value - previous, clamped at 0 against resets.
std::uint64_t clamped_delta(std::uint64_t value, std::uint64_t previous) {
  return value >= previous ? value - previous : 0;
}

/// The samples @p now holds beyond @p previous, bucket by bucket.
stats::HistogramSnapshot window_between(
    const stats::HistogramSnapshot& previous,
    const stats::HistogramSnapshot& now) {
  stats::HistogramSnapshot window;
  for (std::size_t i = 0; i < now.kBuckets; ++i) {
    window.buckets[i] = clamped_delta(now.buckets[i], previous.buckets[i]);
  }
  window.count = clamped_delta(now.count, previous.count);
  window.sum = clamped_delta(now.sum, previous.sum);
  return window;
}

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
                             sim::Time window)
    : sim_(sim), registry_(registry), window_(window) {
  SIRPENT_EXPECTS(window_ > 0);
  registry_.counter("health.monitor.windows", windows_);
  registry_.counter("health.monitor.transitions", transitions_);
  rules_gauge_ = &registry_.gauge("health.monitor.rules");
  firing_gauge_ = &registry_.gauge("health.monitor.alerts_firing");
}

void HealthMonitor::map_router(std::uint32_t id, std::string name) {
  router_names_[id] = std::move(name);
}

void HealthMonitor::watch_link(net::TxPort& port, std::string owner) {
  LinkProbe& probe = probes_.emplace_back();
  probe.port = &port;
  const std::string inst = stats::metric_component(port.name());
  registry_.counter("port." + inst + ".handed", probe.handed);
  registry_.counter("port." + inst + ".cleared", probe.cleared);
  registry_.counter("port." + inst + ".down_drops", probe.down_drops);
  registry_.counter("port." + inst + ".local_drops", probe.local_drops);
  registry_.counter("port." + inst + ".wire_loss", probe.wire_loss);
  probe.link_up = &registry_.gauge("port." + inst + ".link_up");
  instance_owner_[inst] = std::move(owner);
  instance_port_[inst] = port.name();
}

void HealthMonitor::start() {
  if (started_) return;
  started_ = true;
  sim_.after(window_, [this] { on_window(); });
}

void HealthMonitor::on_window() {
  tick();
  sim_.after(window_, [this] { on_window(); });
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
    probe.prev = s;
    probe.prev_outstanding = outstanding;

    probe.handed += d_enqueued;
    probe.cleared += d_cleared;
    probe.down_drops += d_down;
    probe.local_drops += d_local;
    probe.wire_loss += wire_loss;
    probe.link_up->set(probe.port->is_up() ? 1 : 0);
  }
}

void HealthMonitor::discover_rules() {
  // Names are never removed, so a registry of unchanged size holds no
  // series that the last walk did not see.
  if (registry_.size() == discovered_size_) return;
  discovered_size_ = registry_.size();

  using Series = decltype(Rule::series);
  const auto consider = [&](const std::string& metric, Series series,
                            std::span<const Template> templates) {
    const auto matches = [&](const Template& t) {
      return starts_with(metric, t.prefix) && ends_with(metric, t.suffix);
    };
    const auto ruled = [&](const Alert& cell) {
      return cell.labels.metric == metric;
    };
    const auto t = std::ranges::find_if(templates, matches);
    if (t == templates.end() || std::ranges::any_of(engine_.cells(), ruled)) {
      return;
    }
    AlertLabels labels;
    labels.alert = t->alert;
    labels.metric = metric;
    labels.detector = t->kind;
    labels.component = owner_of(metric);
    if (const auto it = instance_port_.find(instance_segment(metric));
        it != instance_port_.end()) {
      labels.port = it->second;
    }
    const bool histogram =
        std::holds_alternative<const stats::Histogram*>(series);
    Rule rule{engine_.add_rule(std::move(labels)), ThresholdDetector(kAnyEvent),
              series, std::uint64_t{0}};
    if (t->kind == kEwma) {
      rule.detector = EwmaDetector(histogram ? kLatencyEwma : kRateEwma);
    } else if (t->kind == kBurnRate) {
      rule.detector = BurnRateDetector(kSlo);
    }
    if (histogram) rule.previous = stats::HistogramSnapshot{};
    rules_.push_back(std::move(rule));
  };

  // Counters, then gauges, then histograms, each in name order: the
  // order in which rules have always been created.
  const auto snap = registry_.full_snapshot();
  for (const auto& [name, value] : snap.counters) {
    consider(name, registry_.counter_sources(name), kCounterTemplates);
  }
  for (const auto& [name, level] : snap.gauges) {
    consider(name, &registry_.gauge(name), kGaugeTemplates);
  }
  for (const auto& [name, hist] : snap.histograms) {
    consider(name, &registry_.histogram(name), kHistogramTemplates);
  }
}

void HealthMonitor::evaluate_rules() {
  const sim::Time now = sim_.now();
  for (Rule& rule : rules_) {
    Verdict verdict;
    if (const auto* counter =
            std::get_if<const stats::Registry::CounterSources*>(&rule.series)) {
      auto& previous = std::get<std::uint64_t>(rule.previous);
      std::uint64_t value = 0;
      for (const std::uint64_t* source : **counter) value += *source;
      const auto rate = static_cast<double>(clamped_delta(value, previous));
      previous = value;
      if (auto* d = std::get_if<ThresholdDetector>(&rule.detector)) {
        verdict = d->evaluate(rate);
      } else {
        verdict = std::get<EwmaDetector>(rule.detector).evaluate(rate);
      }
    } else if (const auto* gauge =
                   std::get_if<const stats::Gauge*>(&rule.series)) {
      const auto level = static_cast<double>((*gauge)->value());
      verdict =
          std::get<ThresholdDetector>(rule.detector).evaluate(1.0 - level);
    } else {
      auto& previous = std::get<stats::HistogramSnapshot>(rule.previous);
      const stats::HistogramSnapshot value =
          std::get<const stats::Histogram*>(rule.series)->snapshot();
      const stats::HistogramSnapshot window = window_between(previous, value);
      previous = value;
      if (auto* burn = std::get_if<BurnRateDetector>(&rule.detector)) {
        verdict = burn->evaluate(window);
      } else {
        // An empty window is no evidence either way: keep state, do not
        // teach the baseline that "no traffic" means "zero latency".
        if (window.count == 0) continue;
        verdict = std::get<EwmaDetector>(rule.detector)
                      .evaluate(static_cast<double>(window.percentile(0.99)));
      }
    }
    if (engine_.observe(rule.handle, now, verdict)) {
      on_transition(engine_.alert(rule.handle));
    }
  }
}

void HealthMonitor::tick() {
  publish_probe_mirrors();
  discover_rules();
  evaluate_rules();
  ++windows_;
  rules_gauge_->set(static_cast<std::int64_t>(rules_.size()));
  firing_gauge_->set(static_cast<std::int64_t>(engine_.firing_count()));
}

void HealthMonitor::on_transition(const Alert& alert) {
  ++transitions_;
  if (recorder_ == nullptr) return;
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

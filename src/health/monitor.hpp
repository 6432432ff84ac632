// HealthMonitor: the health plane's tick loop and rule book.
//
// One monitor owns an AlertEngine, a set of link probes and its rules.
// Every window of sim time (kDefaultWindow unless the constructor is told
// otherwise) it:
//
//  1. Reads each watched TxPort's Stats struct (plain struct reads — the
//     per-packet data path is untouched) and mirrors them into registry
//     counters, including the one number no counter reports directly:
//     *unexplained wire loss*.  A healthy port satisfies the conservation
//     identity
//
//        enqueued = sent + preempt_aborts + dropped_down + dropped_full
//                 + dropped_blocked + deflected + outstanding
//
//     (outstanding = still queued or on the wire), so per window
//
//        wire_loss = Δenqueued − Δexplained − Δoutstanding
//
//     is exactly the packets that vanished without a device-side excuse —
//     injected loss — computed purely from honest device counters.  The
//     monitor never reads dropped_injected or any `fault.*` metric; the
//     fault engine's own books are ground truth for scoring, not input.
//
//  2. Only on a tick where Registry::size() has grown, walks the names and
//     creates rules from the built-in templates for the new ones (a
//     fabric's metrics are not known until traffic flows).  A rule keeps
//     its series where the registry holds it: a counter's source list, a
//     Gauge or a Histogram.  Other ticks copy and look up nothing.
//
//  3. Evaluates every rule on its window.  The registry is cumulative, so
//     each rule keeps its metric's previous reading and diffs against it:
//     a counter's delta (over all its sources, also ones bound later), a
//     histogram's bucket-wise delta (the window's own samples), both
//     clamped at zero against resets; a gauge is read as its level.  A
//     rule created this tick diffs against zero.  Verdicts fold through
//     the AlertEngine's pending→firing→resolved lifecycle; transitions
//     emit kAlert instants into the flight recorder and bump
//     `health.monitor.*` self-metrics.
//
// diagnose() turns a fired alert into a RootCause: the suspect device and
// port from the rule labels, corroborated — when the fabric wired them in —
// by obs::PathCollector drop localization and the suspect's heaviest flow.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "health/alerts.hpp"
#include "health/detector.hpp"
#include "net/port.hpp"
#include "sim/simulator.hpp"
#include "stats/registry.hpp"

namespace srp::flow {
class FlowPlane;
}  // namespace srp::flow
namespace srp::obs {
class FlightRecorder;
class PathCollector;
}  // namespace srp::obs

namespace srp::health {

/// Default window length: the tick period and the span of every reading.
inline constexpr sim::Time kDefaultWindow = 10 * sim::kMillisecond;

/// Localized explanation of a fired alert.
struct RootCause {
  std::string router;    ///< suspect device ("" when not localizable)
  std::string port;      ///< suspect port name, e.g. "r2:p1" ("" unknown)
  std::string reason;    ///< one-line diagnosis
  std::string evidence;  ///< corroborating observations, "; "-joined
};

class HealthMonitor {
 public:
  HealthMonitor(sim::Simulator& sim, stats::Registry& registry,
                sim::Time window = kDefaultWindow);

  // --- optional corroboration sinks (null = feature off) ---
  void set_recorder(obs::FlightRecorder* recorder) { recorder_ = recorder; }
  void set_flow_plane(const flow::FlowPlane* plane) { flow_ = plane; }
  void set_path_collector(const obs::PathCollector* collector) {
    collector_ = collector;
  }
  /// Teaches diagnose() the VIPER id -> device-name mapping used by
  /// PathCollector drop localization.
  void map_router(std::uint32_t id, std::string name);

  /// Registers a link probe.  @p owner is the device the port belongs to
  /// ("r2"); alerts on this port's series carry it as their component.
  void watch_link(net::TxPort& port, std::string owner);

  /// Begins the periodic window tick (one sim event per window).
  void start();

  /// Closes one window now: probe mirrors, rule discovery, evaluation.
  /// start() calls this on its schedule; tests may drive it manually.
  void tick();

  /// Windows closed so far.
  [[nodiscard]] std::uint64_t windows() const { return windows_; }
  [[nodiscard]] const AlertEngine& engine() const { return engine_; }

  /// Root-cause hint for @p alert (normally one that fired).
  [[nodiscard]] RootCause diagnose(const Alert& alert) const;

 private:
  /// One rule's detector reads one series, held where the registry
  /// keeps it (found once, when the rule is created): a counter's bound
  /// sources give a delta per window, a link_up-style gauge gives
  /// 1 - level, and a histogram gives its windowed p99 to an EWMA (empty
  /// windows skipped) or the whole window to a BurnRateDetector.
  struct Rule {
    std::size_t handle = 0;  // AlertEngine rule index
    std::variant<ThresholdDetector, EwmaDetector, BurnRateDetector> detector;
    std::variant<const stats::Registry::CounterSources*, const stats::Gauge*,
                 const stats::Histogram*>
        series;
    /// The metric's cumulative reading at the previous tick (zero before
    /// the first): a counter value, or a histogram's.  Advances every
    /// tick, whether or not the rule evaluates.
    std::variant<std::uint64_t, stats::HistogramSnapshot> previous;
  };

  void on_window();
  void publish_probe_mirrors();
  void discover_rules();
  void evaluate_rules();
  void on_transition(const Alert& alert);
  /// Owner device of a metric instance ("r2_p1" -> "r2" via probes,
  /// else the instance segment itself).
  [[nodiscard]] std::string owner_of(const std::string& metric) const;

  struct LinkProbe {
    net::TxPort* port = nullptr;
    net::TxPort::Stats prev{};
    std::uint64_t prev_outstanding = 0;
    // Registry mirrors, bound once in watch_link.
    std::uint64_t handed = 0;
    std::uint64_t cleared = 0;
    std::uint64_t down_drops = 0;
    std::uint64_t local_drops = 0;
    std::uint64_t wire_loss = 0;
    stats::Gauge* link_up = nullptr;
  };

  sim::Simulator& sim_;
  stats::Registry& registry_;
  sim::Time window_;
  std::uint64_t windows_ = 0;
  std::uint64_t transitions_ = 0;
  AlertEngine engine_;
  std::deque<LinkProbe> probes_;  // deque: bound probe fields never move
  std::vector<Rule> rules_;
  std::size_t discovered_size_ = 0;  // Registry::size() at the last walk
  std::map<std::string, std::string> instance_owner_;  // "r2_p1" -> "r2"
  std::map<std::string, std::string> instance_port_;   // "r2_p1" -> "r2:p1"
  std::map<std::uint32_t, std::string> router_names_;
  obs::FlightRecorder* recorder_ = nullptr;
  const flow::FlowPlane* flow_ = nullptr;
  const obs::PathCollector* collector_ = nullptr;
  bool started_ = false;

  // Self metrics (the counters are bound to windows_ / transitions_).
  stats::Gauge* rules_gauge_ = nullptr;
  stats::Gauge* firing_gauge_ = nullptr;
};

}  // namespace srp::health

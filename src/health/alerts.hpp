// Alert lifecycle: debounced rule state machines over detector verdicts.
//
// An AlertRule binds one detector to one metric reading and a set of
// labels (alert name, component, port, metric).  The engine folds one
// Verdict per rule per window and runs the Prometheus-style lifecycle:
//
//    inactive --breach--> pending --for_windows breaches--> firing
//    firing  --clear_windows clears--> resolved --> inactive
//
// "pending" is the for-duration debounce: a rule must breach in
// for_windows consecutive windows before it pages, so a single noisy
// window never fires.  Symmetrically a firing alert needs clear_windows
// consecutive healthy windows to resolve, so one lucky window mid-fault
// does not flap it.  Every transition is appended to an event log with
// the window close time; the engine never drops events (chaos runs are
// bounded), and fired alerts keep their history through resolution for
// post-run scoring against fault-engine ground truth.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "health/detector.hpp"
#include "sim/time.hpp"

namespace srp::health {

enum class AlertState : std::uint8_t {
  kInactive,
  kPending,   // breaching, debounce not yet satisfied
  kFiring,
  kResolved,  // terminal for the episode; next breach starts a new one
};

[[nodiscard]] std::string_view to_string(AlertState state);

/// Identity of an alert, Prometheus-label style.  component/port locate
/// the monitored entity ("r2", "r2:p1"); metric is the registry series
/// the detector reads.
struct AlertLabels {
  std::string alert;      ///< rule name, e.g. "LinkWireLoss"
  std::string component;  ///< owning device, e.g. "r2"
  std::string port;       ///< port instance when applicable, else ""
  std::string metric;     ///< registry metric evaluated
  DetectorKind detector = DetectorKind::kThreshold;
};

/// One lifecycle transition.
struct AlertEvent {
  AlertState state = AlertState::kInactive;
  sim::Time at = 0;       ///< close time of the window that transitioned
  double value = 0.0;     ///< windowed reading at the transition
  double score = 0.0;     ///< detector score at the transition
};

/// One alert episode (pending/firing/resolution arc) plus its rule labels.
struct Alert {
  AlertLabels labels;
  AlertState state = AlertState::kInactive;
  sim::Time pending_since = 0;
  sim::Time firing_since = 0;
  sim::Time resolved_at = 0;
  double peak_score = 0.0;
  std::uint64_t breach_windows = 0;  ///< total breaching windows observed
  std::vector<AlertEvent> events;
};

struct AlertPolicy {
  std::uint32_t for_windows = 2;    ///< consecutive breaches to fire
  std::uint32_t clear_windows = 2;  ///< consecutive clears to resolve
};

/// Folds verdicts into alert state.  Rules are registered once (index is
/// the rule handle); observe() is called once per rule per window.
class AlertEngine {
 public:
  explicit AlertEngine(AlertPolicy policy = {});

  /// Registers a rule; returns its handle.
  std::size_t add_rule(AlertLabels labels);

  /// Folds one window's verdict for rule @p rule at window-close @p now.
  /// Returns true when the rule's state changed this window.
  bool observe(std::size_t rule, sim::Time now, const Verdict& verdict);

  [[nodiscard]] std::size_t rules() const { return cells_.size(); }
  [[nodiscard]] const Alert& alert(std::size_t rule) const;

  /// How many alerts are in kFiring now.
  [[nodiscard]] std::size_t firing_count() const;
  /// Alerts that fired at least once (firing or resolved), episode order.
  [[nodiscard]] std::vector<const Alert*> fired() const;
  /// All rule cells (inactive ones included).
  [[nodiscard]] const std::vector<Alert>& cells() const { return cells_; }

 private:
  AlertPolicy policy_;
  std::vector<Alert> cells_;
  std::vector<std::uint32_t> streaks_;      // consecutive breaches/clears
  std::vector<std::size_t> fired_order_;    // cells that reached kFiring
};

}  // namespace srp::health

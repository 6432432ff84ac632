// The discrete-event simulator driving every Sirpent experiment.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace srp::sim {

class Simulator;

/// Base of a component whose state advances with the clock alone, with no
/// event at the instants where it changes (net::TxPort starts and ends
/// transmissions this way).  The simulator keeps that state exact between
/// runs: when run() drains the queue it first advances the clock to the
/// latest lazy end still ahead, where the event it replaces would have
/// left it, and every run*() ends by calling catch_up() on each live
/// component.
class ClockDriven {
 public:
  explicit ClockDriven(Simulator& sim);
  virtual ~ClockDriven();
  ClockDriven(const ClockDriven&) = delete;
  ClockDriven& operator=(const ClockDriven&) = delete;

  /// End of the activity in progress that no event marks; 0 if none.
  [[nodiscard]] virtual Time lazy_end() const = 0;
  /// Brings the component's state up to now().
  virtual void catch_up() = 0;

 private:
  friend class Simulator;
  Simulator* sim_;         ///< null once the simulator is gone
  std::size_t index_ = 0;  ///< slot in the simulator's registry
};

/// Single-threaded discrete-event simulator.
///
/// All network components hold a reference to one Simulator and schedule
/// work on it; the run*() loop advances the clock to each event in time
/// order.  Determinism: identical schedules (and identical RNG seeds in the
/// components) replay identically.
///
/// Single-threaded by construction: srp-lint's determinism pass rejects
/// any thread creation under src/, so no component state is locked.
class Simulator {
 public:
  Simulator() = default;
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedules @p cb at absolute time @p when (>= now()).
  EventId at(Time when, EventQueue::Callback cb);

  /// Schedules @p cb @p delay after now().
  EventId after(Time delay, EventQueue::Callback cb) {
    return at(now_ + delay, std::move(cb));
  }

  /// Cancels a pending event (no-op if it already ran).
  void cancel(EventId id) { events_.cancel(id); }

  /// Runs until the event queue drains, then advances the clock to the
  /// latest ClockDriven::lazy_end() still ahead.  Returns the number of
  /// events run.
  std::uint64_t run();

  /// Runs events with time <= @p deadline, then sets the clock to
  /// @p deadline.  Returns the number of events run.
  std::uint64_t run_until(Time deadline);

  /// Runs at most @p max_events events (for watchdog-style tests).
  std::uint64_t run_steps(std::uint64_t max_events);

  /// Number of events still pending.
  [[nodiscard]] std::size_t pending_events() const { return events_.size(); }

 private:
  friend class ClockDriven;

  bool step();
  /// Ends a run: brings every ClockDriven component up to now().
  void finish_run();

  EventQueue events_;
  Time now_ = 0;
  std::vector<ClockDriven*> clock_driven_;
};

}  // namespace srp::sim

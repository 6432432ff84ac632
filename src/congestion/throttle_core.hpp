// Pure transition core for one source-throttle flow entry.
//
// The runtime driver (congestion/throttle.hpp) and the bounded model
// checker (src/mc) share this step function, so the state machine the
// checker verifies is — by construction — the one the shipping code runs
// (DESIGN.md §10).  The core is side-effect free: it never touches the
// simulator, allocates, or reads ambient state; time is a parameter.
//
// Lifecycle of one (router, port) entry:
//
//   kAbsent --report--> kActive --tick(ttl elapsed)-----------> kExpired
//                        |  ^---report (refresh)                   ^
//                        +--tick (quiet): rate *= ramp_factor -----+
//                                          (erased at the ceiling)
//
// kExpired is sticky: the driver erases the entry from its table when a
// step reports `actions.erase`, which is exactly the transition into
// kExpired.  "Every throttle reaches expired" is a checked invariant:
// from any reachable state, a ticks-only closure must erase the entry.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/time.hpp"

namespace srp::cc {

/// Source-throttle settings: the transition core's parameters, and the
/// runtime driver's tick period (ramp_interval).
struct ThrottleConfig {
  sim::Time flow_ttl = 50 * sim::kMillisecond;
  double ramp_factor = 1.4;
  sim::Time ramp_interval = 2 * sim::kMillisecond;
  /// Rates at or above this are treated as "unlimited" and dropped.
  double rate_ceiling_bps = 1e12;
};

enum class ThrottlePhase : std::uint8_t { kAbsent, kActive, kExpired };

/// One flow entry.  kAbsent is the before-first-report (and after-erase)
/// state; the driver's table simply has no entry then.
struct ThrottleState {
  ThrottlePhase phase = ThrottlePhase::kAbsent;
  double rate_bps = 0.0;
  sim::Time next_free = 0;
  sim::Time expires = 0;
  sim::Time last_report = 0;
};

struct ThrottleEvent {
  enum class Type : std::uint8_t {
    kReport,   ///< a rate report arrived for this flow
    kTick,     ///< the periodic ramp/expiry sweep visited the entry
    kAcquire,  ///< the transport books a packet toward this flow
  };
  Type type = Type::kTick;
  double rate_bps = 0.0;    ///< kReport: the granted rate
  std::size_t bytes = 0;    ///< kAcquire: packet size on the wire
};

struct ThrottleActions {
  bool erase = false;     ///< entry leaves the table (reached kExpired)
  bool delayed = false;   ///< kAcquire: the send was pushed past now
  sim::Time send_at = 0;  ///< kAcquire: granted transmission time
};

/// Applies @p event to @p state at time @p now.  Pure: equal inputs give
/// equal outputs.  @p actions is always fully overwritten.
ThrottleState throttle_step(const ThrottleConfig& config,
                            ThrottleState state, const ThrottleEvent& event,
                            sim::Time now, ThrottleActions* actions);

/// Signature shared by the real core and the deliberately broken variants
/// in mc::mutants (model-checker self-test).
using ThrottleStepFn = ThrottleState (*)(const ThrottleConfig&,
                                         ThrottleState,
                                         const ThrottleEvent&, sim::Time,
                                         ThrottleActions*);

}  // namespace srp::cc

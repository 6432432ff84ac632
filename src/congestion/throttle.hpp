// Source-host end of rate-based congestion control.
//
// Rate reports that propagate all the way back reach the sending hosts
// ("the rate-limiting information builds up back from the point of
// congestion to the sources").  A SourceThrottle receives them via the
// host's control endpoint and paces the host's transmissions toward each
// congested downstream queue; rate-based transports (VMTP-style) consult
// it before scheduling each packet.
//
// The per-flow state machine itself lives in congestion/throttle_core.hpp
// — a pure step function shared with the bounded model checker (src/mc)
// so the verified model and the shipping code cannot drift.  This class
// is the thin driver: it owns the flow table, the control-packet plumbing
// and the tick timer, and routes every transition through the core.
#pragma once

#include <cstdint>
#include <map>
#include <span>

#include "congestion/messages.hpp"
#include "congestion/throttle_core.hpp"
#include "sim/simulator.hpp"
#include "viper/host.hpp"

namespace srp::cc {

class SourceThrottle {
 public:
  struct Stats {
    std::uint64_t reports_received = 0;
    std::uint64_t sends_delayed = 0;
  };

  SourceThrottle(sim::Simulator& sim, viper::ViperHost& host,
                 ThrottleConfig config = {});

  /// Books a packet of @p bytes toward @p key and returns the earliest
  /// time it may be transmitted (== now when unlimited).
  sim::Time acquire(const FlowKey& key, std::size_t bytes);

  /// Currently granted rate toward @p key; +inf when unlimited.
  [[nodiscard]] double rate(const FlowKey& key) const;

  /// Applies a rate report directly (the control-packet path calls this;
  /// exposed for tests and for transports with their own signalling).
  void apply_report(const RateReport& report);

  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Number of flows currently throttled (soft state not yet expired).
  [[nodiscard]] std::size_t active_flows() const { return states_.size(); }

  /// Model-checker regression hook (tests/mc_regress): replaces the
  /// transition core with a deliberately broken variant from mc::mutants
  /// so counterexamples found by the explorer replay in the real sim.
  void set_step_for_test(ThrottleStepFn step) { step_ = step; }

 private:
  void on_control(std::span<const std::uint8_t> payload);
  void tick();

  sim::Simulator& sim_;
  ThrottleConfig config_;
  ThrottleStepFn step_ = &throttle_step;
  std::map<FlowKey, ThrottleState> states_;
  Stats stats_;
};

}  // namespace srp::cc

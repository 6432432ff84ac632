// The flow accounting plane: one FlowObserver per named component.
//
// A FlowPlane is the obs::FlowSink a fabric hands to Observer::flow.  The
// plane itself records nothing — components call scoped(name) once at
// set_observer() time and publish into their own FlowObserver, so the
// per-packet path touches only per-component state.
// A router and its congestion controller share one name and therefore one
// observer, which is how the controller reads feeder aggregates straight
// from the router's forward stream.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "flow/observer.hpp"
#include "obs/flow_sink.hpp"

namespace srp::flow {

class FlowPlane final : public obs::FlowSink {
 public:
  /// @p registry / @p recorder may be null; they are handed to every
  /// observer the plane creates.
  explicit FlowPlane(FlowConfig config = {},
                     stats::Registry* registry = nullptr,
                     obs::FlightRecorder* recorder = nullptr);

  /// Finds or creates the observer for @p component.  References stay
  /// valid for the plane's lifetime (observers are never destroyed).
  FlowSink& scoped(std::string_view component) override;

  // The plane-level sink is inert: components always publish through
  // scoped().  Accepting (and ignoring) direct calls keeps a mis-wired
  // component harmless instead of undefined.
  void on_forward(const obs::FlowSample&) override {}
  void on_charge(std::uint32_t, std::uint64_t) override {}

  /// Every observer, name-sorted.
  [[nodiscard]] std::vector<const FlowObserver*> observers() const;

  /// The observer for @p component, or nullptr.
  [[nodiscard]] const FlowObserver* observer(std::string_view component) const;

  /// Per-account charges summed across every observer — the plane-wide
  /// mirror of tokens::Ledger::all().
  [[nodiscard]] std::map<std::uint32_t, AccountCharge> account_rollup() const;

  [[nodiscard]] const FlowConfig& config() const { return config_; }

 private:
  const FlowConfig config_;
  stats::Registry* registry_;
  obs::FlightRecorder* recorder_;
  std::map<std::string, std::unique_ptr<FlowObserver>, std::less<>>
      observers_;
};

}  // namespace srp::flow

// The flow accounting plane: one FlowObserver per named component.
//
// A FlowPlane is what a fabric hands to Observer::flow.  The plane itself
// records nothing — each router calls scoped(name) once at set_observer()
// time and publishes into its own FlowObserver, so the per-packet path
// touches only per-component state.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "flow/observer.hpp"

namespace srp::flow {

class FlowPlane {
 public:
  /// @p registry / @p recorder may be null; they are handed to every
  /// observer the plane creates.
  explicit FlowPlane(FlowConfig config = {},
                     stats::Registry* registry = nullptr,
                     obs::FlightRecorder* recorder = nullptr);

  /// Finds or creates the observer for @p component; components sharing a
  /// name share one observer.  References stay valid for the plane's
  /// lifetime (observers are never destroyed).
  FlowObserver& scoped(std::string_view component);

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

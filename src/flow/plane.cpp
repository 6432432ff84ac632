#include "flow/plane.hpp"

namespace srp::flow {

FlowPlane::FlowPlane(FlowConfig config, stats::Registry* registry,
                     obs::FlightRecorder* recorder)
    : config_(config), registry_(registry), recorder_(recorder) {}

FlowObserver& FlowPlane::scoped(std::string_view component) {
  const auto it = observers_.find(component);
  if (it != observers_.end()) return *it->second;
  auto observer = std::make_unique<FlowObserver>(
      std::string(component), config_, registry_, recorder_);
  return *observers_.emplace(std::string(component), std::move(observer))
              .first->second;
}

std::vector<const FlowObserver*> FlowPlane::observers() const {
  std::vector<const FlowObserver*> out;
  out.reserve(observers_.size());
  for (const auto& [name, observer] : observers_) {
    out.push_back(observer.get());
  }
  return out;  // std::map iteration is already name-sorted
}

const FlowObserver* FlowPlane::observer(std::string_view component) const {
  const auto it = observers_.find(component);
  return it != observers_.end() ? it->second.get() : nullptr;
}

std::map<std::uint32_t, AccountCharge> FlowPlane::account_rollup() const {
  std::map<std::uint32_t, AccountCharge> rollup;
  for (const auto* observer : observers()) {
    for (const auto& [account, charge] : observer->charges()) {
      auto& total = rollup[account];
      total.packets += charge.packets;
      total.bytes += charge.bytes;
    }
  }
  return rollup;
}

}  // namespace srp::flow

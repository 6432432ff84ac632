#include "congestion/throttle_core.hpp"

#include <algorithm>

namespace srp::cc {

ThrottleState throttle_step(const ThrottleConfig& config,
                            ThrottleState state, const ThrottleEvent& event,
                            sim::Time now, ThrottleActions* actions) {
  *actions = ThrottleActions{};
  switch (event.type) {
    case ThrottleEvent::Type::kReport:
      // A report (re)activates the flow; pacing debt (next_free) carries
      // over so a rate refresh never releases a burst.
      state.phase = ThrottlePhase::kActive;
      state.rate_bps = event.rate_bps;
      state.expires = now + config.flow_ttl;
      state.last_report = now;
      state.next_free = std::max(state.next_free, now);
      return state;

    case ThrottleEvent::Type::kTick:
      if (state.phase != ThrottlePhase::kActive) return state;
      if (now >= state.expires) {
        // Soft state: no refresh within the TTL means the congestion is
        // gone; the flow returns to unlimited.
        state.phase = ThrottlePhase::kExpired;
        actions->erase = true;
      } else if (now - state.last_report >= config.ramp_interval) {
        // Quiet interval: probe upward until a new report or the ceiling.
        state.rate_bps *= config.ramp_factor;
        if (state.rate_bps >= config.rate_ceiling_bps) {
          state.phase = ThrottlePhase::kExpired;
          actions->erase = true;
        }
      }
      return state;

    case ThrottleEvent::Type::kAcquire: {
      if (state.phase != ThrottlePhase::kActive) {
        // Unlimited: send immediately, book nothing.
        actions->send_at = now;
        return state;
      }
      const sim::Time start = std::max(now, state.next_free);
      state.next_free =
          start + sim::from_seconds(static_cast<double>(event.bytes) * 8.0 /
                                    std::max(state.rate_bps, 1.0));
      actions->delayed = start > now;
      actions->send_at = start;
      return state;
    }
  }
  return state;
}

}  // namespace srp::cc

#include "health/alerts.hpp"

#include <algorithm>

#include "check/contract.hpp"

namespace srp::health {

std::string_view to_string(AlertState state) {
  switch (state) {
    case AlertState::kInactive: return "inactive";
    case AlertState::kPending: return "pending";
    case AlertState::kFiring: return "firing";
    case AlertState::kResolved: return "resolved";
  }
  return "?";
}

AlertEngine::AlertEngine(AlertPolicy policy) : policy_(policy) {
  SIRPENT_EXPECTS(policy_.for_windows >= 1);
  SIRPENT_EXPECTS(policy_.clear_windows >= 1);
}

std::size_t AlertEngine::add_rule(AlertLabels labels) {
  Alert cell;
  cell.labels = std::move(labels);
  cells_.push_back(std::move(cell));
  streaks_.push_back(0);
  return cells_.size() - 1;
}

const Alert& AlertEngine::alert(std::size_t rule) const {
  SIRPENT_EXPECTS(rule < cells_.size());
  return cells_[rule];
}

bool AlertEngine::observe(std::size_t rule, sim::Time now,
                          const Verdict& verdict) {
  SIRPENT_EXPECTS(rule < cells_.size());
  Alert& cell = cells_[rule];
  auto& streak = streaks_[rule];

  const auto transition = [&](AlertState next) {
    cell.state = next;
    cell.events.push_back({next, now, verdict.value, verdict.score});
  };

  if (verdict.breach) {
    cell.breach_windows += 1;
    cell.peak_score = std::max(cell.peak_score, verdict.score);
  }

  switch (cell.state) {
    case AlertState::kInactive:
    case AlertState::kResolved:
      if (verdict.breach) {
        // A resolved episode archives itself lazily: a fresh breach
        // restarts the arc in the same cell, keeping the event log.
        cell.pending_since = now;
        if (policy_.for_windows == 1) {
          streak = 0;  // reuse as the clear streak while firing
          cell.firing_since = now;
          fired_order_.push_back(rule);
          transition(AlertState::kFiring);
        } else {
          streak = 1;
          transition(AlertState::kPending);
        }
        return true;
      }
      return false;
    case AlertState::kPending:
      if (verdict.breach) {
        streak += 1;
        if (streak >= policy_.for_windows) {
          streak = 0;  // reuse as the clear streak while firing
          cell.firing_since = now;
          fired_order_.push_back(rule);
          transition(AlertState::kFiring);
          return true;
        }
        return false;
      }
      // A pending alert that stops breaching never fired: fold back to
      // inactive silently (no paging noise for sub-debounce blips).
      streak = 0;
      transition(AlertState::kInactive);
      return true;
    case AlertState::kFiring:
      if (verdict.breach) {
        streak = 0;  // reset the clear streak
        return false;
      }
      streak += 1;
      if (streak >= policy_.clear_windows) {
        streak = 0;
        cell.resolved_at = now;
        transition(AlertState::kResolved);
        return true;
      }
      return false;
  }
  return false;
}

std::size_t AlertEngine::firing_count() const {
  return static_cast<std::size_t>(std::ranges::count_if(
      cells_, [](const Alert& c) { return c.state == AlertState::kFiring; }));
}

std::vector<const Alert*> AlertEngine::fired() const {
  std::vector<const Alert*> out;
  out.reserve(fired_order_.size());
  for (const auto rule : fired_order_) out.push_back(&cells_[rule]);
  return out;
}

}  // namespace srp::health

#include "sim/simulator.hpp"

#include <algorithm>
#include <stdexcept>

#include "check/contract.hpp"

namespace srp::sim {

ClockDriven::ClockDriven(Simulator& sim)
    : sim_(&sim), index_(sim.clock_driven_.size()) {
  sim.clock_driven_.push_back(this);
}

ClockDriven::~ClockDriven() {
  if (sim_ == nullptr) return;
  auto& all = sim_->clock_driven_;
  all[index_] = all.back();
  all[index_]->index_ = index_;
  all.pop_back();
}

Simulator::~Simulator() {
  for (ClockDriven* c : clock_driven_) c->sim_ = nullptr;
}

EventId Simulator::at(Time when, EventQueue::Callback cb) {
  if (when < now_) {
    throw std::invalid_argument("Simulator::at: scheduling into the past");
  }
  return events_.schedule(when, std::move(cb));
}

bool Simulator::step() {
  if (events_.empty()) {
    // The last event of the drained schedule is the latest lazy end.
    for (const ClockDriven* c : clock_driven_) {
      now_ = std::max(now_, c->lazy_end());
    }
    return false;
  }
  // pop() hands the callable over by value, out of its slot: the callback
  // may schedule events that grow (and move) the queue's slot vector.
  auto [when, cb] = events_.pop();
  SIRPENT_INVARIANT(when >= now_);  // event queue returned a past event
  now_ = when;
  cb();
  return true;
}

void Simulator::finish_run() {
  // Indexed: a catch_up() callback may register a new component.
  for (std::size_t i = 0; i < clock_driven_.size(); ++i) {
    clock_driven_[i]->catch_up();
  }
}

std::uint64_t Simulator::run() {
  std::uint64_t n = 0;
  while (step()) ++n;
  finish_run();
  return n;
}

std::uint64_t Simulator::run_until(Time deadline) {
  std::uint64_t n = 0;
  while (!events_.empty() && events_.next_time() <= deadline) {
    step();
    ++n;
  }
  if (now_ < deadline) now_ = deadline;
  finish_run();
  return n;
}

std::uint64_t Simulator::run_steps(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events && step()) ++n;
  finish_run();
  return n;
}

}  // namespace srp::sim

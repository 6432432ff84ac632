#include "sim/simulator.hpp"

#include <stdexcept>

#include "check/contract.hpp"

namespace srp::sim {

EventId Simulator::at(Time when, EventQueue::Callback cb) {
  // Scheduling from a worker thread would race the event queue and break
  // replay determinism; offloaded work reports back via its own monitor.
  SIRPENT_EXPECTS(std::this_thread::get_id() == owner_);
  if (when < now_) {
    throw std::invalid_argument("Simulator::at: scheduling into the past");
  }
  return events_.schedule(when, std::move(cb));
}

bool Simulator::step() {
  SIRPENT_EXPECTS(std::this_thread::get_id() == owner_);
  if (events_.empty()) return false;
  // pop() hands the callable over by value, out of its slot: the callback
  // may schedule events that grow (and move) the queue's slot vector.
  auto [when, cb] = events_.pop();
  SIRPENT_INVARIANT(when >= now_);  // event queue returned a past event
  now_ = when;
  cb();
  return true;
}

std::uint64_t Simulator::run() {
  std::uint64_t n = 0;
  while (step()) ++n;
  return n;
}

std::uint64_t Simulator::run_until(Time deadline) {
  std::uint64_t n = 0;
  while (!events_.empty() && events_.next_time() <= deadline) {
    step();
    ++n;
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

std::uint64_t Simulator::run_steps(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

}  // namespace srp::sim

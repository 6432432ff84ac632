#include "sim/event_queue.hpp"

#include <algorithm>
#include <stdexcept>

#include "check/contract.hpp"

namespace srp::sim {

EventId EventQueue::schedule(Time when, Callback cb) {
  SIRPENT_EXPECTS(static_cast<bool>(cb));  // an empty callback cannot run
  // Insertion seqs occupy the id bits above the slot index.
  constexpr EventId kMaxSeq = (EventId{1} << (64 - kSlotBits)) - 1;
  if (next_seq_ > kMaxSeq) {
    throw std::overflow_error("EventQueue: insertion sequence exhausted");
  }
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    if (slots_.size() > kSlotMask) {
      throw std::length_error("EventQueue: too many pending events");
    }
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  const EventId id = (next_seq_++ << kSlotBits) | slot;
  Slot& s = slots_[slot];
  s.id = id;
  s.cb = std::move(cb);
  ++live_;
  heap_.emplace_back();
  sift_up(heap_.size() - 1, Node{when, id});
  return id;
}

void EventQueue::cancel(EventId id) {
  const std::size_t slot = id & kSlotMask;
  if (id == 0 || slot >= slots_.size() || slots_[slot].id != id) return;
  // Free the slot before the captures die: a capture's destructor may
  // schedule, and must not land in (and then lose) this slot.
  Callback doomed = std::move(slots_[slot].cb);
  slots_[slot].id = 0;
  free_.push_back(static_cast<std::uint32_t>(slot));
  --live_;
}

void EventQueue::sift_up(std::size_t i, Node node) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(node, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = node;
}

void EventQueue::pop_heap_top() const {
  const Node last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + 4, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], last)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

void EventQueue::drop_cancelled() const {
  if (live_ == 0) {
    heap_.clear();
    return;
  }
  while (!is_live(heap_.front())) pop_heap_top();
}

Time EventQueue::next_time() const {
  drop_cancelled();
  return heap_.empty() ? kTimeInfinity : heap_.front().when;
}

std::pair<Time, EventQueue::Callback> EventQueue::pop() {
  drop_cancelled();
  SIRPENT_EXPECTS(!heap_.empty());  // pop() on empty EventQueue
  const Node top = heap_.front();
  pop_heap_top();
  const std::size_t slot = top.id & kSlotMask;
  std::pair<Time, Callback> out{top.when, std::move(slots_[slot].cb)};
  slots_[slot].id = 0;
  free_.push_back(static_cast<std::uint32_t>(slot));
  --live_;
  return out;
}

}  // namespace srp::sim

// Same-instant arrival coalescing for ViperRouter::set_batching.
//
// Batch boundaries must align with event boundaries to keep the sim
// byte-identical (DESIGN.md §11): a router's on_arrival pushes each
// arrival into an ArrivalBurst, and the first push of a quiet period
// schedules one zero-delay drain event.  Because same-time events fire in
// insertion order, the drain runs after every arrival delivered at this
// instant and before anything of a later instant — so a burst is exactly
// "the packets that arrived at this sim time", in arrival order.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "check/analysis.hpp"
#include "net/node.hpp"

namespace srp::net {

class ArrivalBurst {
 public:
  /// Appends an arrival.  Returns true when the caller must schedule a
  /// drain (first push since the last reset()).
  SRP_HOT_PATH bool push(const Arrival& arrival) {
    // Amortized: the vector keeps its capacity across reset(), so pushes
    // allocate only while the burst high-water mark is still growing.
    SRP_ALLOC_OK(items_.push_back(arrival));
    const bool need_drain = !scheduled_;
    scheduled_ = true;
    return need_drain;
  }

  /// Removes and returns (a view of) the next at-most-@p max_count items.
  /// The view stays valid until the next push() or reset().
  [[nodiscard]] std::span<const Arrival> take(std::size_t max_count) {
    const std::size_t n = std::min(max_count, items_.size() - next_);
    const std::span<const Arrival> burst{items_.data() + next_, n};
    next_ += n;
    return burst;
  }

  [[nodiscard]] bool empty() const { return next_ >= items_.size(); }
  [[nodiscard]] std::size_t pending() const { return items_.size() - next_; }

  /// Clears the burst (keeping capacity) and re-arms drain scheduling.
  /// Also drops the packet references the queued arrivals held.
  void reset() {
    items_.clear();
    next_ = 0;
    scheduled_ = false;
  }

 private:
  std::vector<Arrival> items_;
  std::size_t next_ = 0;
  bool scheduled_ = false;
};

}  // namespace srp::net

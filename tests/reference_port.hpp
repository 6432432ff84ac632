// Eager transmitter state machine, kept as a test oracle for net::TxPort.
//
// This is the output port as it ran before transmissions were committed
// when decided and completed lazily: a packet whose cut-through bound lies
// in the future waits on the queue behind a wakeup event, every
// transmission is started by an event at its start instant and finished by
// a completion event at its end instant, and the peer's arrival is
// scheduled when the transmission starts.  Three events per transmission
// make every accessor trivially exact at every sim time, which is what
// makes it a meaningful oracle: the differential test
// (port_oracle_test.cpp) drives it and net::TxPort with the same operation
// sequence and holds every arrival and every accessor of the lazy port
// equal to it.  Fault hook, overflow handler and observability are left
// out; the wait histogram is mirrored by a plain sum and count.
//
// One deliberate difference from the port as it shipped: when a preemptor
// aborts the transmission and is then dropped itself (drop-if-blocked, or
// no buffer left), the port decides its queue at once.  The shipped port
// returned without a decision and left the waiting packets idle until the
// next enqueue — or until a wakeup left over from an earlier decision
// happened to fire, which no event-free port can reproduce.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <iterator>
#include <limits>
#include <utility>

#include "net/node.hpp"
#include "net/port.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace srp::test {

class ReferencePort {
 public:
  using Stats = net::TxPort::Stats;
  using Queued = net::TxPort::Queued;

  ReferencePort(sim::Simulator& sim, net::LinkConfig config)
      : sim_(sim), config_(config) {}
  ReferencePort(const ReferencePort&) = delete;
  ReferencePort& operator=(const ReferencePort&) = delete;

  void connect(net::Node* peer, int peer_in_port) {
    peer_ = peer;
    peer_in_port_ = peer_in_port;
  }

  void set_buffer_limit(std::size_t bytes) { buffer_limit_ = bytes; }

  void enqueue(net::PacketPtr packet, net::TxMeta meta,
               sim::Time earliest_start = 0) {
    ++stats_.enqueued;
    if (!up_) {
      ++stats_.dropped_down;
      return;
    }
    Queued item{std::move(packet), meta, sim_.now(), earliest_start};
    if (transmitting_ && meta.preempting && !current_.meta.preempting) {
      abort_transmission();
    }
    const bool blocked = transmitting_ || !queue_.empty();
    if (blocked && meta.drop_if_blocked) {
      ++stats_.dropped_blocked;
      if (!transmitting_) try_start();
      return;
    }
    if (queue_bytes_ + item.packet->size() > buffer_limit_) {
      ++stats_.dropped_full;
      if (!transmitting_) try_start();
      return;
    }
    queue_bytes_ += item.packet->size();
    auto it = queue_.end();
    while (it != queue_.begin() && std::prev(it)->meta.rank < item.meta.rank) {
      --it;
    }
    queue_.insert(it, std::move(item));
    notify_queue_change();
    if (!transmitting_) try_start();
  }

  void set_up(bool up) {
    if (up == up_) return;
    up_ = up;
    if (!up_) {
      if (transmitting_) abort_transmission();
      stats_.dropped_down += queue_.size();
      queue_.clear();
      queue_bytes_ = 0;
      notify_queue_change();
      if (wakeup_ != 0) {
        sim_.cancel(wakeup_);
        wakeup_ = 0;
      }
    } else {
      try_start();
    }
  }

  [[nodiscard]] bool busy() const { return transmitting_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const std::deque<Queued>& queue() const { return queue_; }
  [[nodiscard]] std::size_t queue_bytes() const { return queue_bytes_; }
  [[nodiscard]] std::size_t queue_packets() const { return queue_.size(); }

  /// Sum and count of the queue waits recorded at each start — what
  /// TxPort's `port.<name>.queue_wait_ps` histogram accumulates.
  [[nodiscard]] std::uint64_t wait_sum() const { return wait_sum_; }
  [[nodiscard]] std::uint64_t wait_count() const { return wait_count_; }

  std::function<void(sim::Time, std::size_t)> on_queue_change;

 private:
  void notify_queue_change() {
    if (on_queue_change) on_queue_change(sim_.now(), queue_.size());
  }

  void try_start() {
    if (transmitting_ || queue_.empty() || !up_) return;
    const sim::Time start =
        std::max(sim_.now(), queue_.front().earliest_start);
    if (start > sim_.now()) {
      if (wakeup_ != 0) sim_.cancel(wakeup_);
      wakeup_ = sim_.at(start, [this] {
        wakeup_ = 0;
        try_start();
      });
      return;
    }
    Queued item = std::move(queue_.front());
    queue_.pop_front();
    queue_bytes_ -= item.packet->size();
    start_transmission(std::move(item), start);
    notify_queue_change();
  }

  void start_transmission(Queued item, sim::Time start) {
    transmitting_ = true;
    current_ = std::move(item);
    current_start_ = start;
    current_end_ =
        start + sim::byte_time(current_.packet->size(), config_.rate_bps);
    completion_event_ =
        sim_.at(current_end_, [this] { complete_transmission(); });
    wait_sum_ += static_cast<std::uint64_t>(start - current_.enqueue_time);
    ++wait_count_;
    if (peer_ != nullptr) {
      net::Arrival arrival{current_.packet, peer_in_port_,
                           start + config_.prop_delay,
                           current_end_ + config_.prop_delay,
                           config_.rate_bps};
      sim_.at(arrival.head,
              [peer = peer_, arrival] { peer->on_arrival(arrival); });
    }
  }

  void complete_transmission() {
    ++stats_.sent;
    stats_.bytes_sent += current_.packet->size();
    stats_.busy_time += current_end_ - current_start_;
    completion_event_ = 0;
    transmitting_ = false;
    current_ = Queued{};
    try_start();
  }

  void abort_transmission() {
    ++stats_.preempt_aborts;
    stats_.busy_time += sim_.now() - current_start_;
    sim_.cancel(completion_event_);
    completion_event_ = 0;
    current_.packet->truncated = true;
    transmitting_ = false;
    current_ = Queued{};
  }

  sim::Simulator& sim_;
  net::LinkConfig config_;
  net::Node* peer_ = nullptr;
  int peer_in_port_ = 0;
  bool up_ = true;

  std::deque<Queued> queue_;
  std::size_t queue_bytes_ = 0;
  std::size_t buffer_limit_ = std::numeric_limits<std::size_t>::max();

  bool transmitting_ = false;
  Queued current_;
  sim::Time current_start_ = 0;
  sim::Time current_end_ = 0;
  sim::EventId completion_event_ = 0;
  sim::EventId wakeup_ = 0;

  Stats stats_;
  std::uint64_t wait_sum_ = 0;
  std::uint64_t wait_count_ = 0;
};

}  // namespace srp::test

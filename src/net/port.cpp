#include "net/port.hpp"

#include <utility>

#include "check/analysis.hpp"
#include "check/contract.hpp"

namespace srp::net {

FaultHook drop_when(std::function<bool(const Packet&)> predicate) {
  return [pred = std::move(predicate)](PacketPtr& packet, TxMeta&,
                                       sim::Time&) {
    return pred(*packet) ? FaultVerdict::kDrop : FaultVerdict::kPass;
  };
}

TxPort::TxPort(sim::Simulator& sim, std::string name, LinkConfig config)
    : sim_(sim), name_(std::move(name)), config_(config) {}

void TxPort::connect(Node* peer, int peer_in_port) {
  peer_ = peer;
  peer_in_port_ = peer_in_port;
}

void TxPort::set_buffer_limit(std::size_t bytes) { buffer_limit_ = bytes; }

void TxPort::set_observer(const obs::Observer& observer) {
  if (observer.registry != nullptr) {
    const auto instance = stats::metric_component(name_);
    obs_queue_depth_ =
        &observer.registry->gauge("port." + instance + ".queue_depth");
    obs_queue_wait_ =
        &observer.registry->histogram("port." + instance + ".queue_wait_ps");
  } else {
    obs_queue_depth_ = nullptr;
    obs_queue_wait_ = nullptr;
  }
  obs_recorder_ = observer.recorder;
}

void TxPort::notify_queue_change() {
  if (on_queue_change) on_queue_change(sim_.now(), queue_.size());
  if (obs_queue_depth_ != nullptr) {
    obs_queue_depth_->set(static_cast<std::int64_t>(queue_.size()));
  }
}

SRP_HOT_PATH void TxPort::enqueue(PacketPtr packet, TxMeta meta,
                                  sim::Time earliest_start) {
  if (fault_hook) {
    switch (fault_hook(packet, meta, earliest_start)) {
      case FaultVerdict::kPass:
        break;
      case FaultVerdict::kDrop:
        ++stats_.enqueued;
        ++stats_.dropped_injected;
        return;
      case FaultVerdict::kConsume:
        // The hook re-injects (or drops and counts) the packet itself; it
        // is accounted when it re-enters through enqueue_unfiltered().
        return;
    }
  }
  enqueue_unfiltered(std::move(packet), meta, earliest_start);
}

SRP_HOT_PATH void TxPort::enqueue_burst(std::span<BurstItem> burst) {
  for (BurstItem& item : burst) {
    enqueue(std::move(item.packet), item.meta, item.earliest_start);
  }
}

SRP_HOT_PATH void TxPort::enqueue_unfiltered(PacketPtr packet, TxMeta meta,
                                             sim::Time earliest_start) {
  ++stats_.enqueued;
  if (!up_) {
    ++stats_.dropped_down;
    return;
  }

  Queued item{std::move(packet), meta, sim_.now(), earliest_start};

  if (transmitting_ && meta.preempting && !current_.meta.preempting) {
    // Paper §2.1: a preemptive-priority packet aborts a non-preemptive
    // transmission in progress; the victim arrives truncated at the peer.
    abort_transmission();
  }

  // "Blocked" per the paper: the packet cannot go straight onto the wire —
  // a transmission is in progress or others are already waiting.
  const bool blocked = transmitting_ || !queue_.empty();
  if (blocked && meta.drop_if_blocked) {
    ++stats_.dropped_blocked;
    return;
  }
  if (queue_bytes_ + item.packet->size() > buffer_limit_) {
    if (overflow_handler && overflow_handler(item.packet, item.meta)) {
      ++stats_.deflected;
      return;
    }
    ++stats_.dropped_full;
    return;
  }
  if (on_enqueue) on_enqueue(*item.packet);
  queue_bytes_ += item.packet->size();
  insert_by_rank(std::move(item));
  notify_queue_change();
  // If idle, the packet still waits for its cut-through bound via the
  // queue head; try_start() decides when it may actually go.
  if (!transmitting_) try_start(sim_.now());
}

SRP_HOT_PATH void TxPort::insert_by_rank(Queued item) {
  // Descending rank, FIFO within a rank: scan from the back.
  auto it = queue_.end();
  while (it != queue_.begin() && std::prev(it)->meta.rank < item.meta.rank) {
    --it;
  }
  // The output queue is the paper's "output buffer space": buffering a
  // blocked packet is the deliberate allocation on this path.  Append
  // with push_back: deque::insert at begin() (== end() when empty) takes
  // push_front, allocating a front chunk the next pop_front frees.
  if (it == queue_.end()) {
    SRP_ALLOC_OK(queue_.push_back(std::move(item)));
  } else {
    SRP_ALLOC_OK(queue_.insert(it, std::move(item)));
  }
}

SRP_HOT_PATH void TxPort::try_start(sim::Time not_before) {
  if (transmitting_ || queue_.empty() || !up_) return;

  Queued& front = queue_.front();
  const sim::Time start =
      std::max({sim_.now(), not_before, front.earliest_start});
  if (start > sim_.now()) {
    if (wakeup_event_ != 0) sim_.cancel(wakeup_event_);
    wakeup_event_ = sim_.at(start, [this] {
      wakeup_event_ = 0;
      try_start(sim_.now());
    });
    return;
  }

  Queued item = std::move(queue_.front());
  queue_.pop_front();
  SIRPENT_INVARIANT(queue_bytes_ >= item.packet->size());
  queue_bytes_ -= item.packet->size();
  // Start first, notify after: observers of the queue change must see the
  // port already busy (time-weighted "in system" statistics depend on it).
  start_transmission(std::move(item), start);
  notify_queue_change();
}

SRP_HOT_PATH void TxPort::start_transmission(Queued item, sim::Time start) {
  SIRPENT_EXPECTS(!transmitting_);
  SIRPENT_EXPECTS(start >= item.earliest_start);
  transmitting_ = true;
  current_ = std::move(item);
  current_start_ = start;
  current_end_ = start + tx_time(current_.packet->size());

  completion_event_ =
      sim_.at(current_end_, [this] { complete_transmission(); });

  const sim::Time queue_wait = start - current_.enqueue_time;
  if (obs_queue_wait_ != nullptr) {
    obs_queue_wait_->record(static_cast<std::uint64_t>(queue_wait));
  }
  if (obs_recorder_ != nullptr && current_.packet->trace_id != 0) {
    obs::SpanRecord span;
    span.trace_id = current_.packet->trace_id;
    span.hop = current_.packet->hops;
    span.kind = obs::SpanKind::kTx;
    span.out_port = static_cast<std::uint16_t>(peer_in_port_);
    span.start = current_.enqueue_time;
    span.decision = start;
    span.end = current_end_;
    span.queue_delay = queue_wait;
    span.set_component(name_);
    obs_recorder_->record(span);
  }

  if (peer_ != nullptr) {
    const sim::Time head = start + config_.prop_delay;
    const sim::Time tail = current_end_ + config_.prop_delay;
    Arrival arrival{current_.packet, peer_in_port_, head, tail,
                    config_.rate_bps};
    sim_.at(head, [peer = peer_, arrival] { peer->on_arrival(arrival); });
  }
}

SRP_HOT_PATH void TxPort::complete_transmission() {
  SIRPENT_EXPECTS(transmitting_);
  ++stats_.sent;
  stats_.bytes_sent += current_.packet->size();
  stats_.busy_time += current_end_ - current_start_;
  completion_event_ = 0;
  transmitting_ = false;
  if (on_depart) on_depart(*current_.packet);
  current_ = Queued{};
  try_start(sim_.now());
}

void TxPort::abort_transmission() {
  SIRPENT_EXPECTS(transmitting_);
  ++stats_.preempt_aborts;
  stats_.busy_time += sim_.now() - current_start_;
  sim_.cancel(completion_event_);
  completion_event_ = 0;
  // The truncated tail reaches the peer early, but we leave the already
  // scheduled arrival in place and flag the shared packet: receivers check
  // effectively_truncated() when they act on the packet.
  current_.packet->truncated = true;
  transmitting_ = false;
  current_ = Queued{};
}

void TxPort::set_up(bool up) {
  if (up == up_) return;
  up_ = up;
  if (!up_) {
    if (transmitting_) abort_transmission();
    stats_.dropped_down += queue_.size();
    queue_.clear();
    queue_bytes_ = 0;
    notify_queue_change();
    if (wakeup_event_ != 0) {
      sim_.cancel(wakeup_event_);
      wakeup_event_ = 0;
    }
  } else {
    try_start(sim_.now());
  }
}

}  // namespace srp::net

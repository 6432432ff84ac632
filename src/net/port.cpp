#include "net/port.hpp"

#include <algorithm>
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
    : sim::ClockDriven(sim),
      sim_(sim),
      name_(std::move(name)),
      config_(config) {}

void TxPort::connect(Node* peer, int peer_in_port) {
  settle();
  peer_ = peer;
  peer_in_port_ = peer_in_port;
  // A committed packet that has not started yet would have resolved the
  // new peer at its start: re-commit it, same start, towards the new peer.
  if (committed_) {
    revoke();
    try_start();
  }
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

void TxPort::notify_queue_change(sim::Time at) const {
  if (on_queue_change) on_queue_change(at, queued());
  if (obs_queue_depth_ != nullptr) {
    obs_queue_depth_->set(static_cast<std::int64_t>(queued()));
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

SRP_HOT_PATH void TxPort::enqueue_unfiltered(PacketPtr packet, TxMeta meta,
                                             sim::Time earliest_start) {
  ++stats_.enqueued;
  if (!up_) {
    ++stats_.dropped_down;
    return;
  }
  settle();

  Queued item{std::move(packet), meta, sim_.now(), earliest_start};

  if (transmitting_ && meta.preempting && !current_.meta.preempting) {
    // Paper §2.1: a preemptive-priority packet aborts a non-preemptive
    // transmission in progress; the victim arrives truncated at the peer.
    abort_transmission();
  }

  // "Blocked" per the paper: the packet cannot go straight onto the wire —
  // a transmission is in progress or others (a committed head included)
  // are already waiting.
  const bool blocked = transmitting_ || queued() != 0;
  if (blocked && meta.drop_if_blocked) {
    ++stats_.dropped_blocked;
  } else if (queue_bytes_ + item.packet->size() > buffer_limit_) {
    if (overflow_handler && overflow_handler(item.packet, item.meta)) {
      ++stats_.deflected;
    } else {
      ++stats_.dropped_full;
    }
  } else {
    if (on_enqueue) on_enqueue(*item.packet);
    // A higher rank overtakes a committed head before its start: the port
    // would now start this packet instead.
    if (committed_ && meta.rank > front().meta.rank) revoke();
    // A chain already settled when its image is queued (a shaped, delayed
    // or re-injected image's) is folded now, so the image does not pin its
    // upstream slab while it waits; fold_waiting() folds the others.
    item.packet->fold_parent(sim_.now());
    queue_bytes_ += item.packet->size();
    insert_by_rank(std::move(item));
    notify_queue_change(sim_.now());
    // The packet waits behind a transmission: its turn comes at the end.
    if ((transmitting_ || committed_) && completion_event_ == 0) {
      schedule_completion();
    }
  }
  // An idle port decides its head now — after an abort too, when the
  // preemptor itself was dropped and only the waiting packets remain.
  try_start();
}

SRP_HOT_PATH void TxPort::insert_by_rank(Queued item) {
  // Descending rank, FIFO within a rank: scan from the back.
  const auto first = queue_.begin() + static_cast<std::ptrdiff_t>(head_);
  auto it = queue_.end();
  while (it != first && std::prev(it)->meta.rank < item.meta.rank) --it;
  // Keep the folded prefix: it grows by a folded image inserted in or at
  // its end, and ends before an unfolded one.
  const auto at = static_cast<std::size_t>(it - first);
  if (at <= folded_) {
    folded_ = item.packet->parent == nullptr ? folded_ + 1 : at;
  }
  // The output queue is the paper's "output buffer space": buffering a
  // blocked packet is the deliberate allocation on this path, made only
  // while the vector grows to the deepest backlog it has held.
  SRP_ALLOC_OK(queue_.insert(it, std::move(item)));
}

SRP_HOT_PATH void TxPort::pop_front() const {
  if (folded_ > 0) --folded_;
  ++head_;
  if (head_ == queue_.size()) {
    queue_.clear();  // keeps the storage for the next packets
    head_ = 0;
  } else if (head_ > queue_.size() / 2) {
    // Move the live part to the front so dead slots never outnumber it.
    queue_.erase(queue_.begin(),
                 queue_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

SRP_HOT_PATH void TxPort::try_start() {
  if (transmitting_ || committed_ || queued() == 0 || !up_) return;

  const Queued& head = front();
  committed_ = true;
  current_start_ = std::max(sim_.now(), head.earliest_start);
  current_end_ = current_start_ + tx_time(head.packet->size());
  if (queued() > 1) schedule_completion();
  arrival_event_ = 0;
  if (peer_ != nullptr) {
    const Arrival arrival{head.packet, peer_in_port_,
                          current_start_ + config_.prop_delay,
                          current_end_ + config_.prop_delay, config_.rate_bps};
    // A whole-packet peer (a host) acts on the last bit: deliver it then,
    // in this one event, instead of at the head for it to wait again.
    const sim::Time when = peer_->whole_packet() ? arrival.tail : arrival.head;
    arrival_event_ =
        sim_.at(when, [peer = peer_, arrival] { peer->on_arrival(arrival); });
  }
  settle();  // starts at once unless the cut-through bound lies ahead
}

SRP_HOT_PATH void TxPort::begin_transmission() const {
  SIRPENT_EXPECTS(committed_ && !transmitting_);
  committed_ = false;
  transmitting_ = true;
  current_ = std::move(front());
  pop_front();
  fold_waiting();
  SIRPENT_INVARIANT(queue_bytes_ >= current_.packet->size());
  queue_bytes_ -= current_.packet->size();

  const sim::Time start = current_start_;
  SIRPENT_EXPECTS(start >= current_.earliest_start);
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
  // Start first, notify after: observers of the queue change must see the
  // port already busy.
  notify_queue_change(start);
}

SRP_HOT_PATH void TxPort::fold_waiting() const {
  while (folded_ < queued()) {
    Packet& waiting = *queue_[head_ + folded_].packet;
    waiting.fold_parent(sim_.now());
    if (waiting.parent != nullptr) return;  // not settled yet
    ++folded_;
  }
}

SRP_HOT_PATH void TxPort::end_transmission() const {
  SIRPENT_EXPECTS(transmitting_);
  ++stats_.sent;
  stats_.bytes_sent += current_.packet->size();
  stats_.busy_time += current_end_ - current_start_;
  current_.packet->fold_parent(sim_.now());
  transmitting_ = false;
  current_ = Queued{};
}

SRP_HOT_PATH void TxPort::schedule_completion() {
  completion_event_ =
      sim_.at(current_end_, [this] { complete_transmission(); });
}

SRP_HOT_PATH void TxPort::complete_transmission() {
  completion_event_ = 0;
  settle();
  SIRPENT_ENSURES(!transmitting_ && !committed_);
  try_start();
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

void TxPort::revoke() {
  SIRPENT_EXPECTS(committed_);
  sim_.cancel(arrival_event_);
  sim_.cancel(completion_event_);
  completion_event_ = 0;
  committed_ = false;
}

void TxPort::set_up(bool up) {
  if (up == up_) return;
  settle();
  up_ = up;
  if (!up_) {
    if (transmitting_) abort_transmission();
    if (committed_) revoke();
    stats_.dropped_down += queued();
    queue_.clear();
    head_ = 0;
    folded_ = 0;
    queue_bytes_ = 0;
    notify_queue_change(sim_.now());
  } else {
    try_start();
  }
}

}  // namespace srp::net

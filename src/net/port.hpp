// Output port: the transmitter end of a simplex link.
//
// Implements the paper's blocked-packet semantics: a packet that finds the
// port busy is *saved* on a priority queue, *dropped* (drop-if-blocked type
// of service), or — for VIPER priorities 6/7 — *preempts* the transmission
// in progress, which is aborted mid-packet and arrives truncated at the
// peer.  Queue order is by priority rank, FIFO within a rank.
//
// Lifecycle.  The port decides a transmission the moment it can: try_start()
// *commits* the queue head at start = max(now, earliest_start) and
// schedules the peer's arrival right away.  Until `start` the committed
// packet stays at the queue head and counts as queued; from `start` it is
// on the wire, and it ends at start + tx_time by the clock alone.  settle()
// brings that state up to now() at the top of every operation and
// accessor, so at every sim time the port reads exactly as if it had run a
// wakeup event at `start` and a completion event at the end.  A completion
// event exists only while a packet waits behind the transmission: it
// commits the next one at the end instant.  A commit is revoked — arrival
// and completion cancelled, the packet left at the head — whenever, before
// `start`, the decision would have come out differently: a higher-rank
// enqueue, the link going down, or connect() to a new peer.  The arrival
// fires at the peer's first bit, or at its last bit when the peer is a
// whole-packet node (Node::whole_packet: every end host), which then does
// its work inside that one event.
//
// The queue is a vector with a head index: a transmission's start advances
// the head, drained storage is reused, and the live part is moved to the
// front once the head passes half the vector, so a warm port queues and
// dequeues without allocating.  A queued image's `parent` chain is folded
// (Packet::fold_parent) at enqueue when it has settled, and otherwise at
// the first transmission start after it settles, so a waiting image does
// not pin its upstream slab.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "net/node.hpp"
#include "net/packet.hpp"
#include "obs/recorder.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "stats/registry.hpp"

namespace srp::net {

/// Static parameters of a simplex link.
struct LinkConfig {
  double rate_bps = 1e9;                   ///< serialization rate
  sim::Time prop_delay = sim::kMicrosecond;  ///< one-way propagation
  std::size_t mtu_bytes = 1500;            ///< maximum transmission unit
};

/// Per-transmission scheduling directives, distilled from the packet's
/// type-of-service by the owning router (protocol-agnostic here).
struct TxMeta {
  int rank = 0;                  ///< higher rank is served first
  bool preempting = false;       ///< may abort a lower-rank transmission
  bool drop_if_blocked = false;  ///< paper's "drop" blocked-packet policy
};

/// Verdict returned by a TxPort fault hook.
enum class FaultVerdict : std::uint8_t {
  kPass,     ///< transmit (the hook may have mutated packet/meta/start)
  kDrop,     ///< discard silently; counted as dropped_injected
  kConsume,  ///< hook took custody; it re-injects via enqueue_unfiltered()
};

/// Generalized fault-injection hook (see src/fault): consulted once per
/// enqueue().  It may mutate the packet, its scheduling metadata and its
/// earliest-start bound in place (corruption, delay jitter), drop the
/// packet, or take custody of it for later re-injection (reordering,
/// duplication).  Exactly one injection path: this hook subsumes the old
/// ad-hoc drop_filter predicate.
using FaultHook = std::function<FaultVerdict(
    PacketPtr& packet, TxMeta& meta, sim::Time& earliest_start)>;

/// Adapts a boolean predicate into a FaultHook dropping matching packets —
/// the old drop_filter semantics, for targeted loss in tests.
FaultHook drop_when(std::function<bool(const Packet&)> predicate);

/// Transmitter of one simplex channel, with a bounded priority queue.
class TxPort final : private sim::ClockDriven {
 public:
  struct Stats {
    std::uint64_t enqueued = 0;
    std::uint64_t sent = 0;              ///< completed transmissions
    std::uint64_t bytes_sent = 0;
    std::uint64_t dropped_blocked = 0;   ///< drop-if-blocked while busy
    std::uint64_t dropped_full = 0;      ///< buffer exhausted
    std::uint64_t deflected = 0;         ///< taken by the overflow handler
    std::uint64_t dropped_down = 0;      ///< link was down
    std::uint64_t dropped_injected = 0;  ///< loss injection (tests/benches)
    std::uint64_t preempt_aborts = 0;    ///< transmissions we aborted
    sim::Time busy_time = 0;             ///< cumulative transmitting time
  };

  struct Queued {
    PacketPtr packet;
    TxMeta meta;
    sim::Time enqueue_time = 0;
    sim::Time earliest_start = 0;  ///< cut-through causality bound
  };

  TxPort(sim::Simulator& sim, std::string name, LinkConfig config);

  /// Points this transmitter at its receiver.
  void connect(Node* peer, int peer_in_port);

  /// Hands a packet to the port.  `earliest_start` lets a cut-through
  /// router forbid transmission before the header has actually arrived.
  void enqueue(PacketPtr packet, TxMeta meta, sim::Time earliest_start = 0);

  /// Hands a packet to the port bypassing the fault hook — the re-injection
  /// path for delayed/duplicated packets, which must not be perturbed a
  /// second time.
  void enqueue_unfiltered(PacketPtr packet, TxMeta meta,
                          sim::Time earliest_start = 0);

  /// Bounds the queue in bytes (the paper's "output buffer space").
  /// Unlimited by default.
  void set_buffer_limit(std::size_t bytes);

  /// Link failure injection: a down link drops everything handed to it and
  /// aborts the transmission in progress.
  void set_up(bool up);
  [[nodiscard]] bool is_up() const { return up_; }

  /// True while a transmission is on the wire.
  [[nodiscard]] bool busy() const {
    settle();
    return transmitting_;
  }
  [[nodiscard]] const LinkConfig& config() const { return config_; }
  /// Counters; a transmission counts as sent once it has ended.
  [[nodiscard]] const Stats& stats() const {
    settle();
    return stats_;
  }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Node* peer() const { return peer_; }
  [[nodiscard]] int peer_in_port() const { return peer_in_port_; }

  /// Queue introspection — congestion control reads the source routes of
  /// waiting packets to identify upstream feeders (paper §2.2).
  /// A committed packet whose start is still ahead is queued.  The view,
  /// head first, is valid until the next operation on the port.
  [[nodiscard]] std::span<const Queued> queue() const {
    settle();
    return std::span<const Queued>(queue_).subspan(head_);
  }
  [[nodiscard]] std::size_t queue_bytes() const {
    settle();
    return queue_bytes_;
  }
  [[nodiscard]] std::size_t queue_packets() const {
    settle();
    return queued();
  }

  /// Fault-injection hook; empty (one untaken branch) in normal operation.
  FaultHook fault_hook;

  /// Alternative to dropping on buffer exhaustion (the paper's Blazenet-
  /// style deferral: "looping it back to a previous node ... or entering
  /// it into a local delay line").  Return true if the packet was taken;
  /// false falls through to the normal drop.
  std::function<bool(PacketPtr, TxMeta)> overflow_handler;

  /// Observation hook for the congestion controller: called after a packet
  /// is accepted.
  std::function<void(const Packet&)> on_enqueue;
  /// Called with each queue-length change and the sim time it took effect
  /// (for time-weighted averages).  A change at a transmission's start is
  /// reported by the next operation on the port, stamped with the start.
  std::function<void(sim::Time, std::size_t queued_packets)> on_queue_change;

  /// Serialization time of @p bytes on this link.
  [[nodiscard]] sim::Time tx_time(std::size_t bytes) const {
    return sim::byte_time(bytes, config_.rate_bps);
  }

  /// Wires this port to an observability sink: a `port.<name>.queue_depth`
  /// gauge and a `port.<name>.queue_wait_ps` histogram in the registry,
  /// plus a kTx span per traced-packet transmission in the recorder.  The
  /// metric handles are resolved once here; with no observer every data
  /// path pays exactly one untaken branch.
  void set_observer(const obs::Observer& observer);

 private:
  /// End of a transmission no completion event will mark.
  [[nodiscard]] sim::Time lazy_end() const override {
    return (committed_ || transmitting_) && completion_event_ == 0
               ? current_end_
               : 0;
  }
  void catch_up() override { settle(); }
  /// Advances the lifecycle to now(): starts a committed transmission
  /// whose start has passed, and ends one whose end has passed unless a
  /// completion event will.
  void settle() const {
    if (committed_ && sim_.now() >= current_start_) begin_transmission();
    if (transmitting_ && completion_event_ == 0 &&
        sim_.now() >= current_end_) {
      end_transmission();
    }
  }
  [[nodiscard]] std::size_t queued() const { return queue_.size() - head_; }
  [[nodiscard]] Queued& front() const { return queue_[head_]; }
  void pop_front() const;
  /// Folds the parent chain of waiting images, from the first not yet
  /// folded, until one whose chain has not settled.
  void fold_waiting() const;
  void try_start();
  void begin_transmission() const;
  void end_transmission() const;
  void schedule_completion();
  void complete_transmission();
  void abort_transmission();
  void revoke();
  void insert_by_rank(Queued item);
  void notify_queue_change(sim::Time at) const;

  sim::Simulator& sim_;
  std::string name_;
  LinkConfig config_;
  Node* peer_ = nullptr;
  int peer_in_port_ = 0;
  bool up_ = true;

  // Lifecycle state, advanced by settle() from the const accessors too.
  mutable std::vector<Queued> queue_;  ///< live from head_ on, by rank
  mutable std::size_t head_ = 0;       ///< first live entry of queue_
  /// The first folded_ live entries hold no parent chain.
  mutable std::size_t folded_ = 0;
  mutable std::size_t queue_bytes_ = 0;
  mutable bool committed_ = false;     ///< queue head committed, not started
  mutable bool transmitting_ = false;  ///< current_ is on the wire
  mutable Queued current_;
  mutable Stats stats_;
  sim::Time current_start_ = 0;  ///< of the committed or current packet
  sim::Time current_end_ = 0;
  sim::EventId arrival_event_ = 0;     ///< the committed packet's arrival
  sim::EventId completion_event_ = 0;  ///< only while a packet waits behind

  std::size_t buffer_limit_ = std::numeric_limits<std::size_t>::max();

  // Observability handles, resolved once by set_observer(); null = off.
  stats::Gauge* obs_queue_depth_ = nullptr;
  stats::Histogram* obs_queue_wait_ = nullptr;
  obs::FlightRecorder* obs_recorder_ = nullptr;
};

}  // namespace srp::net

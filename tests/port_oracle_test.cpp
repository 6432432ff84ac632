// Differential test of net::TxPort's lifecycle — commit when decided,
// complete lazily, revoke when the decision would change — against the
// eager reference port (reference_port.hpp), which spends a wakeup, a
// completion and an arrival event on every transmission.
//
// Both ports share one simulator and receive the same operations at the
// same instants.  After every operation the test holds the lazy port's
// accessors, queue, counters, queue-wait histogram, queue-change reports
// and peer arrivals equal to the reference.  Operation instants are odd
// picoseconds while serialization and propagation times are multiples of
// 8000 ps, so operations practically never share an instant with a
// transmission boundary and the comparison does not rest on tie order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "directory/fabric.hpp"
#include "net/port.hpp"
#include "obs/recorder.hpp"
#include "reference_port.hpp"
#include "sim/random.hpp"
#include "stats/registry.hpp"
#include "test_util.hpp"

namespace srp {
namespace {

/// One arrival as the peer saw it.
struct Seen {
  int peer = 0;
  int in_port = 0;
  std::uint64_t id = 0;
  sim::Time head = 0;
  sim::Time tail = 0;
  bool truncated = false;  ///< as flagged at the head's arrival
  net::PacketPtr packet;   ///< to read the flag again at the end

  bool operator==(const Seen& o) const {
    return peer == o.peer && in_port == o.in_port && id == o.id &&
           head == o.head && tail == o.tail && truncated == o.truncated;
  }
  friend void PrintTo(const Seen& s, std::ostream* os) {
    *os << "{peer " << s.peer << " in " << s.in_port << " id " << s.id
        << " head " << s.head << " tail " << s.tail
        << (s.truncated ? " truncated}" : "}");
  }
};

/// First index where two logs differ (their common length if none).
template <typename T>
std::size_t first_difference(const std::vector<T>& a,
                             const std::vector<T>& b) {
  std::size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  return i;
}

class Probe : public net::Node {
 public:
  Probe(std::string name, int index, std::vector<Seen>& log)
      : net::Node(std::move(name)), index_(index), log_(log) {}

  void on_arrival(const net::Arrival& a) override {
    log_.push_back(Seen{index_, a.in_port, a.packet->id, a.head, a.tail,
                        a.packet->truncated, a.packet});
  }

 private:
  int index_;
  std::vector<Seen>& log_;
};

using Change = std::pair<sim::Time, std::size_t>;

/// The lazy port and the eager reference, driven in lockstep.
class Twin {
 public:
  explicit Twin(net::LinkConfig config)
      : port_(sim_, "p.lazy", config), ref_(sim_, config) {
    port_.set_observer(obs::Observer{&registry_, nullptr});
    wait_ = &registry_.histogram(
        "port." + stats::metric_component(port_.name()) + ".queue_wait_ps");
    port_.on_queue_change = [this](sim::Time t, std::size_t n) {
      lazy_changes_.emplace_back(t, n);
    };
    ref_.on_queue_change = [this](sim::Time t, std::size_t n) {
      ref_changes_.emplace_back(t, n);
    };
    connect(0);
  }

  net::TxPort& port() { return port_; }
  [[nodiscard]] bool up() const { return up_; }
  [[nodiscard]] int peer() const { return peer_; }
  [[nodiscard]] const std::vector<Seen>& arrivals() const {
    return lazy_seen_;
  }

  void advance_to(sim::Time t) { sim_.run_until(t); }
  void drain() { sim_.run(); }

  /// Enqueues one packet on both ports; returns the lazy port's copy.
  net::PacketPtr enqueue(std::size_t size, net::TxMeta meta,
                         sim::Time earliest_start) {
    net::PacketPtr packet =
        packets_.make(wire::Bytes(size, 0x5A), sim_.now());
    port_.enqueue(packet, meta, earliest_start);
    ref_.enqueue(std::make_shared<net::Packet>(*packet), meta,
                 earliest_start);
    return packet;
  }

  void set_up(bool up) {
    up_ = up;
    port_.set_up(up);
    ref_.set_up(up);
  }

  void set_buffer_limit(std::size_t bytes) {
    port_.set_buffer_limit(bytes);
    ref_.set_buffer_limit(bytes);
  }

  /// Points both ports at peer 0 or 1 (entering on port 1 or 2).
  void connect(int peer) {
    peer_ = peer;
    port_.connect(&lazy_peers_[peer], peer + 1);
    ref_.connect(&ref_peers_[peer], peer + 1);
  }

  /// Holds everything observable equal to the reference at now().
  void expect_same(const std::string& where) {
    SCOPED_TRACE(where + " at t=" + std::to_string(sim_.now()));
    // The accessors settle the lazy port first: every change up to now()
    // has been reported once they return.
    EXPECT_EQ(port_.busy(), ref_.busy());
    EXPECT_EQ(port_.queue_packets(), ref_.queue_packets());
    EXPECT_EQ(port_.queue_bytes(), ref_.queue_bytes());

    const auto& lq = port_.queue();
    const auto& rq = ref_.queue();
    EXPECT_EQ(lq.size(), rq.size());
    for (std::size_t i = 0; i < std::min(lq.size(), rq.size()); ++i) {
      EXPECT_EQ(lq[i].packet->id, rq[i].packet->id) << "queue slot " << i;
      EXPECT_EQ(lq[i].meta.rank, rq[i].meta.rank);
      EXPECT_EQ(lq[i].enqueue_time, rq[i].enqueue_time);
      EXPECT_EQ(lq[i].earliest_start, rq[i].earliest_start);
    }

    const net::TxPort::Stats& l = port_.stats();
    const net::TxPort::Stats& r = ref_.stats();
    EXPECT_EQ(l.enqueued, r.enqueued);
    EXPECT_EQ(l.sent, r.sent);
    EXPECT_EQ(l.bytes_sent, r.bytes_sent);
    EXPECT_EQ(l.dropped_blocked, r.dropped_blocked);
    EXPECT_EQ(l.dropped_full, r.dropped_full);
    EXPECT_EQ(l.deflected, r.deflected);
    EXPECT_EQ(l.dropped_down, r.dropped_down);
    EXPECT_EQ(l.dropped_injected, r.dropped_injected);
    EXPECT_EQ(l.preempt_aborts, r.preempt_aborts);
    EXPECT_EQ(l.busy_time, r.busy_time);

    EXPECT_EQ(wait_->count(), ref_.wait_count());
    EXPECT_EQ(wait_->sum(), ref_.wait_sum());
    EXPECT_EQ(lazy_changes_.size(), ref_changes_.size());
    if (const auto i = first_difference(lazy_changes_, ref_changes_);
        i < std::min(lazy_changes_.size(), ref_changes_.size())) {
      ADD_FAILURE() << "queue change " << i << ": lazy ("
                    << lazy_changes_[i].first << ", "
                    << lazy_changes_[i].second << ") eager ("
                    << ref_changes_[i].first << ", "
                    << ref_changes_[i].second << ")";
    }
    EXPECT_EQ(lazy_seen_.size(), ref_seen_.size());
    if (const auto i = first_difference(lazy_seen_, ref_seen_);
        i < std::min(lazy_seen_.size(), ref_seen_.size())) {
      EXPECT_EQ(lazy_seen_[i], ref_seen_[i]) << "arrival " << i;
    }
  }

  /// After a drain: the truncation flags, which an abort may set after
  /// the head arrived, must agree too.
  void expect_same_final_flags() {
    ASSERT_EQ(lazy_seen_.size(), ref_seen_.size());
    for (std::size_t i = 0; i < lazy_seen_.size(); ++i) {
      EXPECT_EQ(lazy_seen_[i].packet->truncated,
                ref_seen_[i].packet->truncated)
          << "arrival " << i << " id " << lazy_seen_[i].id;
    }
  }

 private:
  sim::Simulator sim_;
  net::PacketFactory packets_;
  stats::Registry registry_;
  const stats::Histogram* wait_ = nullptr;
  std::vector<Seen> lazy_seen_;
  std::vector<Seen> ref_seen_;
  std::vector<Change> lazy_changes_;
  std::vector<Change> ref_changes_;
  Probe lazy_peers_[2] = {Probe("lazy0", 0, lazy_seen_),
                          Probe("lazy1", 1, lazy_seen_)};
  Probe ref_peers_[2] = {Probe("ref0", 0, ref_seen_),
                         Probe("ref1", 1, ref_seen_)};
  net::TxPort port_;
  test::ReferencePort ref_;
  bool up_ = true;
  int peer_ = 0;
};

constexpr net::LinkConfig kLink{1e9, 2 * sim::kMicrosecond, 1500};
constexpr sim::Time kTx1000 = 8 * sim::kMicrosecond;  // 1000 B at 1 Gb/s

// ---------- randomized sequences ----------

void run_random(std::uint64_t seed) {
  sim::Rng rng(seed);
  net::LinkConfig config = kLink;
  config.prop_delay = rng.chance(0.5) ? 0 : 2 * sim::kMicrosecond;
  Twin twin(config);
  constexpr std::size_t kSizes[] = {40, 100, 500, 1000};
  constexpr std::size_t kLimits[] = {std::numeric_limits<std::size_t>::max(),
                                     1200, 3000};

  // Half the seeds offer load faster than the wire drains it.
  const std::uint64_t half_gap = rng.chance(0.5) ? 500'000 : 3'000'000;
  sim::Time t = 1;  // every operation instant is odd
  for (int step = 0; step < 300; ++step) {
    t += 2 * static_cast<sim::Time>(rng.uniform_int(0, half_gap));
    twin.advance_to(t);
    const double op = rng.next_double();
    std::string what;
    if (op < 0.70) {
      net::TxMeta meta;
      meta.rank = static_cast<int>(rng.uniform_int(0, 3));
      meta.preempting = rng.chance(0.15);
      meta.drop_if_blocked = rng.chance(0.10);
      // Odd offset from an odd instant: bounds fall on even picoseconds.
      const sim::Time earliest =
          rng.chance(0.5)
              ? 0
              : t + 2 * static_cast<sim::Time>(rng.uniform_int(0, 5'000'000)) +
                    1;
      twin.enqueue(kSizes[rng.uniform_int(0, 3)], meta, earliest);
      what = "enqueue";
    } else if (op < 0.76) {
      twin.set_up(!twin.up());
      what = "set_up";
    } else if (op < 0.82) {
      twin.connect(1 - twin.peer());
      what = "connect";
    } else if (op < 0.86) {
      twin.set_buffer_limit(kLimits[rng.uniform_int(0, 2)]);
      what = "buffer limit";
    } else {
      what = "idle";
    }
    twin.expect_same("seed " + std::to_string(seed) + " step " +
                     std::to_string(step) + " " + what);
    if (::testing::Test::HasFailure()) return;
  }
  twin.drain();
  twin.expect_same("seed " + std::to_string(seed) + " drained");
  twin.expect_same_final_flags();
}

TEST(PortOracle, RandomizedSequencesMatchEagerPort) {
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    run_random(seed);
    if (HasFailure()) return;
  }
}

// ---------- targeted commit-window cases ----------

TEST(PortOracle, HigherRankInsideCommitWindowRevokes) {
  Twin twin(kLink);
  twin.advance_to(1);
  const auto low = twin.enqueue(1000, net::TxMeta{0, false, false},
                                10 * sim::kMicrosecond);
  twin.expect_same("committed low");
  twin.advance_to(3 * sim::kMicrosecond + 1);
  const auto high = twin.enqueue(100, net::TxMeta{2, false, false},
                                 5 * sim::kMicrosecond);
  twin.expect_same("higher rank in the window");
  twin.drain();
  twin.expect_same("drained");
  // The higher rank went first, at its own bound; low followed it.
  const auto& seen = twin.arrivals();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].id, high->id);
  EXPECT_EQ(seen[0].head, 5 * sim::kMicrosecond + kLink.prop_delay);
  EXPECT_EQ(seen[1].id, low->id);
  EXPECT_EQ(seen[1].head, 10 * sim::kMicrosecond + kLink.prop_delay);
}

TEST(PortOracle, LinkDownInsideCommitWindowRevokes) {
  Twin twin(kLink);
  twin.advance_to(1);
  twin.enqueue(1000, net::TxMeta{}, 10 * sim::kMicrosecond);
  twin.enqueue(500, net::TxMeta{}, 0);
  twin.advance_to(4 * sim::kMicrosecond + 1);
  twin.set_up(false);
  twin.expect_same("down in the window");
  EXPECT_EQ(twin.port().stats().dropped_down, 2u);
  EXPECT_EQ(twin.port().stats().preempt_aborts, 0u);
  twin.advance_to(20 * sim::kMicrosecond + 1);
  twin.set_up(true);
  twin.drain();
  twin.expect_same("drained");
  EXPECT_TRUE(twin.arrivals().empty());
}

TEST(PortOracle, ReconnectInsideCommitWindowRetargetsArrival) {
  Twin twin(kLink);
  twin.advance_to(1);
  twin.enqueue(1000, net::TxMeta{}, 10 * sim::kMicrosecond);
  twin.advance_to(2 * sim::kMicrosecond + 1);
  twin.connect(1);
  twin.expect_same("reconnected in the window");
  twin.drain();
  twin.expect_same("drained");
  ASSERT_EQ(twin.arrivals().size(), 1u);
  EXPECT_EQ(twin.arrivals()[0].peer, 1);
  EXPECT_EQ(twin.arrivals()[0].in_port, 2);
  EXPECT_EQ(twin.arrivals()[0].head, 10 * sim::kMicrosecond + kLink.prop_delay);
}

TEST(PortOracle, EqualRankPreemptingInsideCommitWindowDoesNotAbort) {
  Twin twin(kLink);
  twin.advance_to(1);
  const auto first = twin.enqueue(1000, net::TxMeta{2, false, false},
                                  10 * sim::kMicrosecond);
  twin.advance_to(5 * sim::kMicrosecond + 1);
  // Before the head's start the port is not transmitting: nothing to
  // abort, and an equal rank queues behind the committed head.
  twin.enqueue(100, net::TxMeta{2, true, false}, 0);
  twin.expect_same("equal-rank preemptor in the window");
  twin.drain();
  twin.expect_same("drained");
  twin.expect_same_final_flags();
  EXPECT_EQ(twin.port().stats().preempt_aborts, 0u);
  EXPECT_FALSE(first->truncated);
  ASSERT_EQ(twin.arrivals().size(), 2u);
  EXPECT_EQ(twin.arrivals()[0].id, first->id);
}

TEST(PortOracle, EnqueueExactlyAtEndFindsPortIdle) {
  Twin twin(kLink);
  twin.advance_to(1);
  twin.enqueue(1000, net::TxMeta{}, 0);
  twin.advance_to(1 + kTx1000);  // the transmission's end instant
  twin.expect_same("at the end");
  EXPECT_FALSE(twin.port().busy());
  // Not blocked: a drop-if-blocked packet goes straight onto the wire.
  twin.enqueue(100, net::TxMeta{0, false, true}, 0);
  twin.expect_same("enqueued at the end");
  EXPECT_EQ(twin.port().stats().dropped_blocked, 0u);
  twin.drain();
  twin.expect_same("drained");
  EXPECT_EQ(twin.arrivals().size(), 2u);
}

/// A backlog that never drains: the head index walks the vector, drained
/// slots are reused and the live part is moved to the front, while
/// higher-rank packets land in the middle of it.  Over 100 departures the
/// queue must read exactly as the reference deque does.
TEST(PortOracle, StandingBacklogCompactsWithMidQueueInserts) {
  Twin twin(kLink);
  twin.advance_to(1);
  for (int i = 0; i < 8; ++i) twin.enqueue(1000, net::TxMeta{}, 0);
  twin.expect_same("backlog");
  // One 1000 B packet per transmission time keeps the depth steady; every
  // third is a higher rank and overtakes the rank-0 tail.  Operations
  // fall 2 µs after each transmission boundary, never on one.
  sim::Time t = 1 + 2 * sim::kMicrosecond;
  for (int step = 0; step < 100; ++step) {
    t += kTx1000;
    twin.advance_to(t);
    const int rank = step % 3 == 0 ? 1 + step % 2 : 0;
    twin.enqueue(1000, net::TxMeta{rank, false, false}, 0);
    twin.expect_same("step " + std::to_string(step));
    ASSERT_GT(twin.port().queue_packets(), 1u) << "the backlog drained";
    if (HasFailure()) return;
  }
  EXPECT_GT(twin.port().stats().sent, 64u);
  twin.drain();
  twin.expect_same("drained");
  EXPECT_EQ(twin.arrivals().size(), 108u);
}

// ---------- event budget ----------

/// Events per packet across the 2-router line with idle ports: one arrival
/// per link (src->r1, r1->r2, r2->dst).  An idle port spends no event of
/// its own — no wakeup at the cut-through start, no completion at the
/// end — and the destination host, a whole-packet node, receives its
/// arrival at the last bit and delivers inside it.
TEST(EventBudget, IdleLineEventsPerPacket) {
  sim::Simulator sim;
  dir::Fabric fabric(sim);
  test::Line line = test::build_line(fabric, 2, "src.budget", "dst.budget");
  std::uint64_t delivered = 0;
  line.dst->set_default_handler([&](const viper::Delivery&) { ++delivered; });

  constexpr std::uint64_t kPackets = 100;
  std::uint64_t events = 0;
  for (std::uint64_t i = 0; i < kPackets; ++i) {
    line.src->send(test::line_route(2), test::pattern_bytes(64));
    events += sim.run();  // drains: every port is idle before the next send
  }
  EXPECT_EQ(delivered, kPackets);
  EXPECT_EQ(events, 3 * kPackets)
      << static_cast<double>(events) / kPackets << " events per packet";
}

}  // namespace
}  // namespace srp

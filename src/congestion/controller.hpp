// Router-side rate-based congestion control (paper §2.2).
//
// One CongestionController attaches to one ViperRouter and plays both
// roles:
//
//  * Congestion point: it watches the router's output queues.  When a
//    queue exceeds the watermark it identifies the upstream feeders from
//    the queued packets and sends each a RateReport granting a fair share
//    of the link ("the router signals to those upstream routers feeding
//    this queue to reduce their rate").
//
//  * Upstream feeder: through the router's shaper hook it rate-limits
//    packets heading for a congested downstream queue (identified by
//    peeking the packet's next segment — "because the upstream routers
//    have access to the source route on each packet, they can determine
//    the packets destined for this queue").  Limits are token buckets held
//    as *soft state*: they expire, and quiet flows ramp their rate back up
//    ("similar to Jacobson's slow start ... applied at the network layer").
//    If its own shaping backlog grows it recursively reports further
//    upstream.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <vector>

#include "congestion/messages.hpp"
#include "sim/simulator.hpp"
#include "viper/router.hpp"

namespace srp::cc {

struct ControllerConfig {
  /// Monitoring / reporting period.
  sim::Time interval = sim::kMillisecond;
  /// Output queue depth that declares congestion.
  std::size_t queue_watermark_bytes = 24'000;
  /// Fraction of link capacity shared out to feeders when congested.
  double target_utilization = 0.9;
  /// Soft-state lifetime of a rate limit with no fresh reports.
  sim::Time flow_ttl = 50 * sim::kMillisecond;
  /// Multiplicative rate increase per quiet interval (network slow-start).
  double ramp_factor = 1.4;
  /// Shaping backlog that triggers recursive upstream reports.
  std::size_t backlog_watermark_bytes = 24'000;
  /// Paper §2.2 ("we are also exploring providing feed forward load
  /// information on packets transiting rate-controlled links"): shaped
  /// packets carry their queue backlog downstream, and a congested router
  /// keeps its rate grants alive while feeders still signal backlog even
  /// if its own queue momentarily drains — damping the ramp oscillation.
  bool feed_forward = false;
};

class CongestionController {
 public:
  struct Stats {
    std::uint64_t reports_sent = 0;
    std::uint64_t reports_received = 0;
    std::uint64_t packets_shaped = 0;   ///< packets held at least briefly
    std::uint64_t flows_created = 0;
    std::uint64_t flows_expired = 0;
    std::uint64_t flows_ramped_out = 0; ///< limits removed by ramp-up
  };

  CongestionController(sim::Simulator& sim, viper::ViperRouter& router,
                       ControllerConfig config);

  /// Enables congestion detection on one of the router's output ports.
  void monitor_port(int port_index);

  /// Declares the router id reachable behind an output port, so shaped
  /// packets can be keyed to the downstream queue they will feed.
  void set_neighbor(int port_index, std::uint32_t neighbor_router_id);

  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Wires the controller to an observability sink: a `cc.<router>.flows`
  /// gauge (throttle-table size), `cc.<router>.reports_*` / `.shaped`
  /// counters bound to stats(), and — with a recorder — a kThrottle
  /// instant span whenever a
  /// traced packet is held by the shaper.
  void set_observer(const obs::Observer& observer);

  /// Number of packets currently held by shaping queues.
  [[nodiscard]] std::size_t held_packets() const;

  /// One rate limit's soft state, for live introspection.
  struct FlowSnapshot {
    FlowKey key;                  ///< downstream (router id, port) queue
    double rate_bps = 0.0;        ///< granted rate
    std::size_t held_packets = 0; ///< packets currently held by the shaper
    std::size_t held_bytes = 0;
    sim::Time expires = 0;        ///< soft-state expiry
  };

  /// Every active rate limit in deterministic (FlowKey) order.
  [[nodiscard]] std::vector<FlowSnapshot> flow_snapshots() const;

 private:
  struct Held {
    net::PacketPtr packet;
    net::TxMeta meta;
    int out_port = 0;
    sim::Time earliest = 0;
  };

  struct FlowState {
    double rate_bps = 0.0;
    double bucket_bits = 0.0;
    double bucket_cap_bits = 0.0;
    sim::Time last_refill = 0;
    sim::Time expires = 0;
    sim::Time last_report = 0;
    std::deque<Held> held;
    std::size_t held_bytes = 0;
    bool release_scheduled = false;
    int out_port = 0;  ///< the local port this flow leaves through
  };

  void tick();
  bool shape(int out_port, std::uint8_t next_port, net::PacketPtr packet,
             net::TxMeta meta, sim::Time earliest);
  void on_control(std::span<const std::uint8_t> payload);
  void refill(FlowState& flow);
  void schedule_release(const FlowKey& key);
  void release_ready(const FlowKey& key);
  void flush(FlowState& flow);
  void report_port_congestion(int port_index);
  void report_backlog(FlowState& flow);
  /// Adds @p in_port (a packet's last_in_port; 0 = none) to feeders_,
  /// which stays ascending and free of repeats.
  void add_feeder(int in_port);
  /// Grants each of @p feeders @p rate_bps toward this router's queue on
  /// @p port: one RateReport, sent to every feeder and counted.
  void send_rate_report(int port, double rate_bps,
                        std::span<const int> feeders);

  struct PortMonitor {
    std::uint64_t feedforward_seen = 0;  ///< sum over the current interval
    double last_share_bps = 0.0;         ///< most recent grant per feeder
    std::vector<int> last_feeders;       ///< ascending
  };

  sim::Simulator& sim_;
  viper::ViperRouter& router_;
  ControllerConfig config_;
  std::vector<int> monitored_ports_;
  std::map<int, PortMonitor> monitors_;     // monitored port state
  std::map<int, std::uint32_t> neighbors_;  // out port -> router id
  std::map<FlowKey, FlowState> flows_;
  Stats stats_;
  /// Reused by every report: the feeders of the queue being reported, in
  /// ascending port order, and the encoded RateReport.
  std::vector<int> feeders_;
  wire::Bytes report_;

  // Observability handles, resolved once by set_observer(); null = off.
  stats::Gauge* obs_flows_ = nullptr;
  obs::FlightRecorder* obs_recorder_ = nullptr;

  void update_flows_gauge() {
    if (obs_flows_ != nullptr) {
      obs_flows_->set(static_cast<std::int64_t>(flows_.size()));
    }
  }
};

}  // namespace srp::cc

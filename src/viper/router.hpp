// The VIPER router: Sirpent's per-hop algorithm on the simulated plane.
//
// "On reception of a Sirpent packet at a router ... the router removes the
// network header from the front of the packet as well as the port,
// typeOfService and portToken fields.  It checks the authorization provided
// by the portToken, if present ... revises the network-specific portion so
// that it constitutes a correct return hop through this router and appends
// the return port and network header fields to the end of the packet.  The
// packet is then forwarded out through the port specified by the port
// field."  (paper §2)
//
// Cut-through: the switching decision is made once the link header and the
// first VIPER segment have arrived; the output may start then, never
// before, and only when input and output rates match (§2.1).  Blocked
// packets are saved / dropped / preempt per type of service.  Tokens are
// checked against the cache with optimistic / blocking / drop handling for
// misses (§2.2).  Logical ports implement replicated-trunk load balancing
// and multi-port multicast; tree-structured portInfo implements Blazenet-
// style multicast (§2, §2.2).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/multicast.hpp"
#include "check/analysis.hpp"
#include "core/segment.hpp"
#include "net/arena.hpp"
#include "net/ethernet.hpp"
#include "net/network.hpp"
#include "obs/recorder.hpp"
#include "sim/time.hpp"
#include "tokens/cache.hpp"
#include "tokens/token.hpp"
#include "viper/codec.hpp"

namespace srp::flow {
class FlowObserver;
}  // namespace srp::flow

namespace srp::viper {

/// What is attached to a port: a point-to-point link (no link framing) or a
/// multi-access network (Ethernet framing from the segment's portInfo).
enum class PortKind : std::uint8_t { kPointToPoint, kLan };

struct RouterConfig {
  std::uint32_t router_id = 0;

  /// Cut-through enabled; falls back to store-and-forward when the input
  /// and output link rates differ (paper §2.1).
  bool cut_through = true;

  /// Switch decision + setup time ("significantly less than a
  /// microsecond", §2.1/§6.1).
  sim::Time decision_delay = 500 * sim::kNanosecond;
};

/// A port id that maps to several physical ports (paper §2.2 "logical hops
/// and load balancing" / §2 multicast mechanism 1).
struct LogicalPort {
  enum class Kind {
    kFanout,       ///< copy the packet out every member (multicast)
    kLoadBalance,  ///< pick one member: idle first, else shortest queue
  };
  Kind kind = Kind::kLoadBalance;
  std::vector<int> members;
};


/// A VIPER station, router or host: a ported node that knows which of its
/// ports face a multi-access network.
class ViperNode : public net::PortedNode {
 public:
  using net::PortedNode::PortedNode;

  void set_port_kind(int port_index, PortKind kind);
  [[nodiscard]] PortKind port_kind(int port_index) const {
    const auto i = static_cast<std::size_t>(port_index);
    return port_index > 0 && i < port_kinds_.size() ? port_kinds_[i]
                                                    : PortKind::kPointToPoint;
  }

 private:
  std::vector<PortKind> port_kinds_;  // indexed by port id
};

/// Port field of the packet's next segment starting at @p offset, or 0
/// when the remainder does not start with a routable segment.  The
/// cut-through fast path: one parse_segment, whose fields are views, so it
/// is allocation-free (pinned by tests/alloc_budget_test.cpp).
SRP_HOT_PATH std::uint8_t peek_next_port(std::span<const std::uint8_t> bytes,
                                         std::size_t offset);

class ViperRouter : public ViperNode {
 public:
  struct Stats {
    std::uint64_t received = 0;
    std::uint64_t forwarded = 0;
    std::uint64_t delivered_control = 0;
    std::uint64_t dropped_malformed = 0;
    std::uint64_t dropped_no_port = 0;
    std::uint64_t dropped_unauthorized = 0;
    std::uint64_t dropped_token_limit = 0;
    std::uint64_t dropped_uncached = 0;
    std::uint64_t truncated_forwards = 0;
    std::uint64_t tree_copies = 0;
    std::uint64_t fanout_copies = 0;
    std::uint64_t delay_line_loops = 0;     ///< deferrals via delay lines
    std::uint64_t delay_line_overflows = 0; ///< recirculation cap exceeded
    std::uint64_t dropped_expired_token = 0;
    std::uint64_t telemetry_stamped = 0;   ///< HopTelemetry records appended
    std::uint64_t telemetry_overflow = 0;  ///< marked packets past the
                                           ///  kMaxTelemetryHops stamp bound
    // Token admissions that let the packet on; the drops are counted above
    // (dropped_uncached, and the three token rejects).
    std::uint64_t token_hits = 0;
    std::uint64_t token_miss_optimistic = 0;
    std::uint64_t token_miss_blocking = 0;
  };

  /// Handler for locally addressed (port 0) packets — congestion reports
  /// and other router control traffic.  The segment and the payload are
  /// views into the arriving image, valid only during the call: a handler
  /// copies what it keeps.
  using ControlHandler =
      std::function<void(const SegmentView& segment,
                          std::span<const std::uint8_t> payload, int in_port)>;

  /// Congestion-layer intercept: called before a forwarded packet is handed
  /// to its output port.  Returning true means the shaper has taken custody
  /// and will call emit_to_port() later.  `next_hop_port` is the port field
  /// of the packet's *next* segment — together with the neighbour behind
  /// `out_port` it names the downstream queue the packet will feed, which
  /// is the paper's per-flow rate-control key.
  using Shaper =
      std::function<bool(int out_port, std::uint8_t next_hop_port,
                         net::PacketPtr packet, net::TxMeta meta,
                         sim::Time earliest_start)>;

  /// Tunnel transmit hook (paper §2.3): a segment addressed to a tunnel
  /// port hands the remaining VIPER image to the far end designated by the
  /// segment's portInfo — e.g. an IP datagram across "the Internet as one
  /// logical hop".  @p info is the segment's portInfo, @p viper_bytes the
  /// encapsulated packet (trailer entry already appended).
  using TunnelTransmit = std::function<void(
      const wire::Bytes& info, wire::Bytes viper_bytes,
      const core::TypeOfService& tos)>;

  ViperRouter(sim::Simulator& sim, std::string name, RouterConfig config);

  void define_logical_port(std::uint8_t id, LogicalPort lp);

  /// Declares @p id a tunnel port served by @p transmit.
  void define_tunnel_port(std::uint8_t id, TunnelTransmit transmit);

  /// Blazenet-style deferral (§2.1): instead of dropping on a full output
  /// buffer, circulate the packet through a local delay line of @p latency
  /// and retry, up to @p max_recirculations times.  Applies to every port
  /// that has a buffer limit set.
  void enable_delay_lines(sim::Time latency, int max_recirculations = 10);

  /// Ingress of a packet decapsulated from a tunnel: processed as if it
  /// arrived on tunnel port @p tunnel_port_id; the reverse trailer entry
  /// names that port with @p reverse_info as its portInfo (the paper's
  /// network-specific return information — e.g. the far gateway's IP
  /// address learned from the encapsulation header).
  void inject_from_tunnel(std::uint8_t tunnel_port_id,
                          wire::Bytes viper_bytes, wire::Bytes reverse_info);

  /// Enables token enforcement against @p authority, charging @p ledger.
  void set_token_authority(const tokens::TokenAuthority* authority,
                           tokens::Ledger* ledger);

  /// Sets token enforcement (§2.2): whether packets must carry a valid
  /// token, what an uncached one meets, and the full decrypt+check time
  /// of an uncached token.  Off until called (Fabric::enable_tokens).
  void set_token_requirement(bool require, tokens::UncachedPolicy policy,
                             sim::Time verify_delay) {
    require_tokens_ = require;
    uncached_policy_ = policy;
    verify_delay_ = verify_delay;
  }

  /// Wires the router (and its token cache) to an observability sink:
  /// a `viper.<name>.hop_latency_ps` histogram (head arrival to earliest
  /// forward), `viper.<name>.token_*` outcome counters (bound to Stats
  /// fields), a `tokens.<name>.cache_entries` gauge, and — when a
  /// recorder is present — one kHop span per forwarded traced packet
  /// capturing the arrival / switch-decision / earliest-forward times, the
  /// cut-through vs store-and-forward choice and the token outcome.  When
  /// the observer carries a flow plane, every forwarded packet's
  /// obs::HopRecord (flow accounting + sampled capture) goes to this
  /// router's flow::FlowObserver and every ledger charge is mirrored to
  /// it.  All handles are resolved here once; an unobserved router pays
  /// one untaken branch per instrumentation point and builds no hop
  /// record.  Call set_observer after the last add_port().
  void set_observer(const obs::Observer& observer);

  /// Enables in-band path telemetry stamping: every forwarded packet whose
  /// Packet::telemetry mark is set gets one obs::HopTelemetry record
  /// appended to its trailer (after this hop's return entry, subject to the
  /// same MTU truncation as any trailer bytes).  Off by default; a disabled
  /// router is byte-identical to one built before telemetry existed.
  void set_path_telemetry(bool enabled) { telemetry_enabled_ = enabled; }

  void set_control_handler(ControlHandler handler) {
    control_handler_ = std::move(handler);
  }
  void set_shaper(Shaper shaper) { shaper_ = std::move(shaper); }

  /// Sends a control payload to the neighbour behind @p port_index,
  /// addressed to its local control endpoint.  Used by the congestion
  /// layer to push rate reports upstream.  The packet is encoded into a
  /// recycled arena slab, so a warm call allocates nothing.
  void send_control(int port_index, std::span<const std::uint8_t> payload,
                    std::uint8_t priority = 5);

  /// Congestion layer hands back a shaped packet for transmission.
  void emit_to_port(int out_port, net::PacketPtr packet, net::TxMeta meta,
                    sim::Time earliest_start);

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const RouterConfig& config() const { return config_; }
  [[nodiscard]] tokens::TokenCache& token_cache() { return token_cache_; }
  [[nodiscard]] std::uint32_t router_id() const { return config_.router_id; }

  /// The slab pool every forward rewrites into.
  [[nodiscard]] const net::PacketArena& arena() const { return arena_; }

  void on_arrival(const net::Arrival& arrival) override;

 private:
  /// How an image reached this hop: whether a link header precedes its
  /// first segment and whether its return entry is given rather than
  /// derived from the arrival — the tunnel port and far-end info on tunnel
  /// ingress, or the front's own return entry for a tree branch copy.
  /// A tree branch copy may not branch again at the same hop.
  struct Ingress {
    bool link_framed = false;
    bool given_return = false;
    std::uint8_t return_port = 0;
    std::span<const std::uint8_t> return_info;
    bool tree_branch = false;
  };

  /// The front of an image: its first segment as views into the image,
  /// and the return entry this hop appends for it.
  struct Front {
    SegmentView segment;
    std::size_t consumed = 0;  ///< link header + first segment
    std::uint8_t return_port = 0;
    /// Return entry portInfo: the reversed link header (LAN ingress), the
    /// tunnel's far-end info, or empty (VNT set).
    std::span<const std::uint8_t> return_info;
  };

  /// Stack storage for a LAN arrival's reversed link header, which
  /// Front::return_info points into.
  using LinkScratch =
      std::array<std::uint8_t, net::EthernetHeader::kWireSize>;

  [[nodiscard]] Ingress ingress_of(const net::Arrival& arrival) const {
    Ingress ingress;
    ingress.link_framed = port_kind(arrival.in_port) == PortKind::kLan;
    return ingress;
  }

  /// Parses the link header (when framed) and first segment of @p bytes
  /// into @p front.  Pure — no counters move; false when the front does
  /// not decode.
  bool parse_front(const net::Arrival& arrival,
                   std::span<const std::uint8_t> bytes,
                   const Ingress& ingress, LinkScratch& link,
                   Front& front) const;

  /// Per-packet dispatch of one image: control delivery, tree branching,
  /// tunnel, logical or physical port.
  void route(const net::Arrival& arrival, std::span<const std::uint8_t> bytes,
             const Ingress& ingress);
  /// Admission and the zero-copy rewrite into an arena slab, then
  /// enqueue.  @p was_blocked marks a re-entry after a blocking token
  /// admission, so the hop span keeps the miss-blocking outcome instead of
  /// the hit the retry sees.
  void forward_to_port(const net::Arrival& arrival, const Front& front,
                       int physical_port, std::span<const std::uint8_t> bytes,
                       const Ingress& ingress, bool was_blocked = false);
  /// kBlocking admission: re-runs forward_to_port() on a copy of the image
  /// once the verification has landed.
  void defer_blocked(const net::Arrival& arrival, int physical_port,
                     std::span<const std::uint8_t> bytes,
                     const Ingress& ingress, sim::Time delay);
  void deliver_control(const net::Arrival& arrival, const Front& front,
                       std::span<const std::uint8_t> bytes);
  void branch_tree(const net::Arrival& arrival, const Front& front,
                   std::span<const std::uint8_t> bytes);
  void forward_into_tunnel(const net::Arrival& arrival, const Front& front,
                           const TunnelTransmit& transmit,
                           std::span<const std::uint8_t> bytes);

  /// The one header rewrite: appends the remainder of @p bytes after the
  /// front, then this hop's return entry (return port, the segment's type
  /// of service, DIB mirrored from it, VNT when there is no portInfo, the
  /// token echoed when reversible).
  static void append_rewrite(wire::Bytes& out,
                             std::span<const std::uint8_t> bytes,
                             const Front& front, bool token_reversible);

  /// Token admission.  Returns nullopt when the packet must be dropped;
  /// otherwise the extra delay (0 for cache hits / optimistic) and whether
  /// the token authorizes the reverse route.
  struct TokenDecision {
    sim::Time extra_delay = 0;
    bool reversible = false;
    obs::TokenOutcome outcome = obs::TokenOutcome::kNone;
    std::uint32_t account = 0;  ///< charged account (cache hits only)
  };
  std::optional<TokenDecision> admit_token(const SegmentView& segment,
                                           std::size_t packet_bytes);

  /// When the switch decision happens and when output may start (§2.1).
  struct ForwardTiming {
    sim::Time decision = 0;  ///< header+segment in hand, route resolved
    sim::Time earliest = 0;  ///< decision + setup; output never earlier
    bool cut_through = false;
  };
  [[nodiscard]] ForwardTiming forward_timing(const net::Arrival& arrival,
                                             std::size_t consumed,
                                             int out_port) const;

  /// Appends the telemetry record of @p hop to @p out_bytes (the
  /// rewritten image, return entry already in place).  @p out is the
  /// egress TxPort whose queue state the record samples — null for tunnel
  /// egress.
  void stamp_telemetry(wire::Bytes& out_bytes, const obs::HopRecord& hop,
                       const net::TxPort* out);

  /// Accounts one forward, the one site both egress kinds share: counts
  /// it, then — when any plane is wired — fills its obs::HopRecord once
  /// and hands it to the telemetry stamp (into @p out_bytes, before the
  /// MTU cut), the hop-latency histogram, the flow plane and the kHop
  /// span.  @p out is as for stamp_telemetry.
  void record_forward(const net::Arrival& arrival, const Front& front,
                      int out_port, std::span<const std::uint8_t> bytes,
                      const ForwardTiming& timing,
                      const TokenDecision& decision, wire::Bytes& out_bytes,
                      const net::TxPort* out);

  RouterConfig config_;
  std::map<std::uint8_t, LogicalPort> logical_ports_;
  std::map<std::uint8_t, TunnelTransmit> tunnel_ports_;

  const tokens::TokenAuthority* authority_ = nullptr;
  tokens::Ledger* ledger_ = nullptr;
  bool require_tokens_ = false;
  tokens::UncachedPolicy uncached_policy_ = tokens::UncachedPolicy::kOptimistic;
  sim::Time verify_delay_ = 50 * sim::kMicrosecond;
  tokens::TokenCache token_cache_;
  std::unordered_set<std::uint64_t> pending_verifies_;

  /// Slab pool every forward rewrites into: a recycled slab keeps its
  /// byte capacity, so the steady-state rewrite allocates nothing.
  net::PacketArena arena_;

  ControlHandler control_handler_;
  /// send_control()'s route: one local segment addressed to the
  /// neighbour's control endpoint (its priority set per call).
  core::SourceRoute control_route_;
  Shaper shaper_;
  Stats stats_;
  bool telemetry_enabled_ = false;  ///< set_path_telemetry()

  // Observability handles, resolved once by set_observer(); null = off.
  stats::Histogram* obs_hop_latency_ = nullptr;
  obs::FlightRecorder* obs_recorder_ = nullptr;
  flow::FlowObserver* obs_flow_ = nullptr;  // scoped to this router's name
};

/// 8-byte local endpoint id carried in a port-0 segment's portInfo.
wire::Bytes encode_endpoint_id(std::uint64_t id);
/// The same id written over @p out, whose capacity is kept.
void encode_endpoint_id(std::uint64_t id, wire::Bytes& out);
std::optional<std::uint64_t> decode_endpoint_id(
    std::span<const std::uint8_t> info);

/// Well-known control endpoint present on every router and host.
inline constexpr std::uint64_t kControlEndpoint = 0xC0'00'00'00'00'00'00'01ULL;

}  // namespace srp::viper

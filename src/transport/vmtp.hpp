// VMTP-style request/response transport over Sirpent (paper §4).
//
// Implements the transport functions the paper relocates out of the
// internetwork layer:
//   * misdelivery detection via 64-bit entity ids "unique independent of
//     the (inter)network layer addressing" (§4.1),
//   * maximum-packet-lifetime enforcement via creation timestamps and
//     roughly synchronized clocks, replacing IP's TTL (§4.2),
//   * large logical packets as *packet groups* with rate-based pacing
//     between packets and selective retransmission, replacing
//     fragmentation/reassembly (§4.3).
//
// Responses travel on the return route recovered from the request packet's
// trailer, exercising Sirpent's core mechanism end to end.
//
// Once warm, a transaction allocates only the Result::response it hands
// to the caller (DESIGN.md §11).  A message is one buffer and its group
// parts are spans into it; a send due now encodes into a buffer the
// endpoint keeps and borrows the issued route; a completing packet
// replies through the live Delivery; reassembly keeps only a partial
// group's parts and the reply path its NACKs need; and the map nodes of
// finished transactions, completed groups and evicted served responses
// are recycled.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "directory/routes.hpp"
#include "sim/simulator.hpp"
#include "transport/header.hpp"
#include "transport/timestamp.hpp"
#include "transport/txn_core.hpp"
#include "viper/host.hpp"

namespace srp::vmtp {

/// Packets per packet group: one message is at most this many packets.
inline constexpr std::size_t kMaxGroup = 16;

struct VmtpConfig {
  /// Data bytes per packet ("roughly 1 kilobyte transport packet", §5).
  std::size_t max_data_per_packet = 1024;
  /// Pacing rate between packets of a group; 0 = unpaced.
  double send_rate_bps = 0.0;
  /// Initial / minimum retransmission timeout.
  sim::Time min_rto = 2 * sim::kMillisecond;
  /// Gap timeout: partial group triggers a selective NACK after this.
  sim::Time gap_timeout = sim::kMillisecond;
  int max_retries = 5;
  /// Maximum acceptable packet age (§4.2); generous by default.
  std::int64_t mpl_ms = 30'000;
  /// Clock-skew tolerance for packets stamped "in the future".
  std::int64_t future_skew_ms = 5'000;
  /// This host's clock offset from true time (skew injection).
  sim::Time clock_offset = 0;
  std::uint8_t priority = 0;
};

/// Outcome handed to the invoke() callback.
struct Result {
  bool ok = false;
  wire::Bytes response;
  sim::Time rtt = 0;
  int retransmissions = 0;
  std::string error;  ///< empty on success
};

class VmtpEndpoint {
 public:
  struct Stats {
    std::uint64_t requests_sent = 0;
    std::uint64_t responses_received = 0;
    std::uint64_t requests_served = 0;
    std::uint64_t data_packets_sent = 0;
    std::uint64_t retransmitted_packets = 0;
    std::uint64_t nacks_sent = 0;
    std::uint64_t nacks_received = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t failures = 0;       ///< transactions abandoned
    std::uint64_t mpl_discards = 0;   ///< too-old packets rejected
    std::uint64_t checksum_drops = 0;
    std::uint64_t misdeliveries = 0;  ///< wrong dst_entity
    std::uint64_t duplicate_requests = 0;
  };

  using RequestHandler = std::function<wire::Bytes(
      std::span<const std::uint8_t> request, const viper::Delivery& from)>;
  using ResponseCallback = std::function<void(Result)>;
  /// Invoked on hard transaction failure so the caller can tell its
  /// RouteCache (dir::RouteCache::report_failure) and retry elsewhere.
  using FailureHook = std::function<void()>;
  /// Invoked with each successful RTT sample (for RouteCache::report_rtt).
  using RttHook = std::function<void(sim::Time)>;

  VmtpEndpoint(sim::Simulator& sim, viper::ViperHost& host,
               std::uint64_t entity_id, VmtpConfig config = {});

  /// Unbinds the entity from its host (supporting migration: a new
  /// incarnation may bind the same id elsewhere, §4.1).  Destroying an
  /// endpoint with transactions still outstanding cancels their timers.
  ~VmtpEndpoint();
  VmtpEndpoint(const VmtpEndpoint&) = delete;
  VmtpEndpoint& operator=(const VmtpEndpoint&) = delete;

  /// Serves requests addressed to this entity.
  void serve(RequestHandler handler) { handler_ = std::move(handler); }

  /// Issues a request along @p route to @p server_entity.
  void invoke(const dir::IssuedRoute& route, std::uint64_t server_entity,
              std::span<const std::uint8_t> request,
              ResponseCallback callback);

  void set_failure_hook(FailureHook hook) { on_failure_ = std::move(hook); }
  void set_rtt_hook(RttHook hook) { on_rtt_ = std::move(hook); }

  /// Wires the endpoint to an observability sink: a
  /// `vmtp.<host>.rtt_ps` histogram plus `.timeouts` / `.failures` /
  /// `.retransmits` counters bound to stats() (endpoints sharing a host
  /// sum into one series), and — with a recorder — one kTxn span per
  /// completed client transaction (invoke to response/failure).
  void set_observer(const obs::Observer& observer);

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t entity_id() const { return entity_; }
  [[nodiscard]] HostClock& clock() { return clock_; }
  [[nodiscard]] sim::Time smoothed_rtt() const { return srtt_; }

  /// The pure transition cores this endpoint drives (txn_core.hpp).  All
  /// protocol decisions — reassembly masks, NACK contents, retry/failure —
  /// flow through these function pointers; the endpoint itself only
  /// interprets the returned actions.
  struct CoreHooks {
    TxnStepFn txn = &txn_step;
    RxStepFn rx = &rx_step;
  };

  /// Model-checker regression hook (tests/mc_regress): replaces the
  /// transition cores with deliberately broken variants from mc::mutants
  /// so counterexamples found by the explorer replay in the real sim.
  void set_core_hooks_for_test(const CoreHooks& hooks) { hooks_ = hooks; }

 private:
  /// (peer entity, transaction): the key of a server-side group.
  using PeerTxn = std::pair<std::uint64_t, std::uint32_t>;

  /// Where one part's bytes lie in GroupRx::arrived.
  struct Extent {
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
  };

  /// Reassembly state for one incoming packet group.  It is recycled from
  /// group to group, so its buffer keeps its capacity.
  struct GroupRx {
    wire::Bytes arrived;  ///< accepted parts, in arrival order
    std::array<Extent, 32> parts{};  ///< by index; group_size <= 32 on the wire
    std::uint32_t received_mask = 0;
    std::uint8_t group_size = 0;
    /// The latest part's reply path, for a gap NACK.  Not refreshed by
    /// the completing part, which replies through its own Delivery.
    viper::ReplyPath reply_via;
    sim::EventId gap_timer = 0;

    // Declared here, defaulted in the .cpp: the spare node members below
    // need the constructor before this class's initializers are complete.
    GroupRx();
    /// Empties the group, keeping every buffer's capacity.
    void reset();
    /// Stores part @p index (a later copy replaces an earlier one).
    void accept(std::uint8_t index, std::span<const std::uint8_t> payload);
    /// Writes the parts, in index order, over @p out.
    void assemble(wire::Bytes& out) const;
  };

  /// Sender state for one outstanding transaction (client side).
  struct TxState {
    dir::IssuedRoute route;
    std::uint64_t server = 0;
    wire::Bytes request;  ///< the whole message; its parts are spans
    ResponseCallback callback;
    sim::Time started = 0;
    int retries = 0;
    sim::EventId rto_timer = 0;
    GroupRx response;

    TxState();  // see GroupRx()
  };

  void on_delivery(const viper::Delivery& delivery);
  void handle_request_packet(const TransportPacket& packet,
                             const viper::Delivery& delivery);
  void handle_response_packet(const TransportPacket& packet,
                              const viper::Delivery& delivery);
  void handle_nack(const TransportPacket& packet,
                   const viper::Delivery& delivery);

  bool lifetime_ok(const Header& header);

  /// Packets in the group carrying a @p bytes message (an empty message is
  /// one empty packet).
  [[nodiscard]] std::size_t part_count(std::size_t bytes) const;
  /// part_count, throwing std::invalid_argument past one packet group.
  [[nodiscard]] std::uint8_t group_size_for(std::size_t bytes) const;

  /// Sends the parts of @p message selected by @p mask (bit i => send part
  /// i) with rate pacing, via direct route or reply path.
  void send_group(const Header& base, std::span<const std::uint8_t> message,
                  std::uint32_t mask, const dir::IssuedRoute* route,
                  const viper::ReplyPath* reply_via);

  void send_one(const Header& header, std::span<const std::uint8_t> payload,
                const dir::IssuedRoute* route,
                const viper::ReplyPath* reply_via, sim::Time when);

  void arm_rto(std::uint32_t transaction);
  void on_rto(std::uint32_t transaction);
  void arm_gap_timer(GroupRx& rx, std::uint64_t peer,
                     std::uint32_t transaction, PacketType kind);
  /// Runs the handler on the assembled request_ and sends its response
  /// through @p via, the completing packet's delivery.
  void complete_request(std::uint64_t peer, std::uint32_t transaction,
                        const viper::Delivery& via);
  /// Keeps @p response for duplicate suppression, evicting the oldest
  /// entry at kServedCap; returns the kept bytes.
  const wire::Bytes& remember_served(const PeerTxn& key,
                                     wire::Bytes response);
  void finish(std::uint32_t transaction, Result result);

  void observe_rtt(sim::Time rtt);
  [[nodiscard]] sim::Time rto() const;

  /// Completed transactions remembered per endpoint.
  static constexpr std::size_t kServedCap = 4096;

  sim::Simulator& sim_;
  viper::ViperHost& host_;
  std::uint64_t entity_;
  VmtpConfig config_;
  CoreHooks hooks_;
  HostClock clock_;

  RequestHandler handler_;
  FailureHook on_failure_;
  RttHook on_rtt_;

  std::uint32_t next_transaction_ = 1;
  std::map<std::uint32_t, TxState> outstanding_;
  std::map<PeerTxn, GroupRx> inbound_;
  /// Server-side memory of completed transactions' responses, for
  /// duplicate suppression and response retransmission.
  std::map<PeerTxn, wire::Bytes> served_;
  /// served_'s keys, oldest first from served_oldest_ (a ring once full).
  std::vector<PeerTxn> served_order_;
  std::size_t served_oldest_ = 0;

  // A finished transaction and a completed group leave their map node
  // here for the next one (an evicted served entry feeds its successor
  // directly).
  decltype(outstanding_)::node_type spare_txn_;
  decltype(inbound_)::node_type spare_group_;

  wire::Bytes tx_packet_;  ///< a send due now is encoded here
  wire::Bytes request_;    ///< the request a completing group assembles

  sim::Time srtt_ = 0;
  Stats stats_;

  // Observability handles, resolved once by set_observer(); null = off.
  stats::Histogram* obs_rtt_ = nullptr;
  obs::FlightRecorder* obs_recorder_ = nullptr;
};

}  // namespace srp::vmtp

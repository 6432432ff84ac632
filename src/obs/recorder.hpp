// Per-packet hop tracing: spans and the bounded flight recorder.
//
// A traced packet carries a trace id (Packet::trace_id, minted by the
// sending host); every instrumented component appends one SpanRecord per
// observed event to a FlightRecorder — a bounded ring that overwrites its
// oldest entries, so tracing can stay on for arbitrarily long soak runs
// with a fixed memory footprint.  Spans are fixed-size PODs (no heap on
// the record path) and export to Chrome trace-event JSON (obs/export.hpp)
// for viewing in Perfetto.
//
// record() is one increment plus a plain slot write.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace srp::stats {
class Registry;
}  // namespace srp::stats

namespace srp::flow {
class FlowPlane;
}  // namespace srp::flow

namespace srp::obs {

enum class SpanKind : std::uint8_t {
  kHop,       // one VIPER router traversal (arrival -> forward decision)
  kTx,        // one port transmission (queue wait + wire time)
  kThrottle,  // congestion shaper held or paced a packet (instant)
  kVerify,    // token-cache miss verification window
  kDeliver,   // end-to-end delivery at the destination host
  kTxn,       // one VMTP request/response transaction
  kSample,    // flow sampler captured this packet (instant, with excerpt)
  kIntHop,    // in-band telemetry hop, reconstructed at the sink from the
              // packet's trailer (obs::PathCollector)
  kAlert,     // health-plane alert transition (instant; src/health)
};

/// How the router's token admission resolved for this hop.
enum class TokenOutcome : std::uint8_t {
  kNone,            // enforcement off / no token consulted
  kHit,             // cache hit, forwarded immediately
  kMissOptimistic,  // miss, forwarded while verifying
  kMissBlocking,    // miss, held until verification finished
  kMissDrop,        // miss, dropped per policy
  kRejected,        // flagged/expired/port-mismatch reject
};

[[nodiscard]] std::string_view to_string(SpanKind kind);
[[nodiscard]] std::string_view to_string(TokenOutcome outcome);

/// One traced event.  Fixed size, trivially copyable; the component name
/// is truncated into an inline buffer so recording never allocates.
struct SpanRecord {
  /// Header-excerpt capacity for kSample spans (enough for a link header
  /// plus the fixed part of a VIPER segment).
  static constexpr std::size_t kExcerptSize = 16;

  std::uint64_t trace_id = 0;
  std::uint32_t hop = 0;  // position along the route (Packet::hops)
  SpanKind kind = SpanKind::kHop;
  TokenOutcome token = TokenOutcome::kNone;
  bool cut_through = false;
  std::uint16_t in_port = 0;
  std::uint16_t out_port = 0;
  sim::Time start = 0;        // e.g. head arrival time
  sim::Time decision = 0;     // when the switch decision was made
  sim::Time end = 0;          // e.g. earliest forward / departure time
  sim::Time queue_delay = 0;  // time spent queued, when known
  std::array<char, 24> component{};  // NUL-terminated node/port name
  std::uint8_t excerpt_len = 0;      // kSample: captured header bytes
  std::array<std::uint8_t, kExcerptSize> excerpt{};

  void set_component(std::string_view name);
  [[nodiscard]] std::string_view component_view() const;
  /// Copies up to kExcerptSize bytes of @p header into the span.
  void set_excerpt(std::span<const std::uint8_t> header);
};

/// Bounded span ring ("flight recorder").  Capacity is rounded
/// up to a power of two; once full, new spans overwrite the oldest and
/// dropped() counts the overwrites.
class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 14;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  void record(const SpanRecord& span) {
    ring_[head_++ & mask_] = span;
  }

  /// Total spans ever recorded (including overwritten ones).
  [[nodiscard]] std::uint64_t recorded() const { return head_; }
  /// Spans lost to ring wrap-around.
  [[nodiscard]] std::uint64_t dropped() const {
    const auto n = recorded();
    return n > ring_.size() ? n - ring_.size() : 0;
  }
  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }

  /// Retained spans, oldest first.
  [[nodiscard]] std::vector<SpanRecord> spans() const;

  /// Forgets all spans (counts included).
  void clear();

 private:
  std::vector<SpanRecord> ring_;
  std::size_t mask_;
  std::uint64_t head_ = 0;
};

/// One forward at one router: every per-hop fact, worked out once.  The
/// router fills one per forward when any plane is wired, and each reader
/// takes the fields it needs: the hop-latency histogram, the flow plane
/// (flow::FlowObserver::on_forward), the kHop span and the in-band
/// telemetry stamp (obs::to_telemetry).  The header span points into the
/// router's buffer and is valid only for the duration of the forward.
struct HopRecord {
  std::uint64_t trace_id = 0;      ///< nonzero when the packet is traced
  std::uint64_t packet_id = 0;
  std::uint64_t route_digest = 0;  ///< whole-route identity (0 = unknown)
  std::uint32_t account = 0;       ///< from the validated token (0 = none)
  std::uint32_t hop = 0;           ///< Packet::hops at this router
  std::uint8_t tos_class = 0;      ///< type-of-service priority field
  TokenOutcome token = TokenOutcome::kNone;
  bool cut_through = false;        ///< vs store-and-forward for this hop
  std::uint16_t in_port = 0;
  std::uint16_t out_port = 0;
  std::uint32_t bytes = 0;         ///< wire bytes admitted (= bytes charged)
  sim::Time head = 0;              ///< head arrival at the router
  sim::Time decision = 0;          ///< switch decision
  sim::Time earliest = 0;          ///< earliest forward (decision + setup)
  /// Link header + first VIPER segment as received — the excerpt source
  /// for sampled-packet capture.
  std::span<const std::uint8_t> header;
};

/// The span @p hop makes at @p component: kHop (arrival, decision and
/// earliest forward, under the packet's trace id) or kSample (an instant
/// at the earliest forward carrying the header excerpt; an untraced
/// packet falls back to its packet id so the span still names it).
[[nodiscard]] SpanRecord span_of(const HopRecord& hop, SpanKind kind,
                                 std::string_view component);

/// The sinks a component needs to be observable.  Any pointer may be null
/// (metrics without tracing, tracing without flow accounting, ...);
/// components cache the handles they need at set_observer() time so the
/// per-packet cost of a disabled observer is one branch on a null pointer.
struct Observer {
  stats::Registry* registry = nullptr;
  FlightRecorder* recorder = nullptr;
  flow::FlowPlane* flow = nullptr;  ///< flow accounting plane (src/flow)
};

}  // namespace srp::obs

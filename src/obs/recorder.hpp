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
// Threading contract: record() is lock-free (one relaxed fetch_add plus a
// plain slot write) and may be called from any thread; spans() is a
// quiescent read, valid at batch boundaries (sim thread idle, worker pool
// drained).  Concurrent writers race on a slot only if the recorder wraps
// more than once within one batch — size the capacity for the batch
// volume (the default holds 16Ki spans).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace srp::stats {
class Registry;
}  // namespace srp::stats

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

/// Bounded lock-free span ring ("flight recorder").  Capacity is rounded
/// up to a power of two; once full, new spans overwrite the oldest and
/// dropped() counts the overwrites.
class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 14;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  void record(const SpanRecord& span) {
    const auto seq = head_.fetch_add(1, std::memory_order_relaxed);
    ring_[seq & mask_] = span;
  }

  /// Total spans ever recorded (including overwritten ones).
  [[nodiscard]] std::uint64_t recorded() const {
    return head_.load(std::memory_order_relaxed);
  }
  /// Spans lost to ring wrap-around.
  [[nodiscard]] std::uint64_t dropped() const {
    const auto n = recorded();
    return n > ring_.size() ? n - ring_.size() : 0;
  }
  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }

  /// Retained spans, oldest first.  Quiescent read: call at a batch
  /// boundary only.
  [[nodiscard]] std::vector<SpanRecord> spans() const;

  /// Forgets all spans (counts included).  Quiescent only.
  void clear();

 private:
  std::vector<SpanRecord> ring_;
  std::size_t mask_;
  std::atomic<std::uint64_t> head_{0};
};

class FlowSink;  // obs/flow_sink.hpp

/// The sinks a component needs to be observable.  Any pointer may be null
/// (metrics without tracing, tracing without flow accounting, ...);
/// components cache the handles they need at set_observer() time so the
/// per-packet cost of a disabled observer is one branch on a null pointer.
struct Observer {
  stats::Registry* registry = nullptr;
  FlightRecorder* recorder = nullptr;
  FlowSink* flow = nullptr;  ///< flow accounting plane (obs/flow_sink.hpp)

  [[nodiscard]] bool has_metrics() const { return registry != nullptr; }
  [[nodiscard]] bool has_tracing() const { return recorder != nullptr; }
  [[nodiscard]] bool has_flow() const { return flow != nullptr; }
};

}  // namespace srp::obs

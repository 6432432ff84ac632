// In-band path telemetry (INT riding the Sirpent trailer).
//
// The trailer already makes every packet a path recorder: each router
// moves the consumed header segment to the tail, so the sink sees where
// the packet went (paper §2).  Path telemetry extends that record with
// *what happened* at each hop: a telemetry-marked packet (sampled at the
// origin host by a flow::Sampler) additionally receives one fixed-size
// HopTelemetry record per router, appended right after the hop's reversed
// return entry.  On the wire a record is a pseudo-segment that is "not a
// legal Sirpent header segment" — TRM set, like the truncation mark — so
// no router ever routes by it, and it shares the trailer's truncation
// semantics: an MTU cut may slice through the newest record exactly as it
// slices any trailer bytes.
//
// At the sink, PathCollector turns the records back into a per-hop
// latency/queue profile: hop spans (SpanKind::kIntHop) under the packet's
// trace id, `int.*` histograms/counters in the stats::Registry, an
// end-to-end latency attribution (per-hop switch time vs residual
// wire/propagation time), and drop localization — a malformed or
// truncated arrival still carries the last hop that stamped it, the
// "postcard" naming where the packet last was intact.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "check/analysis.hpp"
#include "obs/recorder.hpp"
#include "sim/time.hpp"
#include "stats/registry.hpp"

namespace srp::obs {

/// Encoded HopTelemetry payload size: the portInfo of a telemetry
/// pseudo-segment is exactly this long, making the whole record
/// 4 (segment prefix) + 32 bytes per hop on the wire.
inline constexpr std::size_t kHopTelemetryWire = 32;

/// Stamping stops once a packet has traversed this many hops — the same
/// bound as core::kMaxSegments, so a telemetry trailer can never outgrow
/// the route that produced it.  Routers count the skip
/// (Stats::telemetry_overflow) instead of stamping.
inline constexpr std::uint32_t kMaxTelemetryHops = 48;

/// One router's in-band record.  Fixed-size, trivially copyable; encoded
/// big-endian into exactly kHopTelemetryWire octets:
///
///   [0..4)   router_id        [4] hop          [5]  egress_port
///   [6]      token outcome    [7] flag bits (0: cut-through, 1: egress
///                                 port down at stamp time)
///   [8..16)  arrival_ps       [16..24) depart_ps
///   [24..28) queue_wait_ps    [28..30) queue_depth   [30..32) in_port
struct HopTelemetry {
  std::uint32_t router_id = 0;
  std::uint8_t hop = 0;           ///< Packet::hops at the stamping router
  std::uint8_t egress_port = 0;
  TokenOutcome token = TokenOutcome::kNone;
  bool cut_through = false;
  bool egress_down = false;       ///< link-flap bit: out port was down
  std::uint64_t arrival_ps = 0;   ///< head arrival at the router
  std::uint64_t depart_ps = 0;    ///< earliest forward (decision + setup)
  std::uint32_t queue_wait_ps = 0;  ///< est. drain time of queued-ahead
                                    ///  bytes on the egress port, clamped
  std::uint16_t queue_depth = 0;  ///< packets queued on the egress port
  std::uint16_t in_port = 0;

  bool operator==(const HopTelemetry&) const = default;

  /// Per-hop router latency this record witnesses.
  [[nodiscard]] sim::Time hop_latency() const {
    return static_cast<sim::Time>(depart_ps) -
           static_cast<sim::Time>(arrival_ps);
  }

  /// Encodes into exactly kHopTelemetryWire bytes at @p out.data().
  /// Allocation-free: the router stamps through a stack buffer.
  SRP_HOT_PATH void encode(std::span<std::uint8_t> out) const;
};

/// The record router @p router_id stamps for @p hop.  The egress-port
/// sample (egress_down, queue_wait_ps, queue_depth) is left for the
/// router, which owns the port.
[[nodiscard]] HopTelemetry to_telemetry(const HopRecord& hop,
                                        std::uint32_t router_id);

/// Decodes one payload; nullopt unless it is exactly kHopTelemetryWire
/// bytes with a representable token outcome.
[[nodiscard]] std::optional<HopTelemetry> decode_hop_telemetry(
    std::span<const std::uint8_t> payload);

/// Scans @p bytes for the *last* telemetry pseudo-segment (4-byte prefix
/// [32][0][core::kTelemetryPort][TRM<<4] followed by a whole payload) —
/// the postcard a damaged or truncated packet still carries from the
/// last router that stamped it.  Byte-signature scan, not a parse: it
/// works on images whose framing no longer decodes.
[[nodiscard]] std::optional<HopTelemetry> last_postcard(
    std::span<const std::uint8_t> bytes);

/// Stable digest of the *realized* path a record list witnesses — the
/// (router_id, in_port, egress_port) sequence in hop order.  Packets that
/// took the same physical path hash identically; the collector keys its
/// per-path series on this.
[[nodiscard]] std::uint64_t path_digest(
    std::span<const HopTelemetry> hops);

struct PathCollectorConfig {
  /// Reconstructed PathRecords retained for inspection (ring; oldest out).
  std::size_t max_records = 1024;
};

/// One reconstructed packet journey.
struct PathRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t packet_id = 0;
  std::uint64_t digest = 0;       ///< path_digest() of `hops`
  sim::Time sent_at = 0;
  sim::Time delivered_at = 0;
  bool truncated = false;
  std::vector<HopTelemetry> hops;  ///< ascending hop order

  /// Sum of the per-hop router latencies the records witness.
  [[nodiscard]] sim::Time stamped_latency() const;
  /// End-to-end minus stamped: wire, propagation and host share.
  [[nodiscard]] sim::Time residual_latency() const {
    const sim::Time e2e = delivered_at - sent_at;
    const sim::Time stamped = stamped_latency();
    return e2e > stamped ? e2e - stamped : 0;
  }
};

/// Delivery-side metadata handed to the collector by the sink host.
struct DeliveredTelemetry {
  std::uint64_t trace_id = 0;
  std::uint64_t packet_id = 0;
  sim::Time sent_at = 0;
  sim::Time delivered_at = 0;
  bool truncated = false;
};

/// Sink-side reconstruction.  One collector serves a whole fabric: every
/// host feeds its marked deliveries (and malformed arrivals) here.  All
/// observability handles are resolved once at construction; a collector
/// built with null sinks still reconstructs records for inspection.
class PathCollector {
 public:
  struct Totals {
    std::uint64_t packets = 0;        ///< marked deliveries reconstructed
    std::uint64_t hops_stamped = 0;   ///< telemetry records decoded
    std::uint64_t truncated = 0;      ///< marked deliveries cut in flight
    std::uint64_t decode_errors = 0;  ///< malformed telemetry payloads
    std::uint64_t drops_localized = 0;  ///< postcards recovered from
                                        ///  malformed/truncated arrivals
    std::uint64_t paths = 0;            ///< distinct realized paths
    std::uint64_t paths_overflow = 0;   ///< beyond the first 32 paths
  };

  PathCollector(stats::Registry* registry, FlightRecorder* recorder,
                PathCollectorConfig config = {});
  PathCollector(const PathCollector&) = delete;  // the registry reads totals_
  PathCollector& operator=(const PathCollector&) = delete;

  /// A marked packet was delivered: @p hops are its decoded telemetry
  /// records (any order; re-sorted by hop number), @p decode_errors the
  /// records whose payload did not decode.  Emits kIntHop spans, feeds
  /// the `int.*` metrics and retains a PathRecord.
  void on_delivery(const DeliveredTelemetry& delivered,
                   std::vector<HopTelemetry> hops,
                   std::size_t decode_errors = 0);

  /// A marked packet arrived too damaged to parse: recover the last
  /// postcard from the raw image and localize where it was last intact.
  void on_malformed_arrival(std::span<const std::uint8_t> bytes);

  [[nodiscard]] const Totals& totals() const { return totals_; }
  /// Reconstructed journeys, oldest first (bounded by max_records).
  [[nodiscard]] const std::vector<PathRecord>& records() const {
    return records_;
  }
  /// Postcard count by last-stamping router id — the drop-localization
  /// verdict: packets damaged *after* that router.
  [[nodiscard]] const std::map<std::uint32_t, std::uint64_t>&
  drops_after_router() const {
    return drops_after_router_;
  }
  [[nodiscard]] const PathCollectorConfig& config() const { return config_; }

 private:
  struct PathSeries {
    std::uint64_t packets = 0;  ///< `int.p<digest>.packets` source
    stats::Histogram* e2e_ps = nullptr;
  };
  PathSeries& series_for(std::uint64_t digest);
  void localize(const HopTelemetry& postcard);

  PathCollectorConfig config_;
  stats::Registry* registry_ = nullptr;
  FlightRecorder* recorder_ = nullptr;
  Totals totals_;
  std::vector<PathRecord> records_;
  std::size_t next_record_ = 0;  ///< ring cursor once max_records reached
  std::map<std::uint64_t, PathSeries> series_;
  std::map<std::uint32_t, std::uint64_t> drops_after_router_;

  // Aggregate handles, resolved at construction; null = metrics off.  The
  // `int.path.*` counters are bound to totals_.
  stats::Gauge* m_paths_ = nullptr;
  stats::Histogram* m_hop_latency_ = nullptr;
  stats::Histogram* m_queue_depth_ = nullptr;
  stats::Histogram* m_queue_wait_ = nullptr;
  stats::Histogram* m_e2e_ = nullptr;
  stats::Histogram* m_residual_ = nullptr;
  stats::Histogram* m_drop_last_hop_ = nullptr;
};

}  // namespace srp::obs

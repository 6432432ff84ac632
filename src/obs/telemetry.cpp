#include "obs/telemetry.hpp"

#include <algorithm>
#include <array>
#include <limits>

#include "check/contract.hpp"
#include "core/segment.hpp"
#include "sim/random.hpp"
#include "viper/codec.hpp"

namespace srp::obs {
namespace {

/// Distinct realized paths given their own `int.p<digest>.*` series;
/// beyond this, packets still aggregate but count paths_overflow.
constexpr std::size_t kMaxPaths = 32;

void put_u16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v);
}

void put_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

void put_u64(std::uint8_t* p, std::uint64_t v) {
  put_u32(p, static_cast<std::uint32_t>(v >> 32));
  put_u32(p + 4, static_cast<std::uint32_t>(v));
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] << 8 | p[1]);
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) << 24 |
         static_cast<std::uint32_t>(p[1]) << 16 |
         static_cast<std::uint32_t>(p[2]) << 8 |
         static_cast<std::uint32_t>(p[3]);
}

std::uint64_t get_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(get_u32(p)) << 32 | get_u32(p + 4);
}

constexpr std::uint8_t kFlagCutThrough = 0x01;
constexpr std::uint8_t kFlagEgressDown = 0x02;

/// Largest TokenOutcome enumerator: decode rejects anything beyond it.
constexpr std::uint8_t kMaxOutcome =
    static_cast<std::uint8_t>(TokenOutcome::kRejected);

std::string hex16(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (std::size_t i = 0; i < 16; ++i) {
    out[15 - i] = kDigits[(v >> (4 * i)) & 0xF];
  }
  return out;
}

}  // namespace

SRP_HOT_PATH void HopTelemetry::encode(std::span<std::uint8_t> out) const {
  SIRPENT_EXPECTS(out.size() == kHopTelemetryWire);
  std::uint8_t* p = out.data();
  put_u32(p, router_id);
  p[4] = hop;
  p[5] = egress_port;
  p[6] = static_cast<std::uint8_t>(token);
  p[7] = static_cast<std::uint8_t>((cut_through ? kFlagCutThrough : 0) |
                                   (egress_down ? kFlagEgressDown : 0));
  put_u64(p + 8, arrival_ps);
  put_u64(p + 16, depart_ps);
  put_u32(p + 24, queue_wait_ps);
  put_u16(p + 28, queue_depth);
  put_u16(p + 30, in_port);
}

HopTelemetry to_telemetry(const HopRecord& hop, std::uint32_t router_id) {
  HopTelemetry t;
  t.router_id = router_id;
  t.hop = static_cast<std::uint8_t>(hop.hop);
  t.egress_port = static_cast<std::uint8_t>(hop.out_port);
  t.token = hop.token;
  t.cut_through = hop.cut_through;
  t.in_port = hop.in_port;
  t.arrival_ps = static_cast<std::uint64_t>(hop.head);
  t.depart_ps = static_cast<std::uint64_t>(hop.earliest);
  return t;
}

std::optional<HopTelemetry> decode_hop_telemetry(
    std::span<const std::uint8_t> payload) {
  if (payload.size() != kHopTelemetryWire) return std::nullopt;
  const std::uint8_t* p = payload.data();
  if (p[6] > kMaxOutcome) return std::nullopt;
  if ((p[7] & ~(kFlagCutThrough | kFlagEgressDown)) != 0) return std::nullopt;
  HopTelemetry t;
  t.router_id = get_u32(p);
  t.hop = p[4];
  t.egress_port = p[5];
  t.token = static_cast<TokenOutcome>(p[6]);
  t.cut_through = (p[7] & kFlagCutThrough) != 0;
  t.egress_down = (p[7] & kFlagEgressDown) != 0;
  t.arrival_ps = get_u64(p + 8);
  t.depart_ps = get_u64(p + 16);
  t.queue_wait_ps = get_u32(p + 24);
  t.queue_depth = get_u16(p + 28);
  t.in_port = get_u16(p + 30);
  return t;
}

std::optional<HopTelemetry> last_postcard(
    std::span<const std::uint8_t> bytes) {
  // The record's segment prefix is four fixed octets: portInfo length 32,
  // token length 0, the reserved telemetry port, and a flags/priority
  // octet that is exactly TRM<<4 (VNT clear, priority 0).  Scan for the
  // last occurrence followed by a whole payload that decodes.
  static constexpr std::size_t kRecordWire = 4 + kHopTelemetryWire;
  if (bytes.size() < kRecordWire) return std::nullopt;
  const std::uint8_t kPrefix[4] = {
      static_cast<std::uint8_t>(kHopTelemetryWire), 0, core::kTelemetryPort,
      static_cast<std::uint8_t>(viper::kFlagTrm << 4)};
  for (std::size_t i = bytes.size() - kRecordWire + 1; i-- > 0;) {
    if (bytes[i] != kPrefix[0] || bytes[i + 1] != kPrefix[1] ||
        bytes[i + 2] != kPrefix[2] || bytes[i + 3] != kPrefix[3]) {
      continue;
    }
    const auto decoded =
        decode_hop_telemetry(bytes.subspan(i + 4, kHopTelemetryWire));
    if (decoded.has_value()) return decoded;
  }
  return std::nullopt;
}

std::uint64_t path_digest(std::span<const HopTelemetry> hops) {
  // FNV-1a over the realized (router, in-port, out-port) sequence, each
  // value little-endian: path-identifying but timing-blind.
  std::uint64_t h = sim::fnv1a({});
  const auto mix = [&h](std::uint64_t v) {
    std::array<char, 8> le;
    for (std::size_t i = 0; i < le.size(); ++i) {
      le[i] = static_cast<char>(v >> (8 * i));
    }
    h = sim::fnv1a({le.data(), le.size()}, h);
  };
  for (const HopTelemetry& hop : hops) {
    mix(hop.router_id);
    mix(static_cast<std::uint64_t>(hop.in_port) << 16 | hop.egress_port);
  }
  return h;
}

sim::Time PathRecord::stamped_latency() const {
  sim::Time total = 0;
  for (const HopTelemetry& hop : hops) total += hop.hop_latency();
  return total;
}

PathCollector::PathCollector(stats::Registry* registry,
                             FlightRecorder* recorder,
                             PathCollectorConfig config)
    : config_(config), registry_(registry), recorder_(recorder) {
  if (config_.max_records == 0) config_.max_records = 1;
  if (registry_ == nullptr) return;
  registry_->counter("int.path.packets", totals_.packets);
  registry_->counter("int.path.hops_stamped", totals_.hops_stamped);
  registry_->counter("int.path.truncated", totals_.truncated);
  registry_->counter("int.path.decode_errors", totals_.decode_errors);
  registry_->counter("int.path.drops_localized", totals_.drops_localized);
  registry_->counter("int.path.paths_overflow", totals_.paths_overflow);
  m_paths_ = &registry_->gauge("int.path.paths");
  m_hop_latency_ = &registry_->histogram("int.path.hop_latency_ps");
  m_queue_depth_ = &registry_->histogram("int.path.queue_depth");
  m_queue_wait_ = &registry_->histogram("int.path.queue_wait_ps");
  m_e2e_ = &registry_->histogram("int.path.e2e_ps");
  m_residual_ = &registry_->histogram("int.path.residual_ps");
  m_drop_last_hop_ = &registry_->histogram("int.path.drop_last_hop");
}

PathCollector::PathSeries& PathCollector::series_for(std::uint64_t digest) {
  const auto it = series_.find(digest);
  if (it != series_.end()) return it->second;
  const bool named = series_.size() < kMaxPaths;
  if (!named) totals_.paths_overflow += 1;
  totals_.paths = series_.size() + 1;
  if (m_paths_ != nullptr) {
    m_paths_->set(static_cast<std::int64_t>(totals_.paths));
  }
  // Bind after the emplace: map nodes never move, so the series' packet
  // count can be a registry source.
  PathSeries& series = series_[digest];
  if (registry_ != nullptr && named) {
    const std::string path = "p" + hex16(digest);
    registry_->counter("int." + path + ".packets", series.packets);
    series.e2e_ps = &registry_->histogram("int." + path + ".e2e_ps");
  }
  return series;
}

void PathCollector::localize(const HopTelemetry& postcard) {
  totals_.drops_localized += 1;
  drops_after_router_[postcard.router_id] += 1;
  if (m_drop_last_hop_ != nullptr) m_drop_last_hop_->record(postcard.hop);
}

void PathCollector::on_delivery(const DeliveredTelemetry& delivered,
                                std::vector<HopTelemetry> hops,
                                std::size_t decode_errors) {
  // Hop number, not trailer position, orders the path, so the collector
  // state does not depend on the order a caller walked the trailer in.
  std::sort(hops.begin(), hops.end(),
            [](const HopTelemetry& a, const HopTelemetry& b) {
              return a.hop < b.hop;
            });

  totals_.packets += 1;
  totals_.hops_stamped += hops.size();
  totals_.decode_errors += decode_errors;

  PathRecord record;
  record.trace_id = delivered.trace_id;
  record.packet_id = delivered.packet_id;
  record.sent_at = delivered.sent_at;
  record.delivered_at = delivered.delivered_at;
  record.truncated = delivered.truncated;
  record.hops = std::move(hops);
  record.digest = path_digest(record.hops);

  for (const HopTelemetry& hop : record.hops) {
    if (m_hop_latency_ != nullptr) {
      m_hop_latency_->record(static_cast<std::uint64_t>(hop.hop_latency()));
    }
    if (m_queue_depth_ != nullptr) m_queue_depth_->record(hop.queue_depth);
    if (m_queue_wait_ != nullptr) m_queue_wait_->record(hop.queue_wait_ps);
    if (recorder_ != nullptr && record.trace_id != 0) {
      // The reconstructed hop as a child slice under the packet's trace:
      // Perfetto shows it nested beside the router's own kHop span, which
      // the chaos harness proves it agrees with.
      SpanRecord span;
      span.trace_id = record.trace_id;
      span.hop = hop.hop;
      span.kind = SpanKind::kIntHop;
      span.token = hop.token;
      span.cut_through = hop.cut_through;
      span.in_port = hop.in_port;
      span.out_port = hop.egress_port;
      span.start = static_cast<sim::Time>(hop.arrival_ps);
      span.decision = static_cast<sim::Time>(hop.arrival_ps);
      span.end = static_cast<sim::Time>(hop.depart_ps);
      span.queue_delay = hop.queue_wait_ps;
      span.set_component("int.r" + std::to_string(hop.router_id));
      recorder_->record(span);
    }
  }

  const auto e2e =
      static_cast<std::uint64_t>(record.delivered_at - record.sent_at);
  if (m_e2e_ != nullptr) m_e2e_->record(e2e);
  if (m_residual_ != nullptr) {
    m_residual_->record(static_cast<std::uint64_t>(record.residual_latency()));
  }
  PathSeries& series = series_for(record.digest);
  ++series.packets;
  if (series.e2e_ps != nullptr) series.e2e_ps->record(e2e);

  if (record.truncated) {
    totals_.truncated += 1;
    // A truncated arrival is a partial loss: the newest surviving record
    // names the last router the trailer cleared intact.
    if (!record.hops.empty()) localize(record.hops.back());
  }

  if (records_.size() < config_.max_records) {
    records_.push_back(std::move(record));
  } else {
    records_[next_record_] = std::move(record);
    next_record_ = (next_record_ + 1) % config_.max_records;
  }
}

void PathCollector::on_malformed_arrival(
    std::span<const std::uint8_t> bytes) {
  const auto postcard = last_postcard(bytes);
  if (!postcard.has_value()) return;
  localize(*postcard);
}

}  // namespace srp::obs

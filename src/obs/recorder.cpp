#include "obs/recorder.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace srp::obs {

std::string_view to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::kHop: return "hop";
    case SpanKind::kTx: return "tx";
    case SpanKind::kThrottle: return "throttle";
    case SpanKind::kVerify: return "verify";
    case SpanKind::kDeliver: return "deliver";
    case SpanKind::kTxn: return "txn";
    case SpanKind::kSample: return "sample";
    case SpanKind::kIntHop: return "int_hop";
    case SpanKind::kAlert: return "alert";
  }
  return "?";
}

std::string_view to_string(TokenOutcome outcome) {
  switch (outcome) {
    case TokenOutcome::kNone: return "none";
    case TokenOutcome::kHit: return "hit";
    case TokenOutcome::kMissOptimistic: return "miss_optimistic";
    case TokenOutcome::kMissBlocking: return "miss_blocking";
    case TokenOutcome::kMissDrop: return "miss_drop";
    case TokenOutcome::kRejected: return "rejected";
  }
  return "?";
}

void SpanRecord::set_component(std::string_view name) {
  const auto n = std::min(name.size(), component.size() - 1);
  std::memcpy(component.data(), name.data(), n);
  component[n] = '\0';
}

std::string_view SpanRecord::component_view() const {
  return {component.data(), std::strlen(component.data())};
}

void SpanRecord::set_excerpt(std::span<const std::uint8_t> header) {
  const auto n = std::min(header.size(), excerpt.size());
  if (n != 0) std::memcpy(excerpt.data(), header.data(), n);
  excerpt_len = static_cast<std::uint8_t>(n);
}

SpanRecord span_of(const HopRecord& hop, SpanKind kind,
                   std::string_view component) {
  SpanRecord span;
  span.kind = kind;
  span.cut_through = hop.cut_through;
  span.in_port = hop.in_port;
  span.out_port = hop.out_port;
  span.end = hop.earliest;
  span.set_component(component);
  if (kind == SpanKind::kSample) {
    span.trace_id = hop.trace_id != 0 ? hop.trace_id : hop.packet_id;
    span.start = span.decision = hop.earliest;
    span.set_excerpt(hop.header);
  } else {
    span.trace_id = hop.trace_id;
    span.hop = hop.hop;
    span.token = hop.token;
    span.start = hop.head;
    span.decision = hop.decision;
  }
  return span;
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : ring_(std::bit_ceil(capacity == 0 ? std::size_t{1} : capacity)),
      mask_(ring_.size() - 1) {}

std::vector<SpanRecord> FlightRecorder::spans() const {
  const auto n = head_;
  std::vector<SpanRecord> out;
  if (n == 0) return out;
  const auto retained = n < ring_.size() ? static_cast<std::size_t>(n)
                                         : ring_.size();
  out.reserve(retained);
  for (std::size_t i = 0; i < retained; ++i) {
    out.push_back(ring_[(n - retained + i) & mask_]);
  }
  return out;
}

void FlightRecorder::clear() {
  head_ = 0;
  for (auto& slot : ring_) slot = SpanRecord{};
}

}  // namespace srp::obs

// Control messages for rate-based congestion control (paper §2.2).
//
// A congested router sends RateReports *upstream* to the routers (and
// source hosts) feeding the congested output queue; each report names the
// congested (router, port) queue — the flow key — and the per-feeder rate
// being granted.  Reports ride as ordinary VIPER packets addressed to the
// neighbour's local control endpoint.
#pragma once

#include <cstdint>
#include <optional>

#include "wire/buffer.hpp"

namespace srp::cc {

/// First byte of every control payload.
inline constexpr std::uint8_t kTagRateReport = 0x01;

/// "signals to those upstream routers feeding this queue to reduce their
/// rate of packets being transmitted to this queue."
struct RateReport {
  std::uint32_t router_id = 0;  ///< the congested router
  std::uint8_t port = 0;        ///< its congested output port
  double rate_bps = 0.0;        ///< rate granted to the receiving feeder

  bool operator==(const RateReport& o) const {
    return router_id == o.router_id && port == o.port &&
           rate_bps == o.rate_bps;
  }
};

wire::Bytes encode_rate_report(const RateReport& report);
/// The same encoding written over @p out, whose capacity is kept.
void encode_rate_report(const RateReport& report, wire::Bytes& out);

/// Decodes a control payload; nullopt when it is not a rate report.
std::optional<RateReport> decode_rate_report(
    std::span<const std::uint8_t> payload);

/// The queue a packet is heading for: the flow key of the paper's dynamic
/// soft state ("the rate-limiting information builds up back from the
/// point of congestion to the sources, dynamically generating soft state
/// on flows").
struct FlowKey {
  std::uint32_t router_id = 0;
  std::uint8_t port = 0;

  bool operator==(const FlowKey&) const = default;
  auto operator<=>(const FlowKey&) const = default;
};

}  // namespace srp::cc

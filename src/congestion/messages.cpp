#include "congestion/messages.hpp"

#include <bit>

namespace srp::cc {

void encode_rate_report(const RateReport& report, wire::Bytes& out) {
  wire::Writer w(std::move(out), 14);
  w.u8(kTagRateReport);
  w.u32(report.router_id);
  w.u8(report.port);
  w.u64(std::bit_cast<std::uint64_t>(report.rate_bps));
  out = std::move(w).take();
}

wire::Bytes encode_rate_report(const RateReport& report) {
  wire::Bytes out;
  encode_rate_report(report, out);
  return out;
}

std::optional<RateReport> decode_rate_report(
    std::span<const std::uint8_t> payload) {
  try {
    wire::Reader r(payload);
    if (r.u8() != kTagRateReport) return std::nullopt;
    RateReport report;
    report.router_id = r.u32();
    report.port = r.u8();
    report.rate_bps = std::bit_cast<double>(r.u64());
    if (!(report.rate_bps > 0.0)) return std::nullopt;
    return report;
  } catch (const wire::CodecError&) {
    return std::nullopt;
  }
}

}  // namespace srp::cc

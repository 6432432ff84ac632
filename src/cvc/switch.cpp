#include "cvc/switch.hpp"

#include <algorithm>

namespace srp::cvc {

/// Call processing per SETUP/CONNECT/RELEASE (circuit bookkeeping).
constexpr sim::Time kSetupProc = 500 * sim::kMicrosecond;
/// Per-packet label swap + store-and-forward processing.
constexpr sim::Time kDataProc = 5 * sim::kMicrosecond;

CvcSwitch::CvcSwitch(sim::Simulator& sim, std::string name)
    : net::PortedNode(sim, std::move(name)) {}

std::uint16_t CvcSwitch::allocate_vci(int port_index) {
  std::uint16_t& next = next_vci_[port_index];
  ++next;
  if (next == 0) ++next;  // 0 reserved
  return next;
}

void CvcSwitch::on_arrival(const net::Arrival& arrival) {
  const auto frame = decode_frame(arrival.packet->bytes);
  if (!frame.has_value()) {
    ++stats_.dropped_malformed;
    return;
  }
  const sim::Time proc =
      frame->type == FrameType::kData ? kDataProc : kSetupProc;
  // Store-and-forward: act once the whole frame is in, plus processing.
  sim_.at(arrival.tail + proc, [this, arrival] { process(arrival); });
}

void CvcSwitch::process(const net::Arrival& arrival) {
  if (arrival.packet->effectively_truncated()) {
    ++stats_.dropped_malformed;
    return;
  }
  auto frame = decode_frame(arrival.packet->bytes);
  if (!frame.has_value()) {
    ++stats_.dropped_malformed;
    return;
  }

  if (frame->type == FrameType::kSetup) {
    ++stats_.setups;
    const int out_port =
        frame->route.empty() ? 0 : frame->route.front();
    if (out_port <= 0 || out_port > port_count() ||
        out_port == arrival.in_port) {
      // Unroutable call: reject back toward the caller so it learns
      // immediately instead of waiting out the setup timer.
      ++stats_.dropped_malformed;
      Frame reject;
      reject.type = FrameType::kReject;
      reject.vci = frame->vci;
      forward(arrival.in_port, reject, *arrival.packet);
      return;
    }
    const std::uint16_t out_vci = allocate_vci(out_port);
    const Leg in_leg{arrival.in_port, frame->vci};
    const Leg out_leg{out_port, out_vci};
    table_[in_leg] = out_leg;
    table_[out_leg] = in_leg;
    stats_.circuits_active = table_.size() / 2;
    stats_.circuits_peak =
        std::max(stats_.circuits_peak, stats_.circuits_active);

    Frame forward_frame = *frame;
    forward_frame.vci = out_vci;
    forward_frame.route.erase(forward_frame.route.begin());
    forward(out_port, forward_frame, *arrival.packet);
    return;
  }

  // CONNECT / REJECT / RELEASE / DATA all follow the established mapping.
  const auto it = table_.find(Leg{arrival.in_port, frame->vci});
  if (it == table_.end()) {
    ++stats_.dropped_unknown_vci;
    return;
  }
  const Leg out = it->second;
  Frame forward_frame = *frame;
  forward_frame.vci = out.second;
  forward(out.first, forward_frame, *arrival.packet);

  if (frame->type == FrameType::kRelease ||
      frame->type == FrameType::kReject) {
    ++stats_.releases;
    table_.erase(Leg{arrival.in_port, frame->vci});
    table_.erase(out);
    stats_.circuits_active = table_.size() / 2;
  } else if (frame->type == FrameType::kData) {
    ++stats_.data_forwarded;
  }
}

void CvcSwitch::forward(int out_port, const Frame& frame,
                        const net::Packet& origin) {
  net::PacketPtr packet = origin.derive(encode_frame(frame));
  packet->last_in_port = origin.last_in_port;
  port(out_port).enqueue(std::move(packet), net::TxMeta{}, 0);
}

}  // namespace srp::cvc

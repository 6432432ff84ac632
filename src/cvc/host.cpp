#include "cvc/host.hpp"

#include "check/contract.hpp"

namespace srp::cvc {

/// A SETUP not answered within this window fails the open().
constexpr sim::Time kSetupTimeout = 200 * sim::kMillisecond;

CvcHost::CvcHost(sim::Simulator& sim, std::string name,
                 net::PacketFactory& packets)
    : net::PortedNode(sim, std::move(name), /*whole_packet=*/true),
      packets_(packets) {}

void CvcHost::transmit(const Frame& frame) {
  net::PacketPtr packet = packets_.make(encode_frame(frame), sim_.now());
  port(1).enqueue(std::move(packet), net::TxMeta{}, 0);
}

void CvcHost::open(const std::vector<std::uint8_t>& switch_ports,
                   OpenCallback callback) {
  ++next_vci_;
  if (next_vci_ == 0) ++next_vci_;
  const std::uint16_t vci = next_vci_;

  Circuit circuit;
  circuit.callback = std::move(callback);
  circuit.timer = sim_.after(kSetupTimeout, [this, vci] {
    const auto it = circuits_.find(vci);
    if (it == circuits_.end() || it->second.state != CircuitState::kPending) {
      return;
    }
    ++stats_.setup_timeouts;
    OpenCallback cb = std::move(it->second.callback);
    circuits_.erase(it);
    if (cb) cb(std::nullopt);
  });
  circuits_[vci] = std::move(circuit);

  Frame setup;
  setup.type = FrameType::kSetup;
  setup.vci = vci;
  setup.call_id = next_call_++;
  setup.route = switch_ports;
  ++stats_.setups_sent;
  transmit(setup);
}

void CvcHost::send(std::uint16_t circuit,
                   std::span<const std::uint8_t> data) {
  Frame frame;
  frame.type = FrameType::kData;
  frame.vci = circuit;
  frame.payload.assign(data.begin(), data.end());
  ++stats_.data_sent;
  transmit(frame);
}

void CvcHost::close(std::uint16_t circuit) {
  const auto it = circuits_.find(circuit);
  if (it == circuits_.end()) return;
  if (it->second.timer != 0) sim_.cancel(it->second.timer);
  circuits_.erase(it);
  ++stats_.released;
  Frame release;
  release.type = FrameType::kRelease;
  release.vci = circuit;
  transmit(release);
}

void CvcHost::on_arrival(const net::Arrival& arrival) {
  // Whole-packet node: its ports deliver at the tail.
  SIRPENT_EXPECTS(sim_.now() >= arrival.tail);
  if (arrival.packet->effectively_truncated()) return;
  const auto frame = decode_frame(arrival.packet->bytes);
  if (!frame.has_value()) return;

  switch (frame->type) {
    case FrameType::kSetup: {
      // Incoming call: the VCI on our link was chosen by the last switch.
      Circuit circuit;
      circuit.state = CircuitState::kEstablished;
      circuits_[frame->vci] = std::move(circuit);
      ++stats_.accepted;
      Frame connect;
      connect.type = FrameType::kConnect;
      connect.vci = frame->vci;
      transmit(connect);
      if (accept_handler_) accept_handler_(frame->vci);
      break;
    }
    case FrameType::kConnect: {
      const auto it = circuits_.find(frame->vci);
      if (it == circuits_.end()) break;
      if (it->second.state == CircuitState::kPending) {
        it->second.state = CircuitState::kEstablished;
        if (it->second.timer != 0) sim_.cancel(it->second.timer);
        ++stats_.connected;
        if (it->second.callback) {
          OpenCallback cb = std::move(it->second.callback);
          cb(frame->vci);
        }
      }
      break;
    }
    case FrameType::kReject: {
      const auto it = circuits_.find(frame->vci);
      if (it == circuits_.end()) break;
      if (it->second.timer != 0) sim_.cancel(it->second.timer);
      OpenCallback cb = std::move(it->second.callback);
      circuits_.erase(it);
      if (cb) cb(std::nullopt);
      break;
    }
    case FrameType::kRelease: {
      circuits_.erase(frame->vci);
      ++stats_.released;
      break;
    }
    case FrameType::kData: {
      const auto it = circuits_.find(frame->vci);
      if (it == circuits_.end() ||
          it->second.state != CircuitState::kEstablished) {
        break;
      }
      ++stats_.data_received;
      if (data_handler_) data_handler_(frame->vci, frame->payload);
      break;
    }
  }
}

}  // namespace srp::cvc

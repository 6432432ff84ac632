// CVC end host: opens circuits (paying the setup round trip), sends data
// frames on them, accepts incoming calls, and releases state.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "cvc/wire.hpp"
#include "net/network.hpp"

namespace srp::cvc {

class CvcHost : public net::PortedNode {
 public:
  struct Stats {
    std::uint64_t setups_sent = 0;
    std::uint64_t connected = 0;
    std::uint64_t setup_timeouts = 0;
    std::uint64_t accepted = 0;
    std::uint64_t data_sent = 0;
    std::uint64_t data_received = 0;
    std::uint64_t released = 0;
  };

  /// nullopt = setup failed (timeout / reject); value = local circuit id.
  using OpenCallback =
      std::function<void(std::optional<std::uint16_t> circuit)>;
  using DataHandler =
      std::function<void(std::uint16_t circuit, wire::Bytes data)>;
  using AcceptHandler = std::function<void(std::uint16_t circuit)>;

  CvcHost(sim::Simulator& sim, std::string name, net::PacketFactory& packets);

  /// Opens a circuit through the given switch output ports (first entry is
  /// the first switch's port).  The paper's criticism is made measurable:
  /// no data can flow until the CONNECT returns, one full round trip later.
  void open(const std::vector<std::uint8_t>& switch_ports,
            OpenCallback callback);

  void send(std::uint16_t circuit, std::span<const std::uint8_t> data);
  void close(std::uint16_t circuit);

  void set_data_handler(DataHandler handler) {
    data_handler_ = std::move(handler);
  }
  void set_accept_handler(AcceptHandler handler) {
    accept_handler_ = std::move(handler);
  }

  [[nodiscard]] const Stats& stats() const { return stats_; }

  void on_arrival(const net::Arrival& arrival) override;

 private:
  enum class CircuitState { kPending, kEstablished };
  struct Circuit {
    CircuitState state = CircuitState::kPending;
    OpenCallback callback;
    sim::EventId timer = 0;
  };

  void transmit(const Frame& frame);

  net::PacketFactory& packets_;
  std::map<std::uint16_t, Circuit> circuits_;  ///< by VCI on our uplink
  std::uint16_t next_vci_ = 0;
  std::uint64_t next_call_ = 1;
  DataHandler data_handler_;
  AcceptHandler accept_handler_;
  Stats stats_;
};

}  // namespace srp::cvc

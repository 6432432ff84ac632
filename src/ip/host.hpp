// IP end host with datagram send/receive and fragment reassembly.
//
// Reassembly is the "all-or-nothing behavior of IP" the paper criticizes
// (§4.3): a logical packet is delivered only when every fragment arrives,
// incomplete buffers are discarded on timeout, and a bounded reassembly
// buffer models the overrun failures the paper mentions.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "ip/header.hpp"
#include "net/network.hpp"

namespace srp::ip {

struct IpHostConfig {
  Addr address = 0;
  sim::Time reassembly_timeout = 500 * sim::kMillisecond;
  std::size_t max_reassemblies = 64;
  std::uint8_t default_ttl = 64;
};

class IpHost : public net::PortedNode {
 public:
  struct Stats {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;       ///< complete datagrams handed up
    std::uint64_t reassembled = 0;     ///< of which were fragmented
    std::uint64_t reassembly_timeouts = 0;
    std::uint64_t reassembly_overflows = 0;
    std::uint64_t checksum_drops = 0;
    std::uint64_t not_for_us = 0;
  };

  using DatagramHandler =
      std::function<void(const IpHeader& header, wire::Bytes payload)>;

  IpHost(sim::Simulator& sim, std::string name, net::PacketFactory& packets,
         IpHostConfig config);

  /// Sends a datagram toward @p dst through the default port (1).
  /// Fragmentation happens in the network if needed.
  void send(Addr dst, std::uint8_t protocol,
            std::span<const std::uint8_t> payload, std::uint8_t tos = 0);

  void set_handler(DatagramHandler handler) {
    handler_ = std::move(handler);
  }

  [[nodiscard]] Addr address() const { return config_.address; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  void on_arrival(const net::Arrival& arrival) override;

 private:
  struct Reassembly {
    std::map<std::size_t, wire::Bytes> pieces;  ///< offset -> bytes
    std::size_t total = 0;  ///< 0 until the final fragment arrives
    sim::EventId timer = 0;
    IpHeader first_header;
  };

  void accept_fragment(const IpPacketView& view);
  void deliver(const IpHeader& header, wire::Bytes payload,
               bool was_fragmented);

  net::PacketFactory& packets_;
  IpHostConfig config_;
  DatagramHandler handler_;
  std::map<std::pair<Addr, std::uint16_t>, Reassembly> reassemblies_;
  std::uint16_t next_id_ = 1;
  Stats stats_;
};

}  // namespace srp::ip

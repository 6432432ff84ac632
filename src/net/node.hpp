// Node and arrival interfaces for the simulated forwarding plane.
#pragma once

#include <string>
#include <string_view>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace srp::net {

/// Delivery of a packet to a node.  The callback fires at `head` (first-bit
/// arrival), carrying `tail` (last-bit arrival) so the receiver can choose
/// cut-through (act once the header portion is in) or store-and-forward
/// (schedule itself at `tail`) — except at a whole-packet node
/// (Node::whole_packet), where the port fires it at `tail` instead.
/// `rate_bps` is the incoming link rate; the paper permits cut-through
/// only when input and output rates match.
struct Arrival {
  PacketPtr packet;
  int in_port = 0;          ///< receiving node's port the packet came in on
  sim::Time head = 0;       ///< first-bit arrival time (== now at delivery)
  sim::Time tail = 0;       ///< last-bit arrival time
  double rate_bps = 0.0;    ///< incoming link rate
};

/// Anything attached to the network: routers, hosts, LAN segments.
///
/// A whole-packet node (every end host) cannot act on a packet before its
/// last bit is in, so a port delivering to it fires the arrival at
/// `tail` rather than at `head`, and the node does its work inside that
/// one event.  The property is fixed at construction.
class Node {
 public:
  explicit Node(std::string name, bool whole_packet = false)
      : name_(std::move(name)), whole_packet_(whole_packet) {}
  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] std::string_view name() const { return name_; }
  /// True when ports deliver to this node at last-bit time.
  [[nodiscard]] bool whole_packet() const { return whole_packet_; }

  /// Called at first-bit arrival time, or at last-bit time at a
  /// whole-packet node.
  virtual void on_arrival(const Arrival& arrival) = 0;

 private:
  std::string name_;
  bool whole_packet_;
};

}  // namespace srp::net

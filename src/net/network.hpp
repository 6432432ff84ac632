// Topology container and the port-owning node base class.
#pragma once

#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/node.hpp"
#include "net/port.hpp"
#include "sim/simulator.hpp"

namespace srp::net {

/// A node that owns output ports.  Ports are numbered from 1 because VIPER
/// reserves port 0 to mean "local delivery" (paper §5); index 0 is never
/// assigned to a link.
class PortedNode : public Node {
 public:
  PortedNode(sim::Simulator& sim, std::string name,
             bool whole_packet = false)
      : Node(std::move(name), whole_packet), sim_(sim) {
    ports_.push_back(nullptr);  // slot 0 reserved
  }

  /// Adds an output port with the given link parameters; returns its index.
  int add_port(LinkConfig config) {
    const int index = static_cast<int>(ports_.size());
    ports_.push_back(std::make_unique<TxPort>(
        sim_, std::string(name()) + ":p" + std::to_string(index), config));
    return index;
  }

  [[nodiscard]] TxPort& port(int index) {
    if (index <= 0 || index >= static_cast<int>(ports_.size())) {
      throw std::out_of_range("PortedNode::port: bad port index");
    }
    return *ports_[static_cast<std::size_t>(index)];
  }
  [[nodiscard]] const TxPort& port(int index) const {
    return const_cast<PortedNode*>(this)->port(index);
  }

  /// Number of usable ports (excludes the reserved slot 0).
  [[nodiscard]] int port_count() const {
    return static_cast<int>(ports_.size()) - 1;
  }

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

 protected:
  sim::Simulator& sim_;

 private:
  std::vector<std::unique_ptr<TxPort>> ports_;
};

/// Owns the nodes of one simulated internetwork and wires duplex links.
class Network {
 public:
  explicit Network(sim::Simulator& sim) : sim_(sim) {}

  /// Constructs a node in place; the Network owns it.
  template <class T, class... Args>
  T& add(Args&&... args) {
    auto node = std::make_unique<T>(sim_, std::forward<Args>(args)...);
    T& ref = *node;
    nodes_.push_back(std::move(node));
    return ref;
  }

  /// Connects @p a and @p b with a duplex link (two simplex channels with
  /// identical parameters).  Returns the port index on each side.
  std::pair<int, int> duplex(PortedNode& a, PortedNode& b,
                             LinkConfig config) {
    const int pa = a.add_port(config);
    const int pb = b.add_port(config);
    a.port(pa).connect(&b, pb);
    b.port(pb).connect(&a, pa);
    return {pa, pb};
  }

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] PacketFactory& packets() { return packets_; }

 private:
  sim::Simulator& sim_;
  PacketFactory packets_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace srp::net

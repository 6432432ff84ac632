// Deterministic fault-injection engine: executes a FaultPlan against the
// simulated forwarding plane.
//
// The engine installs a net::TxPort::fault_hook on every attached port and
// drives the schedule-driven lanes (link flaps, token-cache poisoning)
// from simulator events.  Every random decision comes from a per-target
// RNG stream derived from the plan seed and the target's *name* — not
// from attach order — so a topology attached in any order replays
// byte-identically from one seed.
//
// Each lane counts its firings in an engine-owned count bound to the
// stats::Registry as "fault.<target>.<lane>"; chaos tests reconcile these
// counters against the end-to-end transport counters to prove every
// injected fault was either absorbed or detected.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>

#include "fault/plan.hpp"
#include "net/network.hpp"
#include "net/port.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "stats/registry.hpp"
#include "tokens/cache.hpp"

namespace srp::fault {

class FaultEngine {
 public:
  /// The engine schedules on @p sim and binds its counts to @p registry,
  /// which must not be read after the engine is destroyed.
  FaultEngine(sim::Simulator& sim, FaultPlan plan, stats::Registry& registry);

  /// Installs the plan's lane for @p port (by port name).  A port whose
  /// lane can never fire is left untouched — its enqueue path keeps the
  /// single untaken `if (fault_hook)` branch.
  void attach(net::TxPort& port);

  /// Attaches every port of @p node.
  void attach_all(net::PortedNode& node);

  /// Explicit flap window: @p port goes down at @p down_at and recovers
  /// @p down_for later, independent of the lane's flap process.  Packets
  /// queued or transmitting at the moment of failure are lost, exactly as
  /// fabric link failure loses them.
  void schedule_flap(net::TxPort& port, sim::Time down_at,
                     sim::Time down_for);

  /// Subjects @p cache to the plan's token-poisoning process; @p name
  /// keys the counters (use the owning router's name).
  void attach_token_cache(const std::string& name,
                          tokens::TokenCache& cache);

  /// Value of counter "fault.<target>.<lane>"; 0, and no series created,
  /// for a target or lane the engine never counted.
  [[nodiscard]] std::uint64_t count(const std::string& target,
                                    const std::string& lane) const;

 private:
  struct PortState {
    net::TxPort* port = nullptr;
    LaneConfig lane;
    sim::Rng rng;
    /// Filtered enqueues seen so far — the packet index the scripted lane
    /// keys on (duplicates and re-held packets bypass the hook and are
    /// not counted, so indices match the model's per-direction ordinals).
    std::uint64_t enqueues = 0;
    std::uint64_t* dropped = nullptr;
    std::uint64_t* corrupted = nullptr;
    std::uint64_t* duplicated = nullptr;
    std::uint64_t* reordered = nullptr;
    std::uint64_t* jittered = nullptr;
    std::uint64_t* flapped = nullptr;

    PortState(net::TxPort* p, LaneConfig l, sim::Rng r)
        : port(p), lane(l), rng(r) {}
  };

  net::FaultVerdict on_enqueue(PortState& state, net::PacketPtr& packet,
                               net::TxMeta& meta, sim::Time& earliest_start);
  void corrupt_bytes(PortState& state, wire::Bytes& bytes);
  void schedule_next_flap(PortState& state);
  void schedule_next_poison(const std::string& name,
                            tokens::TokenCache& cache, sim::Rng rng,
                            std::uint64_t& poisons);

  /// Independent RNG stream for @p target_name (attach-order free).
  [[nodiscard]] sim::Rng stream_for(const std::string& target_name) const;

  /// The count named "fault.<target>.<lane>", created and bound to the
  /// registry on first use (schedule_flap and a flapping lane share one).
  std::uint64_t& tally(std::string_view target, std::string_view lane);

  sim::Simulator& sim_;
  FaultPlan plan_;
  stats::Registry& registry_;
  /// deque: PortState addresses must stay stable — the installed hooks
  /// capture them.
  std::deque<PortState> ports_;
  /// Every lane's count by metric name; map nodes never move, so each is
  /// a registry source and a stable PortState / event handle.
  std::map<std::string, std::uint64_t> counts_;
};

/// Deep copy of a packet sharing no mutable state with the original: fresh
/// wire image, identical measurement side-band (same id — duplicates *are*
/// the same packet to the endpoints), same truncation ancestry.
net::PacketPtr clone_packet(const net::Packet& packet);

}  // namespace srp::fault

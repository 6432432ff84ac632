// Declarative fault plans for the no-checksum data path.
//
// Sirpent ships packets with no internetwork checksum, no TTL and no
// per-hop verification, betting that end-to-end transport mechanisms catch
// corruption, misdelivery and loss (paper §4).  A FaultPlan states, per
// simplex link, how hard to attack that bet: per-packet lane probabilities
// for drop / corruption / duplication / reordering / delay jitter, a link
// flap process, and a token-cache poisoning process.  The plan itself is
// pure data; src/fault/engine.hpp executes it with RNG streams derived
// deterministically from the single plan seed, so any run — and any
// failure it finds — replays exactly from (plan, seed).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace srp::fault {

/// One deterministic fault applied to the Nth packet enqueued on a port
/// (0-based, counted over the port's whole run, duplicates and re-held
/// packets excluded).  Scripted faults are how model-checker
/// counterexamples (src/mc) replay through the real sim: the explorer's
/// "drop message #3 on the client→server hop" converts mechanically to
/// `{packet_index: 3, action: kDrop}` on that hop's port.  Unlike the
/// probabilistic lanes, scripted faults draw no randomness at all.
struct ScriptedFault {
  enum class Action : std::uint8_t { kDrop, kCorrupt, kDuplicate, kReorder };
  std::uint64_t packet_index = 0;
  Action action = Action::kDrop;
  /// kDuplicate: lag before the clone; kReorder: hold window.
  sim::Time delay = 10 * sim::kMicrosecond;
};

/// Per-lane perturbation parameters for one simplex link.  All `*_rate`
/// fields are per-packet Bernoulli probabilities drawn from the port's
/// private RNG stream; the draw order (drop, corrupt, duplicate, reorder,
/// jitter) is part of the replay contract.
struct LaneConfig {
  // --- drop lane: the packet silently disappears ---
  double drop_rate = 0.0;

  // --- corruption lane: bits flip in the wire image ---
  double corrupt_rate = 0.0;
  /// Bits flipped per corruption event (1..corrupt_max_bits, uniform),
  /// each at an independently drawn position.
  int corrupt_max_bits = 8;

  // --- duplication lane: a clone follows the original ---
  double duplicate_rate = 0.0;
  sim::Time duplicate_lag_max = 20 * sim::kMicrosecond;

  // --- reorder lane: the packet is held (up to 50 us) so later ones
  //     overtake it ---
  double reorder_rate = 0.0;

  // --- delay lane: extra earliest-start jitter (up to 30 us) ---
  double jitter_rate = 0.0;

  // --- link flap lane: the port goes down for a window, then recovers ---
  /// Mean flaps per simulated second (exponential gaps); 0 disables.
  double flaps_per_second = 0.0;
  /// Longest down window; the shortest is 100 us.
  sim::Time flap_down_max = 2 * sim::kMillisecond;

  // --- scripted lane: deterministic faults by packet index ---
  std::vector<ScriptedFault> script;

  /// True if any lane of this config can ever fire.
  [[nodiscard]] bool any() const {
    return drop_rate > 0 || corrupt_rate > 0 || duplicate_rate > 0 ||
           reorder_rate > 0 || jitter_rate > 0 || flaps_per_second > 0 ||
           !script.empty();
  }
};

/// A complete, replayable fault schedule.  `defaults` applies to every
/// attached port; `per_port` overrides by TxPort name (e.g. "r1:p2").
struct FaultPlan {
  std::uint64_t seed = 1;
  LaneConfig defaults;
  std::map<std::string, LaneConfig> per_port;

  // --- token-cache poisoning lane (per attached cache) ---
  /// Mean poisoning events per simulated second; 0 disables.
  double token_poisons_per_second = 0.0;
  /// false: the victim entry is forgotten (re-verified on next use, the
  /// recoverable failure).  true: the entry is marked bad, blocking its
  /// users until the endpoints route around the damage.
  bool token_poison_flag = false;

  /// One deterministic poisoning of every attached cache at a fixed time
  /// (counterexample replay, mirroring ScriptedFault for the wire lanes).
  struct ScriptedPoison {
    sim::Time at = 0;
    bool flag = false;
    std::uint64_t selector = 0;  ///< victim: sorted-key index mod size
  };
  std::vector<ScriptedPoison> scripted_poisons;

  /// The lane config governing @p port_name.
  [[nodiscard]] const LaneConfig& lane_for(
      const std::string& port_name) const {
    const auto it = per_port.find(port_name);
    return it == per_port.end() ? defaults : it->second;
  }

  /// Creates (or returns) the per-port override for @p port_name,
  /// initialized from the defaults.
  LaneConfig& lane(const std::string& port_name) {
    const auto it = per_port.find(port_name);
    if (it != per_port.end()) return it->second;
    return per_port.emplace(port_name, defaults).first->second;
  }
};

}  // namespace srp::fault

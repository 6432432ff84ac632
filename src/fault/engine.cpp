#include "fault/engine.hpp"

#include <algorithm>
#include <utility>

#include "check/analysis.hpp"
#include "check/contract.hpp"

namespace srp::fault {

/// Longest reorder hold, longest jitter and shortest flap down window.
constexpr sim::Time kReorderHoldMax = 50 * sim::kMicrosecond;
constexpr sim::Time kJitterMax = 30 * sim::kMicrosecond;
constexpr sim::Time kFlapDownMin = 100 * sim::kMicrosecond;

net::PacketPtr clone_packet(const net::Packet& packet) {
  auto copy = std::make_shared<net::Packet>();
  copy->bytes = packet.bytes;
  copy->id = packet.id;
  copy->created = packet.created;
  copy->flow = packet.flow;
  copy->hops = packet.hops;
  copy->truncated = packet.truncated;
  copy->last_in_port = packet.last_in_port;
  copy->feedforward = packet.feedforward;
  copy->recirculations = packet.recirculations;
  copy->trace_id = packet.trace_id;
  copy->route_digest = packet.route_digest;
  copy->telemetry = packet.telemetry;
  copy->parent = packet.parent;
  copy->settled = packet.settled;
  return copy;
}

FaultEngine::FaultEngine(sim::Simulator& sim, FaultPlan plan,
                         stats::Registry& registry)
    : sim_(sim), plan_(std::move(plan)), registry_(registry) {}

sim::Rng FaultEngine::stream_for(const std::string& target_name) const {
  // Seed mixing happens inside Rng (SplitMix64), so XOR is enough to give
  // every target a well-separated stream from the single plan seed.  Names
  // are unique within a simulation (node name + port index), so streams
  // never collide in practice.
  return sim::Rng(plan_.seed ^ sim::fnv1a(target_name));
}

SRP_SIM_VISIBLE void FaultEngine::attach(net::TxPort& port) {
  const LaneConfig& lane = plan_.lane_for(port.name());
  if (!lane.any()) return;

  ports_.emplace_back(&port, lane, stream_for(port.name()));
  PortState& state = ports_.back();
  state.dropped = &tally(port.name(), "drop");
  state.corrupted = &tally(port.name(), "corrupt");
  state.duplicated = &tally(port.name(), "duplicate");
  state.reordered = &tally(port.name(), "reorder");
  state.jittered = &tally(port.name(), "jitter");
  state.flapped = &tally(port.name(), "flap");

  if (lane.drop_rate > 0 || lane.corrupt_rate > 0 ||
      lane.duplicate_rate > 0 || lane.reorder_rate > 0 ||
      lane.jitter_rate > 0 || !lane.script.empty()) {
    port.fault_hook = [this, &state](net::PacketPtr& packet,
                                     net::TxMeta& meta,
                                     sim::Time& earliest_start) {
      return on_enqueue(state, packet, meta, earliest_start);
    };
  }
  if (lane.flaps_per_second > 0) schedule_next_flap(state);
}

void FaultEngine::attach_all(net::PortedNode& node) {
  for (int i = 1; i <= node.port_count(); ++i) attach(node.port(i));
}

net::FaultVerdict FaultEngine::on_enqueue(PortState& state,
                                          net::PacketPtr& packet,
                                          net::TxMeta& meta,
                                          sim::Time& earliest_start) {
  const LaneConfig& lane = state.lane;
  sim::Rng& rng = state.rng;

  // Scripted lane first: deterministic faults keyed on the packet index,
  // no RNG draw (counterexample replay must not disturb the random
  // streams of any co-configured probabilistic lanes).
  const std::uint64_t index = state.enqueues++;
  for (const ScriptedFault& scripted : lane.script) {
    if (scripted.packet_index != index) continue;
    switch (scripted.action) {
      case ScriptedFault::Action::kDrop:
        ++*state.dropped;
        return net::FaultVerdict::kDrop;
      case ScriptedFault::Action::kCorrupt: {
        if (packet->bytes.empty()) break;
        net::PacketPtr damaged = clone_packet(*packet);
        // Deterministic damage: invert the leading bytes, which breaks
        // any sane framing the same way every replay.
        for (std::size_t i = 0; i < 4 && i < damaged->bytes.size(); ++i) {
          damaged->bytes[i] ^= 0xFF;
        }
        ++*state.corrupted;
        packet = std::move(damaged);
        break;
      }
      case ScriptedFault::Action::kDuplicate:
        ++*state.duplicated;
        sim_.after(std::max<sim::Time>(scripted.delay, 1),
                   [port = state.port, copy = clone_packet(*packet), meta,
                    earliest_start]() mutable {
                     port->enqueue_unfiltered(std::move(copy), meta,
                                              earliest_start);
                   });
        break;
      case ScriptedFault::Action::kReorder:
        ++*state.reordered;
        sim_.after(std::max<sim::Time>(scripted.delay, 1),
                   [port = state.port, held = std::move(packet), meta,
                    earliest_start]() mutable {
                     port->enqueue_unfiltered(std::move(held), meta,
                                              earliest_start);
                   });
        return net::FaultVerdict::kConsume;
    }
  }

  // Lane order is fixed — it is part of the seed-replay contract.
  if (lane.drop_rate > 0 && rng.chance(lane.drop_rate)) {
    ++*state.dropped;
    return net::FaultVerdict::kDrop;
  }

  if (lane.corrupt_rate > 0 && rng.chance(lane.corrupt_rate) &&
      !packet->bytes.empty()) {
    // Corrupt a private copy: the caller may share this image with an
    // upstream cut-through chain that must keep its own bytes intact.
    net::PacketPtr damaged = clone_packet(*packet);
    corrupt_bytes(state, damaged->bytes);
    ++*state.corrupted;
    packet = std::move(damaged);
  }

  if (lane.duplicate_rate > 0 && rng.chance(lane.duplicate_rate)) {
    const sim::Time lag =
        1 + static_cast<sim::Time>(rng.uniform_int(
                0, static_cast<std::uint64_t>(lane.duplicate_lag_max)));
    ++*state.duplicated;
    sim_.after(lag, [port = state.port, copy = clone_packet(*packet), meta,
                     earliest_start]() mutable {
      port->enqueue_unfiltered(std::move(copy), meta, earliest_start);
    });
  }

  if (lane.reorder_rate > 0 && rng.chance(lane.reorder_rate)) {
    // Hold the packet so traffic behind it overtakes; it re-enters through
    // the unfiltered path (a held packet is not perturbed twice).
    const sim::Time hold =
        1 + static_cast<sim::Time>(rng.uniform_int(
                0, static_cast<std::uint64_t>(kReorderHoldMax)));
    ++*state.reordered;
    sim_.after(hold, [port = state.port, held = std::move(packet), meta,
                      earliest_start]() mutable {
      port->enqueue_unfiltered(std::move(held), meta, earliest_start);
    });
    return net::FaultVerdict::kConsume;
  }

  if (lane.jitter_rate > 0 && rng.chance(lane.jitter_rate)) {
    const sim::Time jitter = static_cast<sim::Time>(
        rng.uniform_int(1, static_cast<std::uint64_t>(kJitterMax)));
    ++*state.jittered;
    earliest_start = std::max(earliest_start, sim_.now()) + jitter;
  }

  return net::FaultVerdict::kPass;
}

void FaultEngine::corrupt_bytes(PortState& state, wire::Bytes& bytes) {
  SIRPENT_EXPECTS(!bytes.empty());
  sim::Rng& rng = state.rng;
  const std::uint64_t total_bits = bytes.size() * 8;
  const std::uint64_t flips = rng.uniform_int(
      1, static_cast<std::uint64_t>(std::max(state.lane.corrupt_max_bits, 1)));
  for (std::uint64_t i = 0; i < flips; ++i) {
    const std::uint64_t bit = rng.uniform_int(0, total_bits - 1);
    bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
}

void FaultEngine::schedule_next_flap(PortState& state) {
  const double mean_gap_seconds = 1.0 / state.lane.flaps_per_second;
  const sim::Time gap = state.rng.exp_interval(
      static_cast<sim::Time>(mean_gap_seconds * sim::kSecond));
  const sim::Time down_for = static_cast<sim::Time>(state.rng.uniform_int(
      static_cast<std::uint64_t>(kFlapDownMin),
      static_cast<std::uint64_t>(
          std::max(state.lane.flap_down_max, kFlapDownMin))));
  sim_.after(gap, [this, &state, down_for] {
    ++*state.flapped;
    state.port->set_up(false);
    sim_.after(down_for, [this, &state] {
      state.port->set_up(true);
      schedule_next_flap(state);
    });
  });
}

void FaultEngine::schedule_flap(net::TxPort& port, sim::Time down_at,
                                sim::Time down_for) {
  SIRPENT_EXPECTS(down_for > 0);
  std::uint64_t& flaps = tally(port.name(), "flap");
  sim_.at(down_at, [this, &port, &flaps, down_for] {
    ++flaps;
    port.set_up(false);
    sim_.after(down_for, [&port] { port.set_up(true); });
  });
}

void FaultEngine::attach_token_cache(const std::string& name,
                                     tokens::TokenCache& cache) {
  const bool scripted = !plan_.scripted_poisons.empty();
  const bool random = plan_.token_poisons_per_second > 0;
  if (!scripted && !random) return;
  std::uint64_t& poisons = tally(name, "token_poison");
  for (const FaultPlan::ScriptedPoison& poison : plan_.scripted_poisons) {
    sim_.at(poison.at, [&cache, &poisons, poison] {
      if (cache.poison(poison.selector, poison.flag) > 0) ++poisons;
    });
  }
  if (!random) return;
  schedule_next_poison(name, cache, stream_for(name + "/tokens"), poisons);
}

void FaultEngine::schedule_next_poison(const std::string& name,
                                       tokens::TokenCache& cache,
                                       sim::Rng rng, std::uint64_t& poisons) {
  const double mean_gap_seconds = 1.0 / plan_.token_poisons_per_second;
  const sim::Time gap =
      rng.exp_interval(static_cast<sim::Time>(mean_gap_seconds * sim::kSecond));
  const std::uint64_t selector = rng.next_u64();
  sim_.after(gap, [this, name, &cache, rng, &poisons, selector]() mutable {
    if (cache.poison(selector, plan_.token_poison_flag) > 0) ++poisons;
    schedule_next_poison(name, cache, rng, poisons);
  });
}

namespace {

// Port names contain ':' (e.g. "r1:p2"), which the metric-naming
// convention forbids; sanitize the instance segment.
std::string fault_metric(std::string_view target, std::string_view lane) {
  return "fault." + stats::metric_component(target) + "." + std::string(lane);
}

}  // namespace

std::uint64_t& FaultEngine::tally(std::string_view target,
                                  std::string_view lane) {
  const auto [it, inserted] = counts_.try_emplace(fault_metric(target, lane));
  if (inserted) registry_.counter(it->first, it->second);
  return it->second;
}

std::uint64_t FaultEngine::count(const std::string& target,
                                 const std::string& lane) const {
  const auto it = counts_.find(fault_metric(target, lane));
  return it != counts_.end() ? it->second : 0;
}

}  // namespace srp::fault

#include "ip/dv.hpp"

#include <algorithm>

namespace srp::ip {

wire::Bytes encode_dv_update(
    const std::vector<std::pair<Addr, std::uint8_t>>& entries) {
  wire::Writer w(2 + entries.size() * 5);
  w.u16(static_cast<std::uint16_t>(entries.size()));
  for (const auto& [addr, metric] : entries) {
    w.u32(addr);
    w.u8(metric);
  }
  return std::move(w).take();
}

std::vector<std::pair<Addr, std::uint8_t>> decode_dv_update(
    std::span<const std::uint8_t> payload) {
  wire::Reader r(payload);
  const std::uint16_t count = r.u16();
  std::vector<std::pair<Addr, std::uint8_t>> entries;
  entries.reserve(count);
  for (std::uint16_t i = 0; i < count; ++i) {
    const Addr addr = r.u32();
    const std::uint8_t metric = r.u8();
    entries.emplace_back(addr, metric);
  }
  return entries;
}

DvRouting::DvRouting(sim::Simulator& sim, IpRouter& router, DvConfig config,
                     sim::Time phase)
    : sim_(sim), router_(router), config_(config) {
  router_.set_rip_handler([this](const IpPacketView& p, int in_port) {
    on_rip(p, in_port);
  });
  sim_.after(config_.period + phase, [this] { tick(); });
}

void DvRouting::tick() {
  auto& table = router_.table();

  // Poll the local interfaces: a down one poisons the routes using it.
  for (auto& [addr, entry] : table) {
    const bool up = router_.port(entry.out_port).is_up();
    if (entry.connected) {
      const std::uint8_t want = up ? 1 : kInfinityMetric;
      if (entry.metric != want) {
        entry.metric = want;
        changed_ = true;
        if (!up) ++stats_.routes_poisoned_locally;
      }
    } else if (!up && entry.metric < kInfinityMetric) {
      entry.metric = kInfinityMetric;
      changed_ = true;
      ++stats_.routes_poisoned_locally;
    }
  }

  // Expire learned routes that have gone stale.
  for (auto it = table.begin(); it != table.end();) {
    RouteEntry& entry = it->second;
    if (!entry.connected && entry.metric < kInfinityMetric &&
        sim_.now() - entry.refreshed > config_.timeout) {
      entry.metric = kInfinityMetric;
      changed_ = true;
      ++stats_.routes_timed_out;
    }
    // Garbage-collect long-dead learned routes.
    if (!entry.connected && entry.metric >= kInfinityMetric &&
        sim_.now() - entry.refreshed > 2 * config_.timeout) {
      it = table.erase(it);
    } else {
      ++it;
    }
  }

  send_full_update();
  changed_ = false;
  sim_.after(config_.period, [this] { tick(); });
}

void DvRouting::send_full_update() {
  auto& table = router_.table();
  for (int p = 1; p <= router_.port_count(); ++p) {
    if (!router_.port(p).is_up()) continue;
    std::vector<std::pair<Addr, std::uint8_t>> entries;
    entries.reserve(table.size());
    for (const auto& [addr, entry] : table) {
      // Split horizon with poisoned reverse.
      const std::uint8_t metric = entry.out_port == p && !entry.connected
                                      ? kInfinityMetric
                                      : entry.metric;
      entries.emplace_back(addr, metric);
    }
    if (entries.empty()) continue;
    IpHeader h;
    h.ttl = 1;
    h.protocol = kProtoRip;
    h.src = router_.config().address;
    h.dst = kBroadcast;
    router_.send_raw(p, encode_ip_packet(h, encode_dv_update(entries)));
    ++stats_.updates_sent;
  }
}

void DvRouting::maybe_trigger() {
  if (trigger_pending_) return;
  trigger_pending_ = true;
  // Small fixed delay coalesces bursts of changes into one update.
  sim_.after(5 * sim::kMillisecond, [this] {
    trigger_pending_ = false;
    if (changed_) {
      ++stats_.triggered_updates;
      send_full_update();
      changed_ = false;
    }
  });
}

void DvRouting::on_rip(const IpPacketView& packet, int in_port) {
  ++stats_.updates_received;
  auto entries = decode_dv_update(packet.payload);
  auto& table = router_.table();
  for (const auto& [addr, advertised] : entries) {
    const std::uint8_t metric = static_cast<std::uint8_t>(
        std::min<int>(advertised + 1, kInfinityMetric));
    auto it = table.find(addr);
    if (it == table.end()) {
      if (metric < kInfinityMetric) {
        table[addr] = RouteEntry{in_port, metric, false, sim_.now()};
        changed_ = true;
      }
      continue;
    }
    RouteEntry& entry = it->second;
    if (entry.connected) continue;
    if (entry.out_port == in_port) {
      // Current next hop speaks: believe it, better or worse.
      if (entry.metric != metric) changed_ = true;
      entry.metric = metric;
      entry.refreshed = sim_.now();
    } else if (metric < entry.metric) {
      entry.out_port = in_port;
      entry.metric = metric;
      entry.refreshed = sim_.now();
      changed_ = true;
    }
  }
  if (changed_) maybe_trigger();
}

}  // namespace srp::ip

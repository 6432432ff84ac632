// Fixed-capacity per-component flow table with space-saving eviction.
//
// Sirpent assumes routers can aggregate traffic by source route and by
// account — tokens name the account to charge (paper §2.2) and congestion
// control reads the source routes in its queues — so the flow table keys
// on (source-route digest, account, type of service) and accumulates
// packet/byte counters, first/last-seen times and the cut-through vs
// store-and-forward split.
//
// Eviction is the space-saving algorithm (Metwally, Agrawal, El Abbadi,
// "Efficient computation of frequent and top-k elements in data streams"):
// when a sample for an unmonitored key finds the table full, the entry
// with the minimum byte count is replaced and the new entry *inherits* its
// counts, remembering them as `error_*`.  The classic guarantees follow:
//
//   * every inherited error is bounded by min_bytes <= total_bytes / m
//     for a table of m slots, so bytes - error_bytes <= true bytes <=
//     bytes for every monitored key;
//   * any key whose true volume exceeds total_bytes / m is guaranteed to
//     be monitored — the table doubles as a guaranteed-error top-K
//     heavy-hitter sketch.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"

namespace srp::flow {

/// Flow identity: (whole-route digest, charged account, type of service).
struct FlowKey {
  std::uint64_t route_digest = 0;
  std::uint32_t account = 0;
  std::uint8_t tos_class = 0;

  bool operator==(const FlowKey&) const = default;
  /// Deterministic total order for tie-breaking and sorted export.
  bool operator<(const FlowKey& o) const {
    if (route_digest != o.route_digest) return route_digest < o.route_digest;
    if (account != o.account) return account < o.account;
    return tos_class < o.tos_class;
  }
};

struct FlowKeyHash {
  std::size_t operator()(const FlowKey& k) const {
    // Mix the three fields with distinct odd multipliers (Fibonacci-style).
    std::uint64_t h = k.route_digest * 0x9E3779B97F4A7C15ULL;
    h ^= (static_cast<std::uint64_t>(k.account) << 8 | k.tos_class) *
         0xC2B2AE3D27D4EB4FULL;
    return static_cast<std::size_t>(h ^ (h >> 29));
  }
};

/// One monitored flow.  `bytes`/`packets` are space-saving counts: they
/// overestimate the truth by at most `error_bytes`/`error_packets` (the
/// counts inherited from the evicted minimum when this key took its slot).
struct FlowRecord {
  FlowKey key;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t error_packets = 0;
  std::uint64_t error_bytes = 0;
  sim::Time first_seen = 0;
  sim::Time last_seen = 0;
  std::uint64_t cut_through = 0;    ///< packets forwarded cut-through
  std::uint64_t store_forward = 0;  ///< packets forwarded store-and-forward
  std::uint16_t last_in_port = 0;
  std::uint16_t last_out_port = 0;
};

class FlowTable {
 public:
  struct Stats {
    std::uint64_t recorded = 0;    ///< record() calls
    std::uint64_t evictions = 0;   ///< space-saving replacements
    std::uint64_t total_bytes = 0; ///< exact sum over all record() calls
  };

  static constexpr std::size_t kDefaultCapacity = 128;

  explicit FlowTable(std::size_t capacity = kDefaultCapacity);

  /// Accounts one forwarded packet.  Returns true when the sample evicted
  /// a monitored flow (space-saving replacement).
  bool record(const FlowKey& key, std::uint32_t bytes, bool cut_through,
              sim::Time now, std::uint16_t in_port, std::uint16_t out_port);

  /// The k heaviest monitored flows, bytes-descending (ties broken by
  /// packets, then key order — deterministic across reruns).
  [[nodiscard]] std::vector<FlowRecord> top(std::size_t k) const;

  /// Every monitored flow in deterministic (key) order.
  [[nodiscard]] std::vector<FlowRecord> all() const;

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t size() const { return slots_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Forgets every flow (stats included).
  void clear();

 private:
  /// Sorted copy of the monitored flows, bytes-descending.
  [[nodiscard]] std::vector<FlowRecord> sorted_by_bytes() const;

  const std::size_t capacity_;
  std::vector<FlowRecord> slots_;
  std::unordered_map<FlowKey, std::size_t, FlowKeyHash> index_;
  Stats stats_;
};

}  // namespace srp::flow

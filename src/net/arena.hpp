// Slab-reusing packet arena: the allocator behind every router rewrite
// (DESIGN.md §11).
//
// A router hop produces a new packet image (remainder + return entry).
// Allocating it fresh costs a heap-backed byte buffer plus a make_shared
// per hop; the arena replaces both.  It owns a bounded pool of Packet
// slabs and recycles a slab the moment the pool is its *only* owner
// (use_count() == 1).  Everything that still needs a packet — an output
// queue, an in-flight transmission, a fault lane holding a duplicate, a
// downstream derive's parent chain — holds a PacketPtr reference and
// thereby blocks recycling, so a slab can never be reused while any byte
// of it is observable.  The sim is single-threaded, which makes
// use_count() an exact, deterministic liveness oracle.
//
// A recycled slab keeps its wire::Bytes capacity, so steady-state
// acquire()+append runs with zero allocations (pinned by
// tests/alloc_budget_test.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "check/analysis.hpp"
#include "net/packet.hpp"

namespace srp::net {

class PacketArena {
 public:
  struct Stats {
    std::uint64_t acquired = 0;   ///< total acquire() calls
    std::uint64_t recycled = 0;   ///< served by reusing a free slab
    std::uint64_t fresh = 0;      ///< served by a new heap allocation
    std::uint64_t scan_steps = 0; ///< pool slots inspected across acquires
  };

  explicit PacketArena(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}

  /// A packet slab with empty (capacity-preserving) bytes and zeroed
  /// side-band, ready to be filled as a derived image.  Recycles a free
  /// slab when one exists; falls back to a fresh allocation otherwise.
  PacketPtr acquire();

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t pooled() const { return pool_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  static constexpr std::size_t kDefaultCapacity = 256;

 private:
  /// Scrubs a slab for reuse.  Only called when the pool is the sole
  /// owner, so no holder can observe the reset.
  static void reset_slab(Packet& p);

  std::vector<PacketPtr> pool_;  ///< every slab ever pooled (≤ capacity_)
  std::size_t cursor_ = 0;       ///< rotating scan start
  std::size_t capacity_;
  Stats stats_;
};

}  // namespace srp::net

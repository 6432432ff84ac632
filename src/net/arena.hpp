// Slab-reusing packet arena: the allocator behind every router rewrite
// and every VIPER host send (DESIGN.md §11).
//
// A router hop produces a new packet image (remainder + return entry), and
// a host send a fresh one.  Allocating it fresh costs a heap-backed byte
// buffer plus a make_shared per packet; the arena replaces both.  Each
// router owns one arena; the hosts of one network share the arena of its
// net::PacketFactory.  An arena owns a bounded pool of Packet
// slabs and recycles a slab the moment the pool is its *only* owner
// (use_count() == 1).  Everything that still needs a packet — an output
// queue, an in-flight transmission, a fault lane holding a duplicate, a
// downstream derive's parent chain, a test holding a PacketPtr — holds a
// reference and thereby blocks recycling, so a slab can never be reused
// while any byte of it is observable.  The sim is single-threaded, which
// makes use_count() an exact, deterministic liveness oracle.
//
// A recycled slab keeps its wire::Bytes capacity, so steady-state
// acquire()+append runs with zero allocations (pinned by
// tests/alloc_budget_test.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace srp::net {

struct Packet;
using PacketPtr = std::shared_ptr<Packet>;

class PacketArena {
 public:
  struct Stats {
    std::uint64_t acquired = 0;   ///< total acquire() calls
    std::uint64_t recycled = 0;   ///< served by reusing a free slab
    std::uint64_t fresh = 0;      ///< served by a new heap allocation
    std::uint64_t scan_steps = 0; ///< pool slots inspected across acquires
  };

  /// A packet slab with empty (capacity-preserving) bytes and zeroed
  /// side-band, ready to be filled as a derived image.  Recycles a free
  /// slab when one exists; falls back to a fresh allocation otherwise.
  PacketPtr acquire();

  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Slabs the pool keeps; past it, acquire() hands out one-offs.
  static constexpr std::size_t kCapacity = 256;

 private:
  /// Scrubs a slab for reuse.  Only called when the pool is the sole
  /// owner, so no holder can observe the reset.
  static void reset_slab(Packet& p);

  std::vector<PacketPtr> pool_;  ///< every slab ever pooled (≤ kCapacity)
  std::size_t cursor_ = 0;       ///< rotating scan start
  Stats stats_;
};

}  // namespace srp::net

#include "net/arena.hpp"

#include "check/analysis.hpp"
#include "check/contract.hpp"
#include "net/packet.hpp"

namespace srp::net {

void PacketArena::reset_slab(Packet& p) {
  p.bytes.clear();  // keeps capacity: the whole point of slab reuse
  p.id = 0;
  p.created = 0;
  p.flow = 0;
  p.hops = 0;
  p.truncated = false;
  p.last_in_port = 0;
  p.feedforward = 0;
  p.recirculations = 0;
  p.trace_id = 0;
  p.route_digest = 0;
  p.telemetry = false;
  p.parent.reset();
  p.settled = 0;
}

SRP_HOT_PATH PacketPtr PacketArena::acquire() {
  ++stats_.acquired;
  // Rotating scan for a slab nobody else references.  Starting where the
  // last acquire left off makes the common case O(1): the slab recycled
  // longest ago is the one most likely to have been released.
  const std::size_t n = pool_.size();
  std::size_t i = cursor_;
  for (std::size_t step = 0; step < n; ++step) {
    ++stats_.scan_steps;
    PacketPtr& slot = pool_[i];
    if (slot.use_count() == 1) {
      // Same rotation as (cursor_ + step) % n, without the per-step
      // integer division — acquire() runs once per router hop.
      cursor_ = i + 1 == n ? 0 : i + 1;
      reset_slab(*slot);
      ++stats_.recycled;
      return slot;
    }
    if (++i == n) i = 0;
  }
  // No free slab: allocate fresh.  Pool it (so it recycles later) while
  // under capacity; past capacity it is a one-off the caller fully owns.
  ++stats_.fresh;
  SRP_ALLOC_OK(PacketPtr fresh = std::make_shared<Packet>());
  if (pool_.size() < kCapacity) {
    SRP_ALLOC_OK(pool_.push_back(fresh));
    cursor_ = 0;
  }
  return fresh;
}

}  // namespace srp::net

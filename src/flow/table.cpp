#include "flow/table.hpp"

#include <algorithm>

#include "check/analysis.hpp"
#include "check/contract.hpp"

namespace srp::flow {

FlowTable::FlowTable(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  // slots_ grows to capacity_ and then stays put: indices in index_ remain
  // valid because eviction replaces slots in place.
}

SRP_HOT_PATH bool FlowTable::record(const FlowKey& key, std::uint32_t bytes,
                       bool cut_through, sim::Time now,
                       std::uint16_t in_port, std::uint16_t out_port) {
  ++stats_.recorded;
  stats_.total_bytes += bytes;

  const auto touch = [&](FlowRecord& r) {
    ++r.packets;
    r.bytes += bytes;
    r.last_seen = now;
    if (cut_through) {
      ++r.cut_through;
    } else {
      ++r.store_forward;
    }
    r.last_in_port = in_port;
    r.last_out_port = out_port;
  };

  const auto it = index_.find(key);
  if (it != index_.end()) {
    touch(slots_[it->second]);
    return false;
  }

  if (slots_.size() < capacity_) {
    FlowRecord r;
    r.key = key;
    r.first_seen = now;
    touch(r);
    // Table fill: at most `capacity_` of these ever run; the steady-state
    // hit path above is allocation-free.
    SRP_ALLOC_OK(index_.emplace(key, slots_.size()));
    SRP_ALLOC_OK(slots_.push_back(r));
    return false;
  }

  // Space-saving replacement: evict the minimum-byte entry; the newcomer
  // inherits its counts as guaranteed-bounded error.  The linear min scan
  // is O(capacity) but runs only on unmonitored-key misses with a full
  // table — the steady-state hit path above never pays it.
  std::size_t victim = 0;
  for (std::size_t i = 1; i < slots_.size(); ++i) {
    if (slots_[i].bytes < slots_[victim].bytes) victim = i;
  }
  ++stats_.evictions;
  FlowRecord& r = slots_[victim];
  index_.erase(r.key);  // erase never allocates
  const std::uint64_t inherited_bytes = r.bytes;
  const std::uint64_t inherited_packets = r.packets;
  r = FlowRecord{};
  r.key = key;
  r.bytes = inherited_bytes;
  r.packets = inherited_packets;
  r.error_bytes = inherited_bytes;
  r.error_packets = inherited_packets;
  r.first_seen = now;
  touch(r);
  // Slot replacement reuses the victim's index entry budget: one erase +
  // one emplace against a table already at capacity.
  SRP_ALLOC_OK(index_.emplace(key, victim));
  SIRPENT_INVARIANT(index_.size() == slots_.size());
  return true;
}

std::vector<FlowRecord> FlowTable::sorted_by_bytes() const {
  std::vector<FlowRecord> out = slots_;
  std::sort(out.begin(), out.end(),
            [](const FlowRecord& a, const FlowRecord& b) {
              if (a.bytes != b.bytes) return a.bytes > b.bytes;
              if (a.packets != b.packets) return a.packets > b.packets;
              return a.key < b.key;
            });
  return out;
}

std::vector<FlowRecord> FlowTable::top(std::size_t k) const {
  std::vector<FlowRecord> out = sorted_by_bytes();
  if (out.size() > k) out.resize(k);
  return out;
}

std::vector<FlowRecord> FlowTable::all() const {
  std::vector<FlowRecord> out = slots_;
  std::sort(out.begin(), out.end(),
            [](const FlowRecord& a, const FlowRecord& b) {
              return a.key < b.key;
            });
  return out;
}

void FlowTable::clear() {
  slots_.clear();
  index_.clear();
  stats_ = Stats{};
}

}  // namespace srp::flow

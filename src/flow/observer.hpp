// One component's flow-accounting state: the FlowTable, the deterministic
// packet sampler and the exact per-account charge mirror.
//
// A FlowObserver accounts for a single named component (one router), which
// obtains it once via FlowPlane::scoped(name) and reports every forward
// and every ledger charge to it directly.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>

#include "flow/sampler.hpp"
#include "flow/table.hpp"
#include "obs/recorder.hpp"
#include "stats/registry.hpp"

namespace srp::flow {

/// Flow-plane tuning, shared by every observer a plane creates.
struct FlowConfig {
  std::size_t table_capacity = FlowTable::kDefaultCapacity;
  /// 1-in-N deterministic packet sampling (0 = off, 1 = every packet).
  std::uint32_t sample_period = 64;
  /// Base seed for the per-component sampler streams (mixed with the
  /// component name, src/fault style, so replay is attach-order-free).
  std::uint64_t seed = 0x5EED;
};

/// Per-account roll-up entry, mirroring tokens::AccountUsage without a
/// dependency on the tokens layer.
struct AccountCharge {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;

  bool operator==(const AccountCharge&) const = default;
};

class FlowObserver {
 public:
  /// @p registry / @p recorder may be null (no metrics / no sampled-span
  /// capture).  Metrics: `flow.<name>.sampled`, `flow.<name>.evictions`
  /// counters and a `flow.<name>.flows` gauge.
  FlowObserver(std::string name, const FlowConfig& config,
               stats::Registry* registry, obs::FlightRecorder* recorder);
  FlowObserver(const FlowObserver&) = delete;  // the registry reads counts
  FlowObserver& operator=(const FlowObserver&) = delete;

  /// One packet forwarded by the component, as its hop record.  Hot path:
  /// called per packet whenever flow accounting is wired.
  void on_forward(const obs::HopRecord& hop);
  /// One tokens::Ledger charge made by the component, reported with the
  /// same account and byte count — the exact mirror that makes per-account
  /// roll-ups reconcile with the ledger.
  void on_charge(std::uint32_t account, std::uint64_t bytes);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const FlowTable& table() const { return table_; }

  /// Exact per-account charge mirror: one entry per Ledger::charge the
  /// component reported, reconcilable 1:1 with the ledger.
  [[nodiscard]] std::map<std::uint32_t, AccountCharge> charges() const {
    return charges_;
  }

  /// Packets sampled so far.
  [[nodiscard]] std::uint64_t sampled() const { return sampled_total_; }

 private:

  const std::string name_;
  FlowTable table_;
  obs::FlightRecorder* recorder_ = nullptr;
  stats::Gauge* flows_gauge_ = nullptr;
  Sampler sampler_;
  std::uint64_t sampled_total_ = 0;
  std::map<std::uint32_t, AccountCharge> charges_;
};

}  // namespace srp::flow

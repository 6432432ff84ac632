// One component's flow-accounting state: the FlowTable, the deterministic
// packet sampler, the exact per-account charge mirror and the feeder
// aggregates the congestion controller reads back.
//
// A FlowObserver implements obs::FlowSink for a single named component
// (one router).  Components obtain theirs via FlowPlane::scoped(name); the
// router and its congestion controller share one observer by name, which
// is how feeders_toward() answers from the router's own forward stream.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "check/sync.hpp"
#include "check/thread_annotations.hpp"
#include "flow/sampler.hpp"
#include "flow/table.hpp"
#include "obs/flow_sink.hpp"
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

class FlowObserver final : public obs::FlowSink {
 public:
  /// @p registry / @p recorder may be null (no metrics / no sampled-span
  /// capture).  Metrics: `flow.<name>.sampled`, `flow.<name>.evictions`
  /// counters and a `flow.<name>.flows` gauge.
  FlowObserver(std::string name, const FlowConfig& config,
               stats::Registry* registry, obs::FlightRecorder* recorder);

  void on_forward(const obs::FlowSample& sample) override
      SRP_EXCLUDES(mutex_);
  void on_charge(std::uint32_t account, std::uint64_t bytes) override
      SRP_EXCLUDES(mutex_);
  void feeders_toward(int out_port, sim::Time since,
                      std::vector<int>& out) const override
      SRP_EXCLUDES(mutex_);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const FlowTable& table() const { return table_; }

  /// Exact per-account charge mirror: one entry per Ledger::charge the
  /// component reported, reconcilable 1:1 with the ledger.
  [[nodiscard]] std::map<std::uint32_t, AccountCharge> charges() const
      SRP_EXCLUDES(mutex_);

  /// Packets sampled so far.
  [[nodiscard]] std::uint64_t sampled() const SRP_EXCLUDES(mutex_);

 private:
  /// The unlocked half of one sample: flow-table update + metrics.
  void record_table(const obs::FlowSample& sample);
  /// The locked half of one sample: feeder aggregate + sampler draw (and
  /// the sampled-capture span, when one is taken).
  void record_sampled(const obs::FlowSample& sample) SRP_REQUIRES(mutex_);

  const std::string name_;
  FlowTable table_;
  obs::FlightRecorder* recorder_ = nullptr;
  stats::Counter* sampled_counter_ = nullptr;
  stats::Counter* evictions_counter_ = nullptr;
  stats::Gauge* flows_gauge_ = nullptr;

  mutable srp::Mutex mutex_;
  Sampler sampler_ SRP_GUARDED_BY(mutex_);
  std::uint64_t sampled_total_ SRP_GUARDED_BY(mutex_) = 0;
  std::map<std::uint32_t, AccountCharge> charges_ SRP_GUARDED_BY(mutex_);
  /// (out_port, in_port) -> last time in_port fed out_port.
  std::map<std::pair<std::uint16_t, std::uint16_t>, sim::Time> feeders_
      SRP_GUARDED_BY(mutex_);
};

}  // namespace srp::flow

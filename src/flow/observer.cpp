#include "flow/observer.hpp"

#include <limits>

#include "check/analysis.hpp"

namespace srp::flow {

FlowObserver::FlowObserver(std::string name, const FlowConfig& config,
                           stats::Registry* registry,
                           obs::FlightRecorder* recorder)
    : name_(std::move(name)),
      table_(config.table_capacity),
      recorder_(recorder),
      sampler_(config.seed, name_, config.sample_period) {
  if (registry != nullptr) {
    const auto instance = stats::metric_component(name_);
    sampled_counter_ = &registry->counter("flow." + instance + ".sampled");
    evictions_counter_ =
        &registry->counter("flow." + instance + ".evictions");
    flows_gauge_ = &registry->gauge("flow." + instance + ".flows");
  }
}

SRP_HOT_PATH void FlowObserver::record_table(const obs::FlowSample& sample) {
  const FlowKey key{sample.route_digest, sample.account, sample.tos_class};
  const bool evicted = table_.record(key, sample.bytes, sample.cut_through,
                                     sample.now, sample.in_port,
                                     sample.out_port);
  if (evicted && evictions_counter_ != nullptr) evictions_counter_->add();
  if (flows_gauge_ != nullptr) {
    flows_gauge_->set(static_cast<std::int64_t>(table_.size()));
  }
}

SRP_HOT_PATH void FlowObserver::record_sampled(const obs::FlowSample& sample) {
  if (sample.in_port != 0) {
    feeders_[{sample.out_port, sample.in_port}] = sample.now;
  }
  if (sampler_.sample()) {
    ++sampled_total_;
    if (sampled_counter_ != nullptr) sampled_counter_->add();
    if (recorder_ != nullptr) {
      obs::SpanRecord span;
      // Sampled captures are useful even for untraced packets; fall back
      // to the packet id so the span still names a unique packet.
      span.trace_id =
          sample.trace_id != 0 ? sample.trace_id : sample.packet_id;
      span.kind = obs::SpanKind::kSample;
      span.cut_through = sample.cut_through;
      span.in_port = sample.in_port;
      span.out_port = sample.out_port;
      span.start = span.decision = span.end = sample.now;
      span.set_component(name_);
      span.set_excerpt(sample.header);
      recorder_->record(span);
    }
  }
}

SRP_HOT_PATH void FlowObserver::on_forward(const obs::FlowSample& sample) {
  record_table(sample);
  MutexLock lock(mutex_);
  record_sampled(sample);
}

void FlowObserver::on_charge(std::uint32_t account, std::uint64_t bytes) {
  MutexLock lock(mutex_);
  auto& c = charges_[account];
  ++c.packets;
  c.bytes += bytes;
}

void FlowObserver::feeders_toward(int out_port, sim::Time since,
                                  std::vector<int>& out) const {
  MutexLock lock(mutex_);
  const auto port = static_cast<std::uint16_t>(out_port);
  const auto lo = feeders_.lower_bound({port, 0});
  const auto hi = feeders_.upper_bound(
      {port, std::numeric_limits<std::uint16_t>::max()});
  for (auto it = lo; it != hi; ++it) {
    if (it->second >= since) out.push_back(it->first.second);
  }
}

std::map<std::uint32_t, AccountCharge> FlowObserver::charges() const {
  MutexLock lock(mutex_);
  return charges_;
}

std::uint64_t FlowObserver::sampled() const {
  MutexLock lock(mutex_);
  return sampled_total_;
}

}  // namespace srp::flow

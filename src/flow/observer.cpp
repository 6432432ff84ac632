#include "flow/observer.hpp"

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
    registry->counter("flow." + instance + ".sampled", sampled_total_);
    registry->counter("flow." + instance + ".evictions",
                      table_.stats().evictions);
    flows_gauge_ = &registry->gauge("flow." + instance + ".flows");
  }
}

SRP_HOT_PATH void FlowObserver::on_forward(const obs::HopRecord& hop) {
  const FlowKey key{hop.route_digest, hop.account, hop.tos_class};
  table_.record(key, hop.bytes, hop.cut_through, hop.earliest, hop.in_port,
                hop.out_port);
  if (flows_gauge_ != nullptr) {
    flows_gauge_->set(static_cast<std::int64_t>(table_.size()));
  }
  if (sampler_.sample()) {
    ++sampled_total_;
    if (recorder_ != nullptr) {
      recorder_->record(obs::span_of(hop, obs::SpanKind::kSample, name_));
    }
  }
}

void FlowObserver::on_charge(std::uint32_t account, std::uint64_t bytes) {
  auto& c = charges_[account];
  ++c.packets;
  c.bytes += bytes;
}

}  // namespace srp::flow

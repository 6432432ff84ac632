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

SRP_HOT_PATH void FlowObserver::on_forward(const obs::FlowSample& sample) {
  const FlowKey key{sample.route_digest, sample.account, sample.tos_class};
  table_.record(key, sample.bytes, sample.cut_through, sample.now,
                sample.in_port, sample.out_port);
  if (flows_gauge_ != nullptr) {
    flows_gauge_->set(static_cast<std::int64_t>(table_.size()));
  }
  if (sampler_.sample()) {
    ++sampled_total_;
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

void FlowObserver::on_charge(std::uint32_t account, std::uint64_t bytes) {
  auto& c = charges_[account];
  ++c.packets;
  c.bytes += bytes;
}

}  // namespace srp::flow

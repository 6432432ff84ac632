// srp-lint fixture: the health plane exports its self-metrics under the
// `health.*` component namespace; a near-miss spelling must be flagged
// against KNOWN_COMPONENTS while the real names pass.  Never compiled.
#include <cstdint>
#include <string>

namespace fixture {

struct Gauge {
  void set() {}
};

struct Registry {
  void counter(const std::string&, const std::uint64_t&) {}
  Gauge& gauge(const std::string&) { return g_; }
  Gauge g_;
};

inline void register_metrics(Registry& registry, const std::uint64_t& count) {
  // 1. `healthz` is not a known component namespace (the health plane
  // exports under `health.*`).
  registry.counter("healthz.monitor.windows", count);

  // Valid health-plane names, for contrast: these must NOT be flagged.
  registry.counter("health.monitor.windows", count);
  registry.counter("health.monitor.transitions", count);
  registry.gauge("health.monitor.alerts_firing").set();
}

}  // namespace fixture

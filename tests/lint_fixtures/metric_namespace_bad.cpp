// srp-lint fixture: a stats::Registry registration under a component
// namespace the tree does not export; the metric-names pass must flag
// it against KNOWN_COMPONENTS.  Never compiled.
#include <cstdint>
#include <string>

namespace fixture {

struct Registry {
  void counter(const std::string&, const std::uint64_t&) {}
};

inline void register_metrics(Registry& registry, const std::string& inst,
                             const std::uint64_t& count) {
  // 1. valid shape, but `telemetry` is not a known component namespace
  // (the in-band telemetry plane exports under `int.*`).
  registry.counter("telemetry.r1.packets", count);

  // Valid names, for contrast: these must NOT be flagged.
  registry.counter("int.r1.packets", count);
  registry.counter("int." + inst + ".packets", count);
}

}  // namespace fixture

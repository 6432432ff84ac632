// srp-lint fixture: stats::Registry registrations whose names break the
// component.instance.metric contract; the metric-names pass must flag
// each one.  Never compiled.
#include <cstdint>
#include <string>

namespace fixture {

struct Registry {
  void counter(const std::string&, const std::uint64_t&) {}
};

inline void register_metrics(Registry& registry, const std::string& inst,
                             const std::uint64_t& count) {
  // 1. single segment: no component/instance structure at all.
  registry.counter("forwarded", count);

  // 2. empty segment from a doubled dot.
  registry.counter("viper.." + inst, count);

  // 3. illegal character in a segment.
  registry.counter("viper.r1.bad metric", count);

  // 4. too many segments (six).
  registry.counter("a.b.c.d.e.f", count);

  // 5. empty trailing segment after a runtime instance, in the binding
  // form: only the name argument is judged, never the bound source.
  registry.counter("viper." + inst + ".", count + 0);

  // Valid names, for contrast: these must NOT be flagged.
  registry.counter("viper.r1.forwarded", count);
  registry.counter("viper." + inst + ".forwarded", count);
}

}  // namespace fixture

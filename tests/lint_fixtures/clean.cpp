// srp-lint fixture: the disciplined mirror of the *_bad.cpp fixtures.
// Exercises every exemption mechanism and must produce zero findings
// under all four passes.  Never compiled.
#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#define SRP_HOT_PATH
#define SRP_ALLOC_OK(...) __VA_ARGS__
#define SRP_ORDER_OK(...) __VA_ARGS__

namespace fixture {

struct Registry {
  void counter(const std::string&, const std::uint64_t&) {}
};

class GoodTable {
 public:
  // Lookup on an unordered member is always fine — only iteration is
  // order-dependent.
  std::uint64_t lookup(std::uint64_t key) {
    const auto it = index_.find(key);
    return it == index_.end() ? 0 : it->second;
  }

  // Iteration blessed by the comment form: the keys are sorted before
  // any order-dependent use, so bucket order cannot leak out.
  std::uint64_t checksum() {
    std::vector<std::uint64_t> keys;
    // SRP_ORDER_OK(keys are sorted before any order-dependent use)
    for (const auto& [key, value] : index_) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    std::uint64_t sum = 0;
    for (const std::uint64_t k : keys) sum += k;
    return sum;
  }

  // A hot function whose one allocation is explicitly accounted for via
  // the macro form of the exemption.
  SRP_HOT_PATH void record(std::uint64_t key, std::uint64_t value) {
    const auto it = index_.find(key);
    if (it != index_.end()) {
      it->second = value;
      return;
    }
    SRP_ALLOC_OK(index_.emplace(key, value));  // first sight of key only
  }

 private:
  std::unordered_map<std::uint64_t, std::uint64_t> index_;
};

// Metric names that honor component.instance.metric, including a
// runtime instance fragment and a ternary between two valid names.
inline void register_metrics(Registry& registry, const std::string& inst,
                             bool hit, const std::uint64_t& count) {
  registry.counter("viper.r1.forwarded", count);
  registry.counter("viper." + inst + ".forwarded", count);
  registry.counter(hit ? "tokens.r1.cache_hits" : "tokens.r1.cache_misses",
                   count);
}

}  // namespace fixture

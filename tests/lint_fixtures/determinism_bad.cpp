// srp-lint fixture: every construct here must be flagged by the
// determinism pass.  Never compiled — consumed by srp_lint.py
// --self-test only.
#include <atomic>
#include <chrono>
#include <future>
#include <random>
#include <thread>
#include <unordered_map>

namespace fixture {

class BadTable {
 public:
  std::uint64_t churn() {
    // 1. wall-clock read: simulation time must come from sim::Simulator.
    const auto now = std::chrono::steady_clock::now();

    // 2. ambient randomness: entropy must come from a seeded sim::Rng.
    std::random_device entropy;

    std::uint64_t total = static_cast<std::uint64_t>(entropy());
    // 3. iteration over an unordered member: bucket order varies across
    // standard libraries and hash seeds.
    for (const auto& [key, value] : index_) {
      total += value;
    }

    // 4. order-dependent element selection via begin() on an unordered
    // member.
    auto it = index_.begin();
    total += it->second;
    (void)now;
    return total;
  }

  void fan_out() {
    // 6. a thread: nothing in the simulator is guarded against one.
    std::thread worker([this] { churn(); });
    worker.join();

    // 7. std::async starts a thread as well.
    auto pending = std::async(std::launch::async, [this] { return churn(); });
    (void)pending.get();
  }

 private:
  std::unordered_map<std::uint64_t, std::uint64_t> index_;
  // 5. hashing a pointer value: addresses vary run to run.
  std::hash<BadTable*> hasher_;
  // 8. an atomic: nothing is shared with another thread, so a counter is a
  // plain integer.
  std::atomic<std::uint64_t> hits_{0};
};

}  // namespace fixture

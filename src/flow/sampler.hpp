// Deterministic 1-in-N packet sampler.
//
// Systematic count-down sampling: each call decrements a counter; at zero
// the packet is sampled and the counter resets to the period.  The initial
// phase is drawn from a per-component RNG stream seeded exactly like
// src/fault seeds its lanes — `Rng(seed ^ sim::fnv1a(component_name))` —
// so a rerun with the same seed samples the byte-identical packet sequence
// regardless of the order components were wired.
#pragma once

#include <cstdint>
#include <string_view>

#include "sim/random.hpp"

namespace srp::flow {

class Sampler {
 public:
  /// Samples 1 in @p period packets (0 = never, 1 = every packet).  The
  /// phase offset is drawn from `seed ^ sim::fnv1a(component)`.
  Sampler(std::uint64_t seed, std::string_view component,
          std::uint32_t period)
      : period_(period) {
    if (period_ > 1) {
      sim::Rng rng(seed ^ sim::fnv1a(component));
      countdown_ = static_cast<std::uint32_t>(
          rng.uniform_int(1, period_));
    }
  }

  /// True when the current packet is the sampled one.
  bool sample() {
    if (period_ == 0) return false;
    if (period_ == 1) return true;
    if (--countdown_ == 0) {
      countdown_ = period_;
      return true;
    }
    return false;
  }

  [[nodiscard]] std::uint32_t period() const { return period_; }

 private:
  std::uint32_t period_;
  std::uint32_t countdown_ = 1;
};

}  // namespace srp::flow

// Deterministic random-number substrate for workloads and experiments.
//
// A thin wrapper over xoshiro256** with the distributions the benches need.
// Every component takes an explicit seed so runs are reproducible and
// experiments can vary seeds independently of each other.
#pragma once

#include <cstdint>
#include <string_view>

#include "sim/time.hpp"

namespace srp::sim {

/// 64-bit FNV-1a over @p bytes, continuing from @p h.  Seeds every
/// per-component stream (`Rng(seed ^ fnv1a(name))`: fault lanes, flow and
/// telemetry samplers) so replay is independent of attach order, and
/// mixes obs::path_digest.
[[nodiscard]] constexpr std::uint64_t fnv1a(
    std::string_view bytes, std::uint64_t h = 0xcbf29ce484222325ULL) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// xoshiro256** 1.0 (Blackman & Vigna) — small, fast, high quality, and —
/// unlike std::mt19937 — guaranteed identical across standard libraries.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) { reseed(seed); }

  /// Re-initializes the state from @p seed via SplitMix64, which guarantees
  /// a non-zero, well-mixed state even for small consecutive seeds.
  void reseed(std::uint64_t seed);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform integer in [lo, hi] (inclusive).  Precondition: lo <= hi.
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi);

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Bernoulli trial with success probability @p p.
  bool chance(double p) { return next_double() < p; }

  /// Exponentially distributed value with mean @p mean.
  double exponential(double mean);

  /// Exponentially distributed inter-arrival gap with the given mean,
  /// rounded to Time (>= 1 ps so the clock always advances).
  Time exp_interval(Time mean);

  /// Forks an independent stream; derived deterministically from this
  /// stream so components can be given private generators.
  Rng split();

 private:
  std::uint64_t s_[4];
};

}  // namespace srp::sim

#include "sim/random.hpp"

#include <cmath>

#include "check/contract.hpp"

namespace srp::sim {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::next_double() {
  // 53 high bits -> [0,1) with full double precision.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::uniform_int(std::uint64_t lo, std::uint64_t hi) {
  SIRPENT_EXPECTS(lo <= hi);
  const std::uint64_t span = hi - lo + 1;
  if (span == 0) return next_u64();  // full 64-bit range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  std::uint64_t v;
  do {
    v = next_u64();
  } while (v >= limit);
  return lo + v % span;
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * next_double();
}

double Rng::exponential(double mean) {
  // -mean * ln(U) with U in (0,1]; 1 - next_double() avoids log(0).
  return -mean * std::log(1.0 - next_double());
}

Time Rng::exp_interval(Time mean) {
  const double v = exponential(static_cast<double>(mean));
  const Time t = static_cast<Time>(v);
  return t < 1 ? 1 : t;
}

Rng Rng::split() { return Rng{next_u64()}; }

}  // namespace srp::sim

// Small statistics helpers: wall clock, the "highest percentile with ten
// samples beyond it" tail rule, and a fine-grained histogram for per-call
// timings too numerous to keep.
#pragma once

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <vector>

#include "stats/summary.hpp"

namespace perfbench {

/// Monotonic wall clock in nanoseconds.
inline std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// @p num / @p den, or 0 when @p den is 0.
inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// The highest percentile that leaves ten of @p samples beyond it (the
/// eleventh-largest sample), or p50 for fewer than 20 samples.  Being
/// continuous in the sample count, it does not jump when a run delivers a
/// few windows more or fewer.
inline double tail_percentile(std::uint64_t samples) {
  if (samples < 20) return 50.0;
  return 100.0 * (1.0 - 10.0 / static_cast<double>(samples - 1));
}

/// A tail percentile chosen so the sample supports it.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
};

/// Exact percentile @p p (0–100) of @p values, interpolated; 0 when empty.
inline double percentile_of(const std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  srp::stats::Samples s;
  for (const double v : values) s.add(v);
  return s.percentile(p);
}

inline double median_of(const std::vector<double>& values) {
  return percentile_of(values, 50.0);
}

inline Tail tail_of(const std::vector<double>& values) {
  Tail t;
  t.percentile = tail_percentile(values.size());
  t.value = percentile_of(values, t.percentile);
  return t;
}

/// Histogram of non-negative integers with 32 linear sub-buckets per power
/// of two (relative error under 3.2%; exact below 64).  stats::Histogram's
/// single log2 buckets are too coarse for per-call nanosecond timings.
class LogHistogram {
 public:
  void record(std::uint64_t v) {
    ++buckets_[index(v)];
    ++count_;
    sum_ += v;
    max_ = std::max(max_, v);
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t max() const { return max_; }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  /// Value at quantile @p q (bucket midpoint); 0 when empty.
  [[nodiscard]] double quantile(double q) const {
    if (count_ == 0) return 0.0;
    const auto rank = static_cast<std::uint64_t>(
        q * static_cast<double>(count_ - 1));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      seen += buckets_[i];
      if (seen > rank) {
        if (i < 64) return static_cast<double>(i);
        const std::size_t msb = (i - 64) / 32 + 6;
        const std::uint64_t sub = (i - 64) % 32;
        const std::uint64_t width = std::uint64_t{1} << (msb - 5);
        return static_cast<double>((32 + sub) * width) +
               static_cast<double>(width) / 2.0;
      }
    }
    return static_cast<double>(max_);
  }

  [[nodiscard]] Tail tail() const {
    Tail t;
    t.percentile = tail_percentile(count_);
    t.value = quantile(t.percentile / 100.0);
    return t;
  }

 private:
  static std::size_t index(std::uint64_t v) {
    if (v < 64) return static_cast<std::size_t>(v);
    const auto msb = static_cast<std::size_t>(63 - std::countl_zero(v));
    const std::uint64_t sub = (v >> (msb - 5)) & 31;
    return 64 + (msb - 6) * 32 + static_cast<std::size_t>(sub);
  }

  std::vector<std::uint64_t> buckets_ = std::vector<std::uint64_t>(64 + 58 * 32);
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

}  // namespace perfbench

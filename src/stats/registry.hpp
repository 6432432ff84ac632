// Named-metric registry.  Three metric kinds share one naming contract:
//
//   counter    monotonically increasing event count, *bound*: the
//              registry owns no storage for it and reads a std::uint64_t
//              its component already keeps (a Stats field or a plain
//              member) — one home per count,
//   Gauge      instantaneous level (queue depth, cache occupancy),
//   Histogram  fixed log2-bucket distribution (latencies, sizes).
//
// Gauges and histograms are registry-owned and pushed: creation/lookup
// walks the name map once and the returned reference is stable for the
// registry's lifetime (std::map node stability), so components cache it
// and every hot-path update is a handful of plain integer adds — the
// simulator is single-threaded (srp-lint bans threads and atomics under
// src/).  A counter's value is the sum of the sources bound to its name,
// read at snapshot time.
//
// Lifetime: a bound source must outlive every read of its registry —
// snapshot(), full_snapshot() (the exporters) and every counter_sources()
// sum (the health tick's rules).  Destroying a registry reads no source,
// so a component may be destroyed first as long as nothing reads after.
//
// Naming convention: `component.instance.metric` — 2 to 5 non-empty
// segments of [A-Za-z0-9_-] joined by single dots, nothing else.  The
// accessors enforce it with a debug-build contract; metric_component()
// sanitizes free-form instance names (port names contain ':', host names
// may contain '.').
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "check/analysis.hpp"

namespace srp::stats {

/// True if @p name follows the `component.instance.metric` convention
/// (2–5 dot-separated segments of [A-Za-z0-9_-]).
[[nodiscard]] bool is_valid_metric_name(std::string_view name);

/// Sanitizes one free-form name into a legal metric segment: every
/// character outside [A-Za-z0-9_-] becomes '_' ("h0.prop:p1" ->
/// "h0_prop_p1"); an empty input becomes "_".
[[nodiscard]] std::string metric_component(std::string_view raw);

/// An instantaneous level that can move both ways (queue depth, token-cache
/// occupancy, throttle-table size).
class Gauge {
 public:
  void set(std::int64_t v) { value_ = v; }
  void add(std::int64_t d = 1) { value_ += d; }
  void sub(std::int64_t d = 1) { value_ -= d; }
  [[nodiscard]] std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

/// Point-in-time copy of one Histogram, with the percentile math.  Bucket i
/// covers [Histogram::bucket_low(i), Histogram::bucket_high(i)]; percentile
/// estimates locate the bucket holding the ranked sample and interpolate
/// linearly within it at the unbiased plotting position (2p-1)/(2c) for the
/// p-th of the bucket's c samples.  Error bound: the estimate always lies
/// inside the sample's own bucket, so it is never more than one octave off
/// (worst-case relative error < 2x, and exact for the value 0); under a
/// within-bucket uniform distribution the interpolated estimate is
/// unbiased, where the old upper-bound rule systematically overstated
/// p50/p99 by up to 2x.
struct HistogramSnapshot {
  static constexpr std::size_t kBuckets = 65;

  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::array<std::uint64_t, kBuckets> buckets{};

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Estimate of the ceil(q * count)-th smallest sample (q in [0, 1]),
  /// interpolated within its log2 bucket; 0 when empty.
  [[nodiscard]] std::uint64_t percentile(double q) const;
  [[nodiscard]] std::uint64_t p50() const { return percentile(0.50); }
  [[nodiscard]] std::uint64_t p99() const { return percentile(0.99); }
};

/// Fixed log2-bucket histogram.  record() is three plain adds,
/// cheap enough for per-packet latency samples.  Bucket 0 holds the value
/// 0; bucket i (1..64) holds values whose bit width is i, i.e.
/// [2^(i-1), 2^i - 1].  Values are unit-free; by convention the metric
/// name carries the unit suffix (e.g. "_ps").
class Histogram {
 public:
  static constexpr std::size_t kBuckets = HistogramSnapshot::kBuckets;

  [[nodiscard]] static std::size_t bucket_of(std::uint64_t v) {
    return static_cast<std::size_t>(std::bit_width(v));
  }
  [[nodiscard]] static std::uint64_t bucket_low(std::size_t i) {
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
  }
  [[nodiscard]] static std::uint64_t bucket_high(std::size_t i) {
    if (i == 0) return 0;
    if (i >= 64) return ~std::uint64_t{0};
    return (std::uint64_t{1} << i) - 1;
  }

  SRP_HOT_PATH void record(std::uint64_t value) {
    ++counts_[bucket_of(value)];
    sum_ += value;
    ++count_;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  [[nodiscard]] std::uint64_t p50() const { return snapshot().p50(); }
  [[nodiscard]] std::uint64_t p99() const { return snapshot().p99(); }

  [[nodiscard]] HistogramSnapshot snapshot() const;

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
};

/// Every metric of one registry, copied at one instant.  The maps are
/// name-sorted, so exporters iterating them emit deterministic output.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

class Registry {
 public:
  /// The sources bound to one counter name; the counter is their sum.
  using CounterSources = std::vector<const std::uint64_t*>;

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Binds the counter named @p name to @p source, which its owner keeps
  /// counting; the registry only reads it.  The counter's value is the
  /// sum of every source bound to @p name, and binding a source already
  /// bound to @p name is a no-op.  @p source must outlive every snapshot
  /// of this registry; @p name must satisfy is_valid_metric_name()
  /// (contract-checked in debug builds).
  void counter(const std::string& name, const std::uint64_t& source);
  void counter(const std::string& name, const std::uint64_t&& source) =
      delete;  // a temporary would dangle

  /// The gauge named @p name, created on first use.  The returned
  /// reference stays valid for the registry's lifetime and may be cached.
  /// Same naming contract.
  Gauge& gauge(const std::string& name);

  /// The histogram named @p name; same lifetime and naming contract.
  Histogram& histogram(const std::string& name);

  /// The number of named series.  Names are never removed, so an
  /// unchanged size means no series was added; binding another source to
  /// a known counter name does not change it.
  [[nodiscard]] std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// The sources bound to the counter named @p name, or null; creates
  /// nothing.  The list keeps its address for the registry's lifetime and
  /// later bindings join it, so a reader may keep it and sum it to read.
  [[nodiscard]] const CounterSources* counter_sources(
      const std::string& name) const;

  /// Point-in-time reading of every counter.
  [[nodiscard]] std::map<std::string, std::uint64_t> snapshot() const;

  /// Point-in-time copy of every metric (counters, gauges, histograms) —
  /// what the exporters consume.
  [[nodiscard]] MetricsSnapshot full_snapshot() const;

 private:
  std::map<std::string, CounterSources> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace srp::stats

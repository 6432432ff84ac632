// Windowed time-series over a stats::Registry.
//
// The registry's counters and histograms are cumulative — perfect for
// exporters, useless for "is the fabric degrading *right now*".  A
// SeriesStore closes one fixed sim-time window at a time: roll() diffs a
// fresh MetricsSnapshot against the previous one and appends the per-window
// *delta* — a counter's rate, a gauge's level, a histogram's within-window
// sample set — to a bounded ring per metric, so detectors see "packets
// lost this 10 ms" and "queue-wait p99 of this window's transmissions"
// instead of run-lifetime totals.
//
// roll() runs from a sim event at window boundaries; nothing here touches
// the per-packet path.  A metric first seen in window W diffs against zero —
// cold-start spikes are the detectors' problem (EWMA warmup), not hidden
// by the store.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>

#include "sim/time.hpp"
#include "stats/registry.hpp"

namespace srp::health {

/// Fraction of @p window's samples whose value exceeds @p threshold,
/// interpolating pro-rata within the straddling log2 bucket (the same
/// within-bucket uniform assumption as HistogramSnapshot::percentile).
/// 0 for an empty window.
[[nodiscard]] double fraction_above(const stats::HistogramSnapshot& window,
                                    std::uint64_t threshold);

struct SeriesConfig {
  sim::Time window = 10 * sim::kMillisecond;  ///< fixed window length
  std::size_t capacity = 128;                 ///< windows retained per metric
};

/// Bounded per-metric rings of windowed deltas.  Everything is keyed by the
/// registry metric name; reads address windows as "ago" (0 = the most
/// recently closed window).
class SeriesStore {
 public:
  explicit SeriesStore(SeriesConfig config = {});

  /// Closes the window ending at @p now against @p snap.  Counters append
  /// value - previous (clamped at 0 against resets), gauges append the
  /// instantaneous level, histograms append the bucket-wise delta.
  void roll(sim::Time now, const stats::MetricsSnapshot& snap);

  [[nodiscard]] const SeriesConfig& config() const { return config_; }
  /// Windows closed so far.
  [[nodiscard]] std::uint64_t windows() const { return windows_; }
  /// End time of the most recently closed window (0 before the first).
  [[nodiscard]] sim::Time last_roll() const { return last_roll_; }

  /// Counter delta in the window @p ago windows back; nullopt when the
  /// metric or the window is unknown.
  [[nodiscard]] std::optional<double> counter_rate(const std::string& name,
                                                   std::size_t ago = 0) const;

  /// Gauge level at the close of the window @p ago windows back.
  [[nodiscard]] std::optional<double> gauge_level(const std::string& name,
                                                  std::size_t ago = 0) const;

  /// Histogram delta (count/sum/buckets restricted to the window) @p ago
  /// windows back; nullptr when unknown.
  [[nodiscard]] const stats::HistogramSnapshot* histogram_window(
      const std::string& name, std::size_t ago = 0) const;

  /// Number of retained windows for @p name (0 when never seen).
  [[nodiscard]] std::size_t depth(const std::string& name) const;

 private:
  template <typename T>
  struct Ring {
    std::deque<T> values;  ///< newest at the back
    void push(T v, std::size_t capacity) {
      values.push_back(std::move(v));
      if (values.size() > capacity) values.pop_front();
    }
    [[nodiscard]] const T* at(std::size_t ago) const {
      if (ago >= values.size()) return nullptr;
      return &values[values.size() - 1 - ago];
    }
  };

  struct CounterSeries {
    std::uint64_t previous = 0;
    Ring<double> deltas;
  };
  struct GaugeSeries {
    Ring<double> levels;
  };
  struct HistogramSeries {
    stats::HistogramSnapshot previous;
    Ring<stats::HistogramSnapshot> windows;
  };

  SeriesConfig config_;
  std::uint64_t windows_ = 0;
  sim::Time last_roll_ = 0;
  std::map<std::string, CounterSeries> counters_;
  std::map<std::string, GaugeSeries> gauges_;
  std::map<std::string, HistogramSeries> histograms_;
};

}  // namespace srp::health

// Per-window anomaly detectors over the health monitor's windowed readings.
//
// Three families, matching what a fabric operator actually pages on:
//
//  * Threshold — "this should be (near) zero": wire loss, link-down drops,
//    token rejects.  Static bound with hysteresis (breach at >= limit,
//    clear at <= clear_limit) so a value oscillating on the line does not
//    flap the alert.
//  * EWMA — "this is far from its own recent past": queue-wait p99, RTT,
//    token-miss rate.  Tracks an exponentially-weighted mean and variance
//    of the windowed series and scores each new window as a z-score
//    against the *pre-breach* baseline: while breached the baseline is
//    frozen, so a sustained fault cannot teach the detector that broken
//    is normal.  A min_deviation floor keeps near-zero-variance baselines
//    (e.g. a counter that is always 0) from paging on the first blip a
//    sane operator would ignore, and warmup windows absorb cold-start.
//  * Burn rate — "the SLO budget is being spent too fast": fraction of a
//    window's delivery-latency samples over the objective, divided by the
//    allowed error budget.  Burn 1.0 = exactly on budget; paging at
//    burn >= N means the monthly budget would be gone in 1/N of the month.
//
// Detectors are pure per-window state machines: evaluate(value) folds one
// window and returns a Verdict.  They know nothing about alerts, labels,
// or time — that is the alert engine's job (health/alerts.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "stats/registry.hpp"

namespace srp::health {

enum class DetectorKind : std::uint8_t {
  kThreshold,  // static bound with hysteresis
  kEwma,       // z-score against an EWMA mean/variance baseline
  kBurnRate,   // SLO error-budget burn rate
};

[[nodiscard]] std::string_view to_string(DetectorKind kind);

/// One window's evaluation.  score is detector-specific: threshold -> the
/// value itself, EWMA -> z, burn rate -> the burn multiple.
struct Verdict {
  bool breach = false;
  double value = 0.0;  ///< the windowed reading that was evaluated
  double score = 0.0;
};

struct ThresholdConfig {
  double limit = 1.0;        ///< breach when value >= limit
  double clear_limit = 0.0;  ///< clear when value <= clear_limit
};

class ThresholdDetector {
 public:
  explicit ThresholdDetector(ThresholdConfig config);
  Verdict evaluate(double value);

 private:
  ThresholdConfig config_;
  bool breached_ = false;
};

struct EwmaConfig {
  double min_deviation = 1.0;  ///< absolute deviation floor to breach
  double min_sigma = 0.5;      ///< variance floor used in the z-score
};

/// Only deviations above the baseline breach: every EWMA input (a p99
/// latency, an event rate) is bad only when high.
class EwmaDetector {
 public:
  static constexpr double kAlpha = 0.3;        ///< mean/variance weight
  static constexpr double kSigmas = 4.0;       ///< breach when z >= this
  static constexpr double kClearSigmas = 2.0;  ///< clear when z <= this
  static constexpr std::size_t kWarmup = 3;    ///< windows before scoring

  explicit EwmaDetector(EwmaConfig config);
  Verdict evaluate(double value);

  [[nodiscard]] double mean() const { return mean_; }
  [[nodiscard]] double sigma() const;

 private:
  EwmaConfig config_;
  double mean_ = 0.0;
  double variance_ = 0.0;
  std::size_t seen_ = 0;
  bool breached_ = false;
};

struct BurnRateConfig {
  std::uint64_t objective = 0;  ///< latency objective (histogram units)
};

/// Fraction of @p window's samples whose value exceeds @p threshold,
/// interpolating pro-rata within the straddling log2 bucket (the same
/// within-bucket uniform assumption as HistogramSnapshot::percentile).
/// 0 for an empty window.
[[nodiscard]] double fraction_above(const stats::HistogramSnapshot& window,
                                    std::uint64_t threshold);

class BurnRateDetector {
 public:
  static constexpr double kErrorBudget = 0.01;  ///< allowed fraction over
  static constexpr double kBurnLimit = 10.0;    ///< breach when burn >= this
  static constexpr double kClearBurn = 1.0;     ///< clear when burn <= this
  static constexpr std::uint64_t kMinSamples = 8;  ///< fewer are skipped

  explicit BurnRateDetector(BurnRateConfig config);

  /// Evaluates one window of the objective histogram.  Windows with fewer
  /// than kMinSamples samples keep the previous breach state (a quiet
  /// window is not evidence of recovery or of burn).
  Verdict evaluate(const stats::HistogramSnapshot& window);

 private:
  BurnRateConfig config_;
  bool breached_ = false;
};

}  // namespace srp::health

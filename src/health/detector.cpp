#include "health/detector.hpp"

#include <algorithm>
#include <cmath>

#include "check/contract.hpp"

namespace srp::health {

std::string_view to_string(DetectorKind kind) {
  switch (kind) {
    case DetectorKind::kThreshold: return "threshold";
    case DetectorKind::kEwma: return "ewma";
    case DetectorKind::kBurnRate: return "burn_rate";
  }
  return "?";
}

ThresholdDetector::ThresholdDetector(ThresholdConfig config)
    : config_(config) {
  SIRPENT_EXPECTS(config_.clear_limit <= config_.limit);
}

Verdict ThresholdDetector::evaluate(double value) {
  if (breached_) {
    if (value <= config_.clear_limit) breached_ = false;
  } else {
    if (value >= config_.limit) breached_ = true;
  }
  return {breached_, value, value};
}

EwmaDetector::EwmaDetector(EwmaConfig config) : config_(config) {
  static_assert(kAlpha > 0.0 && kAlpha <= 1.0);
  static_assert(kClearSigmas <= kSigmas);
  SIRPENT_EXPECTS(config_.min_sigma > 0.0);
}

double EwmaDetector::sigma() const {
  return std::max(std::sqrt(variance_), config_.min_sigma);
}

Verdict EwmaDetector::evaluate(double value) {
  if (seen_ < kWarmup) {
    // Cold start: seed the baseline without scoring.  The first sample
    // initialises the mean outright so warmup does not drag it up from 0.
    if (seen_ == 0) {
      mean_ = value;
    } else {
      mean_ += kAlpha * (value - mean_);
      variance_ += kAlpha * ((value - mean_) * (value - mean_) - variance_);
    }
    ++seen_;
    return {false, value, 0.0};
  }

  const double deviation = value - mean_;
  const double z = deviation / sigma();

  if (breached_) {
    if (z <= kClearSigmas) breached_ = false;
  } else {
    breached_ = z >= kSigmas && std::abs(deviation) >= config_.min_deviation;
  }

  // Fold the sample into the baseline only while healthy: a sustained
  // fault must stay anomalous instead of becoming the new normal.
  if (!breached_) {
    const double err = value - mean_;
    mean_ += kAlpha * err;
    variance_ += kAlpha * (err * err - variance_);
    ++seen_;
  }
  return {breached_, value, z};
}

double fraction_above(const stats::HistogramSnapshot& window,
                      std::uint64_t threshold) {
  if (window.count == 0) return 0.0;
  std::uint64_t above = 0;
  double partial = 0.0;
  for (std::size_t i = 0; i < window.kBuckets; ++i) {
    if (window.buckets[i] == 0) continue;
    const auto low = stats::Histogram::bucket_low(i);
    const auto high = stats::Histogram::bucket_high(i);
    if (low > threshold) {
      above += window.buckets[i];
    } else if (high > threshold) {
      // Straddling bucket: pro-rata share of samples above the threshold
      // under the within-bucket uniform assumption.
      const double width = static_cast<double>(high - low) + 1.0;
      const double over = static_cast<double>(high - threshold);
      partial += static_cast<double>(window.buckets[i]) * over / width;
    }
  }
  return (static_cast<double>(above) + partial) /
         static_cast<double>(window.count);
}

BurnRateDetector::BurnRateDetector(BurnRateConfig config) : config_(config) {
  static_assert(kErrorBudget > 0.0);
  static_assert(kClearBurn <= kBurnLimit);
  SIRPENT_EXPECTS(config_.objective > 0);
}

Verdict BurnRateDetector::evaluate(const stats::HistogramSnapshot& window) {
  if (window.count < kMinSamples) {
    return {breached_, 0.0, 0.0};
  }
  const double over = fraction_above(window, config_.objective);
  const double burn = over / kErrorBudget;
  if (breached_) {
    if (burn <= kClearBurn) breached_ = false;
  } else {
    if (burn >= kBurnLimit) breached_ = true;
  }
  return {breached_, over, burn};
}

}  // namespace srp::health

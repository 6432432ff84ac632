#include "stats/registry.hpp"

#include <algorithm>
#include <cmath>

#include "check/contract.hpp"

namespace srp::stats {
namespace {

bool is_segment_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '-';
}

template <typename T>
T& find_or_create(std::map<std::string, std::unique_ptr<T>>& map,
                  const std::string& name) {
  auto& slot = map[name];
  if (slot == nullptr) slot = std::make_unique<T>();
  return *slot;
}

std::uint64_t sum_of(const Registry::CounterSources& sources) {
  std::uint64_t total = 0;
  for (const std::uint64_t* source : sources) total += *source;
  return total;
}

}  // namespace

bool is_valid_metric_name(std::string_view name) {
  constexpr int kMinSegments = 2;
  constexpr int kMaxSegments = 5;
  int segments = 0;
  std::size_t seg_len = 0;
  for (char c : name) {
    if (c == '.') {
      if (seg_len == 0) return false;  // leading dot or empty segment
      ++segments;
      seg_len = 0;
    } else if (is_segment_char(c)) {
      ++seg_len;
    } else {
      return false;
    }
  }
  if (seg_len == 0) return false;  // empty name or trailing dot
  ++segments;
  return segments >= kMinSegments && segments <= kMaxSegments;
}

std::string metric_component(std::string_view raw) {
  if (raw.empty()) return "_";
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) out.push_back(is_segment_char(c) ? c : '_');
  return out;
}

std::uint64_t HistogramSnapshot::percentile(double q) const {
  if (count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  auto rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count)));
  if (rank == 0) rank = 1;
  if (rank > count) rank = count;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (buckets[i] == 0) continue;
    if (cumulative + buckets[i] >= rank) {
      // Interpolate within bucket i at the unbiased plotting position:
      // the p-th of the bucket's c samples sits at quantile (2p-1)/(2c)
      // of [low, high] under a within-bucket uniform assumption.  The
      // estimate stays inside the bucket by construction, so the worst
      // case error is one bucket width (an octave) — same hard bound as
      // the old upper-bound rule, without its systematic 2x overshoot.
      const std::uint64_t low = Histogram::bucket_low(i);
      const std::uint64_t high = Histogram::bucket_high(i);
      const double p = static_cast<double>(rank - cumulative);
      const double c = static_cast<double>(buckets[i]);
      const double width = static_cast<double>(high - low);
      const double offset = width * (2.0 * p - 1.0) / (2.0 * c);
      const auto value =
          low + static_cast<std::uint64_t>(std::llround(offset));
      return std::min(value, high);
    }
    cumulative += buckets[i];
  }
  return Histogram::bucket_high(kBuckets - 1);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.buckets = counts_;
  // Read the dedicated total, not a sum over the bucket reads: the
  // exporters publish count/sum as the authoritative pair.
  snap.count = count_;
  snap.sum = sum_;
  return snap;
}

void Registry::counter(const std::string& name, const std::uint64_t& source) {
  SIRPENT_EXPECTS(is_valid_metric_name(name));
  auto& sources = counters_[name];
  if (std::find(sources.begin(), sources.end(), &source) == sources.end()) {
    sources.push_back(&source);
  }
}

Gauge& Registry::gauge(const std::string& name) {
  SIRPENT_EXPECTS(is_valid_metric_name(name));
  return find_or_create(gauges_, name);
}

Histogram& Registry::histogram(const std::string& name) {
  SIRPENT_EXPECTS(is_valid_metric_name(name));
  return find_or_create(histograms_, name);
}

const Registry::CounterSources* Registry::counter_sources(
    const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

std::map<std::string, std::uint64_t> Registry::snapshot() const {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, sources] : counters_) {
    out.emplace(name, sum_of(sources));
  }
  return out;
}

MetricsSnapshot Registry::full_snapshot() const {
  MetricsSnapshot out;
  out.counters = snapshot();
  for (const auto& [name, gauge] : gauges_) {
    out.gauges.emplace(name, gauge->value());
  }
  for (const auto& [name, histogram] : histograms_) {
    out.histograms.emplace(name, histogram->snapshot());
  }
  return out;
}

}  // namespace srp::stats

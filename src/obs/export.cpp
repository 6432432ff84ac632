#include "obs/export.hpp"

#include <cinttypes>
#include <map>
#include <string_view>

#include "stats/format.hpp"

namespace srp::obs {
namespace {

using stats::append_fmt;
using stats::json_escape;

// ts/dur in the Chrome trace format are microseconds; sim::Time is
// picoseconds, so six decimal places preserve full resolution.
constexpr double kPsPerUs = 1e6;

std::string prom_name(std::string_view metric) {
  std::string out;
  out.reserve(metric.size());
  for (char c : metric) out.push_back((c == '.' || c == '-') ? '_' : c);
  return out;
}

std::size_t highest_nonzero_bucket(const stats::HistogramSnapshot& h) {
  std::size_t highest = 0;
  for (std::size_t i = 0; i < h.kBuckets; ++i) {
    if (h.buckets[i] != 0) highest = i;
  }
  return highest;
}

std::string_view span_category(SpanKind kind) {
  switch (kind) {
    case SpanKind::kHop: return "viper";
    case SpanKind::kTx: return "net";
    case SpanKind::kThrottle: return "cc";
    case SpanKind::kVerify: return "tokens";
    case SpanKind::kDeliver: return "host";
    case SpanKind::kTxn: return "vmtp";
    case SpanKind::kSample: return "flow";
    case SpanKind::kIntHop: return "int";
    case SpanKind::kAlert: return "health";
  }
  return "?";
}

}  // namespace

std::string to_prometheus(const stats::MetricsSnapshot& snap) {
  std::string out;
  for (const auto& [name, value] : snap.counters) {
    const auto n = prom_name(name);
    out += "# TYPE " + n + " counter\n";
    append_fmt(out, "%s %" PRIu64 "\n", n.c_str(), value);
  }
  for (const auto& [name, value] : snap.gauges) {
    const auto n = prom_name(name);
    out += "# TYPE " + n + " gauge\n";
    append_fmt(out, "%s %" PRId64 "\n", n.c_str(), value);
  }
  for (const auto& [name, hist] : snap.histograms) {
    const auto n = prom_name(name);
    out += "# TYPE " + n + " histogram\n";
    std::uint64_t cumulative = 0;
    if (hist.count != 0) {
      const auto highest = highest_nonzero_bucket(hist);
      for (std::size_t i = 0; i <= highest; ++i) {
        cumulative += hist.buckets[i];
        append_fmt(out, "%s_bucket{le=\"%" PRIu64 "\"} %" PRIu64 "\n",
                   n.c_str(), stats::Histogram::bucket_high(i), cumulative);
      }
    }
    append_fmt(out, "%s_bucket{le=\"+Inf\"} %" PRIu64 "\n", n.c_str(),
               hist.count);
    append_fmt(out, "%s_sum %" PRIu64 "\n", n.c_str(), hist.sum);
    append_fmt(out, "%s_count %" PRIu64 "\n", n.c_str(), hist.count);
  }
  return out;
}

std::string to_json(const stats::MetricsSnapshot& snap) {
  std::string out = "{\n  \"counters\": {";
  const char* sep = "";
  for (const auto& [name, value] : snap.counters) {
    append_fmt(out, "%s\n    \"%s\": %" PRIu64, sep,
               json_escape(name).c_str(), value);
    sep = ",";
  }
  out += snap.counters.empty() ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  sep = "";
  for (const auto& [name, value] : snap.gauges) {
    append_fmt(out, "%s\n    \"%s\": %" PRId64, sep,
               json_escape(name).c_str(), value);
    sep = ",";
  }
  out += snap.gauges.empty() ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  sep = "";
  for (const auto& [name, hist] : snap.histograms) {
    append_fmt(out, "%s\n    \"%s\": {", sep, json_escape(name).c_str());
    append_fmt(out, "\"count\": %" PRIu64 ", \"sum\": %" PRIu64, hist.count,
               hist.sum);
    append_fmt(out, ", \"mean\": %.3f", hist.mean());
    append_fmt(out, ", \"p50\": %" PRIu64 ", \"p99\": %" PRIu64, hist.p50(),
               hist.p99());
    out += ", \"buckets\": [";
    const char* bsep = "";
    for (std::size_t i = 0; i < hist.kBuckets; ++i) {
      if (hist.buckets[i] == 0) continue;
      append_fmt(out, "%s[%" PRIu64 ", %" PRIu64 ", %" PRIu64 "]", bsep,
                 stats::Histogram::bucket_low(i),
                 stats::Histogram::bucket_high(i), hist.buckets[i]);
      bsep = ", ";
    }
    out += "]}";
    sep = ",";
  }
  out += snap.histograms.empty() ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

std::string to_chrome_trace(const std::vector<SpanRecord>& spans) {
  std::string out = "{\"traceEvents\":[";
  const char* sep = "";
  std::map<std::uint64_t, bool> seen_tids;
  for (const auto& span : spans) {
    seen_tids.emplace(span.trace_id, true);
    const double ts = static_cast<double>(span.start) / kPsPerUs;
    out += sep;
    sep = ",";
    out += "\n{";
    append_fmt(out, "\"name\":\"%s %s\",",
               std::string(to_string(span.kind)).c_str(),
               json_escape(span.component_view()).c_str());
    append_fmt(out, "\"cat\":\"%s\",",
               std::string(span_category(span.kind)).c_str());
    if (span.kind == SpanKind::kThrottle || span.kind == SpanKind::kSample ||
        span.kind == SpanKind::kAlert) {
      append_fmt(out, "\"ph\":\"i\",\"s\":\"t\",\"ts\":%.6f,", ts);
    } else {
      const double dur =
          static_cast<double>(span.end - span.start) / kPsPerUs;
      append_fmt(out, "\"ph\":\"X\",\"ts\":%.6f,\"dur\":%.6f,", ts, dur);
    }
    append_fmt(out, "\"pid\":1,\"tid\":%" PRIu64 ",", span.trace_id);
    out += "\"args\":{";
    append_fmt(out, "\"hop\":%u", span.hop);
    append_fmt(out, ",\"token\":\"%s\"",
               std::string(to_string(span.token)).c_str());
    append_fmt(out, ",\"cut_through\":%s",
               span.cut_through ? "true" : "false");
    append_fmt(out, ",\"in_port\":%u,\"out_port\":%u", span.in_port,
               span.out_port);
    append_fmt(out, ",\"queue_delay_ps\":%" PRId64, span.queue_delay);
    append_fmt(out, ",\"decision_us\":%.6f",
               static_cast<double>(span.decision) / kPsPerUs);
    if (span.excerpt_len != 0) {
      out += ",\"excerpt\":\"";
      for (std::uint8_t i = 0; i < span.excerpt_len; ++i) {
        append_fmt(out, "%02x", span.excerpt[i]);
      }
      out += "\"";
    }
    out += "}}";
  }
  for (const auto& [tid, unused] : seen_tids) {
    (void)unused;
    out += sep;
    sep = ",";
    append_fmt(out,
               "\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
               "\"tid\":%" PRIu64 ",\"args\":{\"name\":\"trace %" PRIu64
               "\"}}",
               tid, tid);
  }
  out += "\n],\"displayTimeUnit\":\"ns\"}\n";
  return out;
}

}  // namespace srp::obs

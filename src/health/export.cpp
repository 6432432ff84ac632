#include "health/export.hpp"

#include <algorithm>
#include <cinttypes>
#include <vector>

#include "stats/format.hpp"

namespace srp::health {
namespace {

using stats::append_fmt;
using stats::json_escape;

std::vector<const Alert*> label_sorted(const AlertEngine& engine,
                                       bool active_only) {
  std::vector<const Alert*> out;
  for (const auto& cell : engine.cells()) {
    const bool active = cell.state == AlertState::kPending ||
                        cell.state == AlertState::kFiring;
    if (active_only ? active : !cell.events.empty()) out.push_back(&cell);
  }
  std::sort(out.begin(), out.end(), [](const Alert* a, const Alert* b) {
    if (a->labels.alert != b->labels.alert) {
      return a->labels.alert < b->labels.alert;
    }
    return a->labels.metric < b->labels.metric;
  });
  return out;
}

void append_labels(std::string& out, const Alert& alert,
                   std::string_view state) {
  append_fmt(out, "{alertname=\"%s\",alertstate=\"%s\"",
             alert.labels.alert.c_str(), std::string(state).c_str());
  append_fmt(out, ",component=\"%s\"", alert.labels.component.c_str());
  if (!alert.labels.port.empty()) {
    append_fmt(out, ",port=\"%s\"", alert.labels.port.c_str());
  }
  append_fmt(out, ",metric=\"%s\",detector=\"%s\"}",
             alert.labels.metric.c_str(),
             std::string(to_string(alert.labels.detector)).c_str());
}

}  // namespace

std::string to_prometheus_alerts(const AlertEngine& engine) {
  std::string out = "# TYPE ALERTS gauge\n";
  const auto active = label_sorted(engine, /*active_only=*/true);
  for (const Alert* alert : active) {
    const auto state = to_string(alert->state);
    out += "ALERTS";
    append_labels(out, *alert, state);
    out += " 1\n";
  }
  out += "# TYPE ALERTS_FOR_STATE gauge\n";
  for (const Alert* alert : active) {
    out += "ALERTS_FOR_STATE";
    append_labels(out, *alert, to_string(alert->state));
    append_fmt(out, " %.6f\n",
               static_cast<double>(alert->pending_since) /
                   static_cast<double>(sim::kSecond));
  }
  return out;
}

std::string to_alerts_json(const HealthMonitor& monitor) {
  const auto episodes = label_sorted(monitor.engine(), /*active_only=*/false);
  std::string out = "{\n  \"alerts\": [";
  const char* sep = "";
  for (const Alert* alert : episodes) {
    out += sep;
    sep = ",";
    out += "\n    {";
    append_fmt(out, "\"alert\": \"%s\"",
               json_escape(alert->labels.alert).c_str());
    append_fmt(out, ", \"state\": \"%s\"",
               std::string(to_string(alert->state)).c_str());
    append_fmt(out, ", \"component\": \"%s\"",
               json_escape(alert->labels.component).c_str());
    append_fmt(out, ", \"port\": \"%s\"",
               json_escape(alert->labels.port).c_str());
    append_fmt(out, ", \"metric\": \"%s\"",
               json_escape(alert->labels.metric).c_str());
    append_fmt(out, ", \"detector\": \"%s\"",
               std::string(to_string(alert->labels.detector)).c_str());
    append_fmt(out, ",\n     \"pending_since_ps\": %" PRId64,
               alert->pending_since);
    append_fmt(out, ", \"firing_since_ps\": %" PRId64, alert->firing_since);
    append_fmt(out, ", \"resolved_at_ps\": %" PRId64, alert->resolved_at);
    append_fmt(out, ", \"breach_windows\": %" PRIu64, alert->breach_windows);
    append_fmt(out, ", \"peak_score\": %.3f", alert->peak_score);
    out += ",\n     \"events\": [";
    const char* esep = "";
    for (const auto& event : alert->events) {
      append_fmt(out, "%s{\"state\": \"%s\", \"at_ps\": %" PRId64
                      ", \"value\": %.3f, \"score\": %.3f}",
                 esep, std::string(to_string(event.state)).c_str(), event.at,
                 event.value, event.score);
      esep = ", ";
    }
    out += "]";
    if (alert->firing_since != 0) {
      const RootCause cause = monitor.diagnose(*alert);
      out += ",\n     \"root_cause\": {";
      append_fmt(out, "\"router\": \"%s\"",
                 json_escape(cause.router).c_str());
      append_fmt(out, ", \"port\": \"%s\"", json_escape(cause.port).c_str());
      append_fmt(out, ", \"reason\": \"%s\"",
                 json_escape(cause.reason).c_str());
      append_fmt(out, ", \"evidence\": \"%s\"",
                 json_escape(cause.evidence).c_str());
      out += "}";
    }
    out += "}";
  }
  out += episodes.empty() ? "],\n" : "\n  ],\n";
  append_fmt(out, "  \"windows\": %" PRIu64 ",\n", monitor.windows());
  append_fmt(out, "  \"rules\": %zu\n", monitor.engine().rules());
  out += "}\n";
  return out;
}

}  // namespace srp::health

// Text-export helpers shared by every exporter (obs, flow, health, the
// fabric introspector, mc counterexamples): printf-style appends that
// never truncate, and one JSON string escape.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace srp::stats {

/// Appends printf-formatted @p fmt to @p out.  The output is sized from
/// snprintf's return value and formatted straight into @p out, so no
/// field is ever cut short.
template <typename... Args>
void append_fmt(std::string& out, const char* fmt, Args... args) {
  const int n = std::snprintf(nullptr, 0, fmt, args...);
  if (n <= 0) return;
  const auto len = static_cast<std::size_t>(n);
  const std::size_t at = out.size();
  out.resize(at + len + 1);  // room for snprintf's terminator
  std::snprintf(out.data() + at, len + 1, fmt, args...);
  out.resize(at + len);
}

/// Appends @p s as the body of a JSON string (no surrounding quotes):
/// quote and backslash escaped, \n and \t by name, every other control
/// character below 0x20 as \u00XX.
void append_json_escaped(std::string& out, std::string_view s);

/// append_json_escaped into a fresh string.
[[nodiscard]] std::string json_escape(std::string_view s);

}  // namespace srp::stats

#include "mc/counterexample.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>

#include "stats/format.hpp"

namespace srp::mc {
namespace {

void append_escaped(std::string* out, const std::string& s) {
  out->push_back('"');
  stats::append_json_escaped(*out, s);
  out->push_back('"');
}

/// Minimal recursive-descent reader for the counterexample schema:
/// objects, arrays, strings and unsigned integers only.
class Reader {
 public:
  explicit Reader(const std::string& text) : text_(text) {}

  bool ok() const { return ok_; }
  void fail() { ok_ = false; }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool consume(char ch) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ch) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool peek(char ch) {
    skip_ws();
    return pos_ < text_.size() && text_[pos_] == ch;
  }

  std::string string() {
    skip_ws();
    std::string out;
    if (!consume('"')) {
      fail();
      return out;
    }
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char ch = text_[pos_++];
      if (ch == '\\' && pos_ < text_.size()) {
        const char esc = text_[pos_++];
        if (esc == 'u') {
          ch = unicode_escape();
        } else {
          ch = esc == 'n' ? '\n' : esc == 't' ? '\t' : esc;
        }
      }
      out.push_back(ch);
    }
    if (pos_ >= text_.size()) {
      fail();
      return out;
    }
    ++pos_;  // closing quote
    return out;
  }

  std::uint64_t number() {
    skip_ws();
    std::uint64_t v = 0;
    bool any = false;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
      v = v * 10 + static_cast<std::uint64_t>(text_[pos_++] - '0');
      any = true;
    }
    if (!any) fail();
    return v;
  }

 private:
  /// The byte a \uXXXX escape names.  The writer emits \u00XX only, so
  /// a malformed escape or a code point past 0xFF fails the parse.
  char unicode_escape() {
    const std::string hex = text_.substr(pos_, 4);
    pos_ += hex.size();
    const bool digits =
        hex.size() == 4 && std::all_of(hex.begin(), hex.end(), [](char c) {
          return std::isxdigit(static_cast<unsigned char>(c)) != 0;
        });
    const unsigned long value = digits ? std::stoul(hex, nullptr, 16) : 0;
    if (!digits || value > 0xFF) fail();
    return static_cast<char>(value);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace

CounterExample make_counterexample(const std::string& model_name,
                                   const std::string& mutant_id,
                                   const Violation& violation,
                                   const ExploreResult& result) {
  CounterExample cx;
  cx.model = model_name;
  cx.mutant = mutant_id;
  cx.invariant = violation.invariant;
  cx.events = violation.trace;
  cx.states_visited = result.states_visited;
  cx.depth = static_cast<int>(violation.trace.size());
  return cx;
}

std::string to_json(const CounterExample& cx) {
  std::string out = "{\n  \"model\": ";
  append_escaped(&out, cx.model);
  out += ",\n  \"mutant\": ";
  append_escaped(&out, cx.mutant);
  out += ",\n  \"invariant\": ";
  append_escaped(&out, cx.invariant);
  out += ",\n  \"states_visited\": " + std::to_string(cx.states_visited);
  out += ",\n  \"depth\": " + std::to_string(cx.depth);
  out += ",\n  \"events\": [";
  for (std::size_t i = 0; i < cx.events.size(); ++i) {
    const Event& e = cx.events[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"code\": " + std::to_string(e.code);
    out += ", \"a\": " + std::to_string(e.a);
    out += ", \"b\": " + std::to_string(e.b);
    out += ", \"c\": " + std::to_string(e.c);
    out += ", \"label\": ";
    append_escaped(&out, e.label);
    out += "}";
  }
  out += cx.events.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

std::optional<CounterExample> from_json(const std::string& text) {
  Reader r(text);
  CounterExample cx;
  if (!r.consume('{')) return std::nullopt;
  bool first = true;
  while (!r.peek('}')) {
    if (!first && !r.consume(',')) return std::nullopt;
    first = false;
    const std::string key = r.string();
    if (!r.consume(':')) return std::nullopt;
    if (key == "model") {
      cx.model = r.string();
    } else if (key == "mutant") {
      cx.mutant = r.string();
    } else if (key == "invariant") {
      cx.invariant = r.string();
    } else if (key == "states_visited") {
      cx.states_visited = static_cast<std::size_t>(r.number());
    } else if (key == "depth") {
      cx.depth = static_cast<int>(r.number());
    } else if (key == "events") {
      if (!r.consume('[')) return std::nullopt;
      bool first_event = true;
      while (!r.peek(']')) {
        if (!first_event && !r.consume(',')) return std::nullopt;
        first_event = false;
        if (!r.consume('{')) return std::nullopt;
        Event e;
        bool first_field = true;
        while (!r.peek('}')) {
          if (!first_field && !r.consume(',')) return std::nullopt;
          first_field = false;
          const std::string field = r.string();
          if (!r.consume(':')) return std::nullopt;
          if (field == "code") {
            e.code = static_cast<std::uint8_t>(r.number());
          } else if (field == "a") {
            e.a = static_cast<std::uint8_t>(r.number());
          } else if (field == "b") {
            e.b = static_cast<std::uint8_t>(r.number());
          } else if (field == "c") {
            e.c = static_cast<std::uint32_t>(r.number());
          } else if (field == "label") {
            e.label = r.string();
          } else {
            return std::nullopt;
          }
          if (!r.ok()) return std::nullopt;
        }
        if (!r.consume('}')) return std::nullopt;
        cx.events.push_back(std::move(e));
      }
      if (!r.consume(']')) return std::nullopt;
    } else {
      return std::nullopt;
    }
    if (!r.ok()) return std::nullopt;
  }
  if (!r.consume('}')) return std::nullopt;
  return cx;
}

}  // namespace srp::mc

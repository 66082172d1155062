#pragma once

// A flat JSON object written field by field: enough for the runner's one
// result line, which perfbench/run.py parses.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// A 64-bit digest as 16 hex digits.
inline std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

class JsonLine {
 public:
  void num(std::string_view key, double value) {
    key_(key);
    if (!std::isfinite(value)) {
      body_ += "null";
      return;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    body_ += buf;
  }
  void count(std::string_view key, std::uint64_t value) {
    key_(key);
    body_ += std::to_string(value);
  }
  void str(std::string_view key, std::string_view value) {
    key_(key);
    quote_(value);
  }
  void nums(std::string_view key, const std::vector<double>& values) {
    key_(key);
    body_ += '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i != 0) body_ += ',';
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", values[i]);
      body_ += buf;
    }
    body_ += ']';
  }
  /// Nests an already-built object.
  void object(std::string_view key, const JsonLine& inner) {
    key_(key);
    body_ += inner.text();
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  void key_(std::string_view key) {
    if (!body_.empty()) body_ += ',';
    quote_(key);
    body_ += ':';
  }
  void quote_(std::string_view s) {
    body_ += '"';
    for (char c : s) {
      if (c == '"' || c == '\\') body_ += '\\';
      if (c == '\n') {
        body_ += "\\n";
        continue;
      }
      body_ += c;
    }
    body_ += '"';
  }

  std::string body_;
};

}  // namespace perfbench

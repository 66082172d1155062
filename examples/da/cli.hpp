// The `da` tool's one flag parser, shared by every subcommand, and the
// subcommand entry points (examples/da/main.cpp dispatches on argv[1]).
//
// A subcommand binds each flag it accepts to a destination, then parses
// its arguments left to right. Named values and boolean switches are
// flags; every other word is a positional. Integers must be the whole
// string (std::from_chars) and fit the destination type at or above its
// lower bound; reals must be positive and finite; id lists are
// comma-separated integers. A malformed value, a missing value or an
// unknown flag throws `UsageError`, which `da` reports on stderr with
// exit status 2.

#pragma once

#include <charconv>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/ids.hpp"

namespace da::cli {

using Args = std::vector<std::string>;

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The whole of `text` as an integer in [lo, hi]; `what` names the flag
/// or positional in the error.
template <typename T>
T parse_int(std::string_view what, std::string_view text, T lo = 0,
            T hi = std::numeric_limits<T>::max()) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end || v < lo || v > hi) {
    throw UsageError(std::string(what) + ": '" + std::string(text) +
                     "' is not an integer in [" + std::to_string(lo) + ", " +
                     std::to_string(hi) + "]");
  }
  return v;
}

class Flags {
 public:
  /// `name VALUE`, handed to `store` (which may throw UsageError).
  Flags& value(std::string name, std::function<void(std::string_view)> store);
  /// A switch: `name` alone sets `out`.
  Flags& toggle(std::string name, bool& out);
  Flags& text(std::string name, std::string& out);
  Flags& positive(std::string name, double& out);
  /// Comma-separated node ids; the empty string is the empty list.
  Flags& ids(std::string name, std::vector<NodeId>& out);
  template <typename T>
  Flags& integer(std::string name, T& out, T lo = 0,
                 T hi = std::numeric_limits<T>::max()) {
    return value(name, [name, &out, lo, hi](std::string_view v) {
      out = parse_int<T>(name, v, lo, hi);
    });
  }

  /// Applies every flag in `args`; returns the positionals in order.
  Args parse(const Args& args) const;

 private:
  struct Spec {
    std::string name;
    bool takes_value;
    std::function<void(std::string_view)> store;
  };
  std::vector<Spec> specs_;
};

int run_cmd(const Args& args);
int trace_cmd(const Args& args);
int span_cmd(const Args& args);
int search_cmd(const Args& args);
int service_cmd(const Args& args);
int inject_cmd(const Args& args);

}  // namespace da::cli

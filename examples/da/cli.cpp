#include "cli.hpp"

#include <cmath>

namespace da::cli {
namespace {

/// The whole of `text` as a finite real > 0.
double parse_positive(std::string_view what, std::string_view text) {
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end || !std::isfinite(v) || v <= 0.0) {
    throw UsageError(std::string(what) + ": '" + std::string(text) +
                     "' is not a positive number");
  }
  return v;
}

}  // namespace

Flags& Flags::value(std::string name,
                    std::function<void(std::string_view)> store) {
  specs_.push_back({std::move(name), true, std::move(store)});
  return *this;
}

Flags& Flags::toggle(std::string name, bool& out) {
  specs_.push_back({std::move(name), false,
                    [&out](std::string_view) { out = true; }});
  return *this;
}

Flags& Flags::text(std::string name, std::string& out) {
  return value(std::move(name), [&out](std::string_view v) { out = v; });
}

Flags& Flags::positive(std::string name, double& out) {
  return value(name, [name, &out](std::string_view v) {
    out = parse_positive(name, v);
  });
}

Flags& Flags::ids(std::string name, std::vector<NodeId>& out) {
  return value(name, [name, &out](std::string_view v) {
    out.clear();
    if (v.empty()) return;
    for (;;) {
      const std::size_t comma = v.find(',');
      out.push_back(parse_int<NodeId>(name, v.substr(0, comma)));
      if (comma == std::string_view::npos) return;
      v.remove_prefix(comma + 1);
    }
  });
}

Args Flags::parse(const Args& args) const {
  Args positionals;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.empty() || arg[0] != '-') {
      positionals.push_back(arg);
      continue;
    }
    const Spec* spec = nullptr;
    for (const Spec& s : specs_) {
      if (s.name == arg) spec = &s;
    }
    if (spec == nullptr) throw UsageError("unknown flag " + arg);
    if (spec->takes_value && i + 1 == args.size()) {
      throw UsageError(arg + " expects a value");
    }
    spec->store(spec->takes_value ? std::string_view(args[++i]) : "");
  }
  return positionals;
}

}  // namespace da::cli

#include "obs/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace da::obs {

Json::Json(std::uint64_t u) {
  if (u <= static_cast<std::uint64_t>(
               std::numeric_limits<std::int64_t>::max())) {
    value_ = static_cast<std::int64_t>(u);
  } else {
    value_ = static_cast<double>(u);
  }
}

std::int64_t Json::as_int() const {
  if (holds<std::int64_t>()) return std::get<std::int64_t>(value_);
  return static_cast<std::int64_t>(std::get<double>(value_));
}

double Json::as_double() const {
  if (holds<double>()) return std::get<double>(value_);
  return static_cast<double>(std::get<std::int64_t>(value_));
}

Json& Json::set(std::string key, Json value) {
  if (!is_object()) value_ = Object{};
  Object& obj = std::get<Object>(value_);
  for (auto& [k, v] : obj) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  obj.emplace_back(std::move(key), std::move(value));
  return *this;
}

const Json* Json::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : as_object()) {
    if (k == key) return &v;
  }
  return nullptr;
}

void Json::push_back(Json value) {
  if (!is_array()) value_ = Array{};
  std::get<Array>(value_).push_back(std::move(value));
}

std::size_t Json::size() const {
  if (is_array()) return as_array().size();
  if (is_object()) return as_object().size();
  return 0;
}

void json_escape(std::string_view text, std::string& out) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

namespace {

void append_double(double d, std::string& out) {
  if (!std::isfinite(d)) {
    out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  out += buf;
}

void append_newline_indent(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += as_bool() ? "true" : "false";
  } else if (is_integer()) {
    out += std::to_string(std::get<std::int64_t>(value_));
  } else if (is_number()) {
    append_double(std::get<double>(value_), out);
  } else if (is_string()) {
    json_escape(as_string(), out);
  } else if (is_array()) {
    const Array& arr = as_array();
    if (arr.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    for (std::size_t i = 0; i < arr.size(); ++i) {
      if (i != 0) out += ',';
      append_newline_indent(out, indent, depth + 1);
      arr[i].dump_to(out, indent, depth + 1);
    }
    append_newline_indent(out, indent, depth);
    out += ']';
  } else {
    const Object& obj = as_object();
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    bool first = true;
    for (const auto& [key, value] : obj) {
      if (!first) out += ',';
      first = false;
      append_newline_indent(out, indent, depth + 1);
      json_escape(key, out);
      out += indent < 0 ? ":" : ": ";
      value.dump_to(out, indent, depth + 1);
    }
    append_newline_indent(out, indent, depth);
    out += '}';
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

// ------------------------------------------------------------- parsing --

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Json> run(std::string* error) {
    std::optional<Json> value = parse_value();
    if (value) {
      skip_ws();
      if (pos_ != text_.size()) {
        fail("trailing characters after JSON value");
        value = std::nullopt;
      }
    }
    if (!value && error != nullptr) {
      *error = error_ + " at byte " + std::to_string(pos_);
    }
    return value;
  }

 private:
  void fail(const char* message) {
    if (error_.empty()) error_ = message;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  [[nodiscard]] bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  [[nodiscard]] bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  std::optional<Json> parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    const char c = text_[pos_];
    if (c == 'n') {
      if (literal("null")) return std::make_optional<Json>(nullptr);
      fail("invalid literal");
      return std::nullopt;
    }
    if (c == 't') {
      if (literal("true")) return std::make_optional<Json>(true);
      fail("invalid literal");
      return std::nullopt;
    }
    if (c == 'f') {
      if (literal("false")) return std::make_optional<Json>(false);
      fail("invalid literal");
      return std::nullopt;
    }
    if (c == '"') return parse_string();
    if (c == '[') return parse_array();
    if (c == '{') return parse_object();
    return parse_number();
  }

  std::optional<Json> parse_string() {
    std::optional<std::string> s = parse_raw_string();
    if (!s) return std::nullopt;
    return Json(std::move(*s));
  }

  std::optional<std::string> parse_raw_string() {
    if (!consume('"')) {
      fail("expected '\"'");
      return std::nullopt;
    }
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
            return std::nullopt;
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("invalid \\u escape");
              return std::nullopt;
            }
          }
          // Encode the code point as UTF-8 (no surrogate-pair handling:
          // the writer never emits escapes above U+001F).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("invalid escape");
          return std::nullopt;
      }
    }
    fail("unterminated string");
    return std::nullopt;
  }

  std::optional<Json> parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {
    }
    bool is_double = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = is_double || c == '.' || c == 'e' || c == 'E';
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      fail("invalid number");
      return std::nullopt;
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (!is_double) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        return std::make_optional<Json>(static_cast<std::int64_t>(v));
      }
    }
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      fail("invalid number");
      return std::nullopt;
    }
    return std::make_optional<Json>(d);
  }

  std::optional<Json> parse_array() {
    (void)consume('[');
    Json arr = Json::array();
    skip_ws();
    if (consume(']')) return arr;
    while (true) {
      std::optional<Json> value = parse_value();
      if (!value) return std::nullopt;
      arr.push_back(std::move(*value));
      skip_ws();
      if (consume(']')) return arr;
      if (!consume(',')) {
        fail("expected ',' or ']'");
        return std::nullopt;
      }
    }
  }

  std::optional<Json> parse_object() {
    (void)consume('{');
    Json obj = Json::object();
    skip_ws();
    if (consume('}')) return obj;
    while (true) {
      skip_ws();
      std::optional<std::string> key = parse_raw_string();
      if (!key) return std::nullopt;
      skip_ws();
      if (!consume(':')) {
        fail("expected ':'");
        return std::nullopt;
      }
      std::optional<Json> value = parse_value();
      if (!value) return std::nullopt;
      obj.set(std::move(*key), std::move(*value));
      skip_ws();
      if (consume('}')) return obj;
      if (!consume(',')) {
        fail("expected ',' or '}'");
        return std::nullopt;
      }
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::optional<Json> Json::parse(std::string_view text, std::string* error) {
  return Parser(text).run(error);
}

}  // namespace da::obs

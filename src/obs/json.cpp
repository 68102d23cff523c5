#include "obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace lvf2::obs {

namespace {
// 2^53: every integer below it is exact as a double.
constexpr std::uint64_t kExactIntegerLimit = std::uint64_t{1} << 53;
}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::number_or(std::string_view key, double fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->type == Type::kNumber) ? v->number : fallback;
}

std::string JsonValue::string_or(std::string_view key,
                                 std::string_view fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->type == Type::kString) ? v->string
                                                    : std::string(fallback);
}

JsonValue json_number(double v) {
  JsonValue j;
  j.type = JsonValue::Type::kNumber;
  j.number = v;
  return j;
}

JsonValue json_u64(std::uint64_t v) {
  return v < kExactIntegerLimit ? json_number(static_cast<double>(v))
                                : json_string(std::to_string(v));
}

JsonValue json_string(std::string s) {
  JsonValue j;
  j.type = JsonValue::Type::kString;
  j.string = std::move(s);
  return j;
}

JsonValue json_bool(bool b) {
  JsonValue j;
  j.type = JsonValue::Type::kBool;
  j.boolean = b;
  return j;
}

JsonValue json_array() {
  JsonValue j;
  j.type = JsonValue::Type::kArray;
  return j;
}

JsonValue json_object(
    std::initializer_list<std::pair<std::string, JsonValue>> members) {
  JsonValue j;
  j.type = JsonValue::Type::kObject;
  j.object.assign(members.begin(), members.end());
  return j;
}

void json_append_string(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void json_append_number(std::string& out, double v) {
  json_append_number(out, v, 9);
}

void json_append_number(std::string& out, double v, int precision) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
  out += buf;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> run(std::string* error) {
    JsonValue v = parse_value();
    skip_ws();
    if (ok_ && pos_ != text_.size()) fail("trailing characters");
    if (!ok_) {
      if (error != nullptr) *error = error_;
      return std::nullopt;
    }
    return v;
  }

 private:
  void fail(const std::string& what) {
    if (ok_) {
      error_ = what + " at offset " + std::to_string(pos_);
      ok_ = false;
    }
    pos_ = text_.size();
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return '\0';
    }
    return text_[pos_];
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    skip_ws();
    JsonValue v;
    if (!ok_) return v;
    const char c = peek();
    if (c == '{') {
      v.type = JsonValue::Type::kObject;
      ++pos_;
      if (consume('}')) return v;
      do {
        skip_ws();
        if (peek() != '"') {
          fail("expected object key");
          return v;
        }
        std::string key = parse_string();
        if (!consume(':')) {
          fail("expected ':'");
          return v;
        }
        v.object.emplace_back(std::move(key), parse_value());
      } while (consume(','));
      if (!consume('}')) fail("expected '}'");
    } else if (c == '[') {
      v.type = JsonValue::Type::kArray;
      ++pos_;
      if (consume(']')) return v;
      do {
        v.array.push_back(parse_value());
      } while (consume(','));
      if (!consume(']')) fail("expected ']'");
    } else if (c == '"') {
      v.type = JsonValue::Type::kString;
      v.string = parse_string();
    } else if (c == 't' || c == 'f') {
      v.type = JsonValue::Type::kBool;
      const std::string_view word = (c == 't') ? "true" : "false";
      if (text_.substr(pos_, word.size()) != word) {
        fail("bad literal");
      } else {
        pos_ += word.size();
        v.boolean = (c == 't');
      }
    } else if (c == 'n') {
      if (text_.substr(pos_, 4) != "null") {
        fail("bad literal");
      } else {
        pos_ += 4;
      }
    } else if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      v.type = JsonValue::Type::kNumber;
      v.number = parse_number();
    } else {
      fail("unexpected character");
    }
    return v;
  }

  std::string parse_string() {
    std::string out;
    ++pos_;  // opening quote
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'r': out += '\r'; break;
          case '/': out += '/'; break;
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              fail("bad \\u escape");
              return out;
            }
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_ + static_cast<std::size_t>(i)];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else {
                fail("bad \\u escape");
                return out;
              }
            }
            pos_ += 4;
            // The sinks only escape control characters, so a BMP
            // code point to UTF-8 suffices here.
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
            fail("bad escape");
            return out;
        }
      } else {
        out += c;
      }
    }
    if (pos_ >= text_.size()) {
      fail("unterminated string");
      return out;
    }
    ++pos_;  // closing quote
    return out;
  }

  double parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) {
      fail("expected number");
      return 0.0;
    }
    return std::atof(std::string(text_.substr(start, pos_ - start)).c_str());
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  std::string error_;
};

}  // namespace

std::optional<JsonValue> json_parse(std::string_view text,
                                    std::string* error) {
  return Parser(text).run(error);
}

void json_write(const JsonValue& value, std::string& out,
                const JsonWriteOptions& options) {
  switch (value.type) {
    case JsonValue::Type::kNull:
      out += "null";
      break;
    case JsonValue::Type::kBool:
      out += value.boolean ? "true" : "false";
      break;
    case JsonValue::Type::kNumber: {
      const double v = value.number;
      if (std::isfinite(v) && v == std::trunc(v) &&
          std::fabs(v) < static_cast<double>(kExactIntegerLimit)) {
        // %.0f keeps the sign of -0, as %g does.
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%.0f", v);
        out += buf;
      } else {
        json_append_number(out, v, options.double_precision);
      }
      break;
    }
    case JsonValue::Type::kString:
      json_append_string(out, value.string);
      break;
    case JsonValue::Type::kArray: {
      out += '[';
      for (std::size_t i = 0; i < value.array.size(); ++i) {
        if (i > 0) out += ',';
        json_write(value.array[i], out, options);
      }
      out += ']';
      break;
    }
    case JsonValue::Type::kObject: {
      out += '{';
      for (std::size_t i = 0; i < value.object.size(); ++i) {
        if (i > 0) out += ',';
        json_append_string(out, value.object[i].first);
        out += ':';
        json_write(value.object[i].second, out, options);
      }
      out += '}';
      break;
    }
  }
}

void json_write(const JsonValue& value, std::string& out) {
  json_write(value, out, JsonWriteOptions{});
}

std::string json_write(const JsonValue& value) {
  std::string out;
  json_write(value, out);
  return out;
}

std::string json_write(const JsonValue& value, const JsonWriteOptions& options) {
  std::string out;
  json_write(value, out, options);
  return out;
}

}  // namespace lvf2::obs
